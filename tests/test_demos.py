"""The demos run from a checkout and print their report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stieltjesmp

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("classify_and_transform", "resolvent_identities", "solve_parametrize")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(Path(stieltjesmp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    script = ROOT / "demos" / f"{demo}.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), proc.stderr
