"""Mutation and line-coverage probe for the Tier-1 suite.

Run from the repository root; it uses the standard library only, and
pytest does not collect it::

    python tests/mutants.py              # every mutation in MUTATIONS
    python tests/mutants.py NAME ...     # only the named ones
    python tests/mutants.py --list       # the names and where they act
    python tests/mutants.py --lines      # src/ lines Tier-1 never runs

Each mutation replaces one exact piece of a module under ``src/`` with a
wrong one.  For each, the repository is copied to a temporary directory,
the change is made there, never in the tree, and the Tier-1 command runs
on the copy with ``-x``.  A mutant that makes a test fail is killed, and
the first such test is printed; one that passes the whole suite
survives.  The unmutated copy runs first: if it fails, nothing is
decided.  The exit status is 0 once every mutation has run, whatever
survived, and 2 when the unmutated suite fails or a mutation no longer
finds its text (the code moved; update the entry).

``--lines`` runs Tier-1 once under ``sys.settrace`` and lists, per
module, the executable lines of ``src/stieltjesmp`` that no test reaches.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "stieltjesmp"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 900

# (name, module, exact text, its replacement): each text must occur once
MUTATIONS = [
    ("atom_moments_overflow_row", "measures",
     "if bad is None and rows <= m:", "if bad is None and rows < m:"),
    ("transform_merges_no_equal_nodes", "measures",
     "apart = nodes[1:] > nodes[:-1]", "apart = nodes[1:] >= nodes[:-1]"),
    ("transform_keeps_node_order", "measures",
     'order = np.argsort(nodes, kind="stable")', "order = np.arange(n)"),
    ("transform_growth_test", "measures",
     "if len(fun.den) <= n:", "if len(fun.den) < n:"),
    ("extract_moments_ignores_the_slot", "measures",
     "    if fun.atoms is not None:\n        stack, j",
     "    if False:\n        stack, j"),
    ("measure_skips_the_psd_test", "measures",
     "if (matcore.psd_margin(stack) < -tol.psd).any():", "if False:"),
    ("computed_weights_stay_writeable", "measures",
     "        weights.flags.writeable = False\n",
     "        weights.flags.writeable = True\n"),
    ("slot_reader_drops_p0_inverse", "solver",
     "phi.atoms.weights @ p0inv", "phi.atoms.weights"),
    ("slot_reader_takes_nodes_below_alpha", "solver",
     "if len(y) and y[0] < pair.alpha:", "if False:"),
    ("residues_skip_the_psd_refusal", "solver",
     "    if bad.any():\n        i = int(bad.argmax())",
     "    if bad[0]:\n        i = int(bad.argmax())"),
    ("atomic_solution_ignores_the_constant", "solver",
     "    if c.any():\n        x = diagonal[m]",
     "    if False:\n        x = diagonal[m]"),
    ("weight_rule_keeps_no_far_atom", "solver",
     "    if not kept.all():\n        # t_j", "    if False:\n        # t_j"),
    ("weight_rule_drops_by_mass_only", "solver",
     "kept |= ((shares", "kept &= ((shares"),
    ("equivalent_compares_zero_stacks", "pairs",
     "(sv[:, 0] > 0.0)", "(sv[:, 0] >= 0.0)"),
    ("writer_leaves_dict_floats_unrounded", "serialize",
     "text = float.__repr__(sig(o, digits))", "text = float.__repr__(o)"),
    ("main_takes_zero_digits", "cli",
     "if args.digits < 1:", "if args.digits < 0:"),
    ("eq_mode_skips_the_decay_refusal", "solver",
     'if not decay["ok"]:', "if False:"),
]


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"))


def _apply(tree: Path, module: str, old: str, new: str) -> bool:
    path = tree / PACKAGE / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return False
    path.write_text(text.replace(old, new), encoding="utf-8")
    return True


def _run_tier1(tree: Path) -> tuple:
    """(passed, first failing test or None) of Tier-1 on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        out = subprocess.run([*TIER1, "-rfE"], cwd=tree, env=env,
                             capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.MULTILINE)
    if out.returncode == 0:
        return True, None
    return False, failed.group(1) if failed else f"exit {out.returncode}"


def run_mutations(names) -> int:
    chosen = [m for m in MUTATIONS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTATIONS}
    if unknown:
        print(f"unknown mutations: {sorted(unknown)}")
        return 2
    status = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "tree"
        _copy_tree(base)
        ok, first = _run_tier1(base)
        if not ok:
            print(f"unmutated suite fails ({first}): nothing decided")
            return 2
        survivors = []
        for name, module, old, new in chosen:
            tree = Path(tmp) / name
            shutil.copytree(base, tree)
            if not _apply(tree, module, old, new):
                print(f"{name:40s} STALE (text not found once in {module})")
                status = 2
                continue
            ok, first = _run_tier1(tree)
            print(f"{name:40s} {'SURVIVED' if ok else 'killed by ' + first}",
                  flush=True)
            if ok:
                survivors.append(name)
            shutil.rmtree(tree)
    print(f"{len(chosen)} mutations, {len(survivors)} survived: {survivors}")
    return status


_TRACER = """
import json, sys, threading
import pytest
package = {package!r}
seen = set()

def local(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return local

def tracer(frame, event, arg):
    if frame.f_code.co_filename.startswith(package):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local
    return None

threading.settrace(tracer)
sys.settrace(tracer)
code = pytest.main({args!r})
sys.settrace(None)
with open({out!r}, "w") as fh:
    json.dump(sorted(seen), fh)
sys.exit(code)
"""


def _executable_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def _ranges(lines) -> str:
    spans, start = [], None
    for line in sorted(lines):
        if start is None:
            start = prev = line
        elif line == prev + 1:
            prev = line
        else:
            spans.append((start, prev))
            start = prev = line
    if start is not None:
        spans.append((start, prev))
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def run_lines() -> int:
    with tempfile.TemporaryDirectory(prefix="lines-") as tmp:
        tree = Path(tmp) / "tree"
        _copy_tree(tree)
        package = str(tree / PACKAGE) + os.sep
        out = Path(tmp) / "seen.json"
        args = [a for a in TIER1[3:] if a != "-x"]
        script = _TRACER.format(package=package, out=str(out), args=args)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-c", script], cwd=tree,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0 or not out.exists():
            print(done.stdout[-2000:], done.stderr[-2000:])
            print("the traced suite failed: no line report")
            return 2
        seen = {(f, line) for f, line in json.loads(out.read_text())}
        total = missed = 0
        for path in sorted((tree / PACKAGE).glob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines = _executable_lines(compile(source, str(path), "exec"))
            never = {line for line in lines if (str(path), line) not in seen}
            total += len(lines)
            missed += len(never)
            if never:
                print(f"{PACKAGE / path.name}: {len(never)} of {len(lines)} "
                      f"never run: {_ranges(never)}")
        print(f"{missed} of {total} executable lines never run")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutations to run")
    parser.add_argument("--list", action="store_true",
                        help="list the mutations and exit")
    parser.add_argument("--lines", action="store_true",
                        help="list the src/ lines that Tier-1 never runs")
    args = parser.parse_args(argv)
    if args.list:
        for name, module, old, new in MUTATIONS:
            print(f"{name:40s} {module}: {old.strip()!r} -> {new.strip()!r}")
        return 0
    if args.lines:
        return run_lines()
    return run_mutations(args.names)


if __name__ == "__main__":
    sys.exit(main())
