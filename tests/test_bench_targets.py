"""The benchmark's tracer wraps package functions by name; every name it
lists must resolve here, so a rename fails this test before it crashes
the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    # executes the module's definitions only; no wrapper is installed
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.TARGETS))
def test_tracer_target_resolves(name):
    modname, attr = tracing.TARGETS[name]
    module = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth)), name
    else:
        assert callable(getattr(module, attr, None)), name
