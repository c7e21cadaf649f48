"""The public surface of each module: every name in ``__all__`` resolves
and a star import works."""

import importlib

import pytest

MODULES = ("cli", "hankel", "lft", "matcore", "measures", "pairs",
           "respoly", "schur", "serialize", "solver")


@pytest.mark.parametrize("name", MODULES)
def test_module_surface_resolves(name):
    module = importlib.import_module(f"stieltjesmp.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    namespace = {}
    exec(f"from stieltjesmp.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
