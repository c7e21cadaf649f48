"""The public surface of each module: every name in ``__all__`` resolves
and a star import works, and every tolerance field and command-line
option is read somewhere."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from stieltjesmp.cli import CliConfig
from stieltjesmp.matcore import ToleranceConfig

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


def _package_source(name="*") -> str:
    src = Path(importlib.import_module("stieltjesmp").__file__).parent
    return "".join(p.read_text(encoding="utf-8") for p in src.glob(f"{name}.py"))


def test_every_tolerance_field_is_read():
    # a ToleranceConfig field the package never reads is a knob that changes
    # nothing, yet the CLI still accepts it through --tol
    text = _package_source()
    unread = [f.name for f in dataclasses.fields(ToleranceConfig)
              if not re.search(rf"\btol\.{f.name}\b", text)]
    assert not unread, unread


def test_every_cli_config_field_is_read():
    # likewise a CliConfig field no subcommand reads is an option that the
    # CLI parses and then ignores
    text = _package_source("cli")
    unread = [f.name for f in dataclasses.fields(CliConfig)
              if not re.search(rf"\bcfg\.{f.name}\b", text)]
    assert not unread, unread


def test_json_layouts_live_in_serialize():
    # serialize alone writes and reads the JSON layouts: no class carries a
    # to_json/from_json of its own, and no function imports serialize (or,
    # inside serialize, anything) locally to get round an import cycle
    text = _package_source()
    methods = re.findall(r"def (?:to|from)_json\b", text)
    assert not methods, methods
    local = re.findall(r"^[ \t]+(?:from|import)\b.*\bserialize\b", text, re.M)
    local += re.findall(r"^[ \t]+(?:from|import)\b.*",
                        _package_source("serialize"), re.M)
    assert not local, local


def test_only_the_cli_grid_reaches_a_grid_parameter():
    # the range conditions are coefficient identities and the other gates
    # use default_grid, so a grid parameter belongs only to the functions
    # that the CLI's --grid reaches
    src = Path(importlib.import_module("stieltjesmp").__file__).parent
    takers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs]
                if "grid" in names:
                    takers.add(f"{path.stem}.{node.name}")
    assert takers == {"cli._samples", "pairs.grid_values", "pairs.verify_pair",
                      "lft.lft_rational", "solver.solve", "solver._solve"}
