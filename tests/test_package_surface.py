"""The public surface of each module: every name in ``__all__`` resolves,
a star import works and something reads it, every tolerance field and
command-line option is read somewhere, the package imports form no cycle,
and the value types compare by identity."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from stieltjesmp import cli, schur
from stieltjesmp.hankel import MomentSequence, build_stack
from stieltjesmp.matcore import ToleranceConfig
from stieltjesmp.measures import DiscreteMeasure
from stieltjesmp.pairs import RationalMatFun, StieltjesPair
from stieltjesmp.schur import transform_trace
from stieltjesmp.solver import SolutionRequest

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


def _package_trees() -> dict:
    """Module name -> its parsed source, for every module of the package."""
    src = Path(importlib.import_module("stieltjesmp").__file__).parent
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(src.glob("*.py"))}


def _threshold_table(matcore_tree) -> dict:
    """matcore's table of fixed thresholds: name -> the literal of each
    top-level ``NAME = <float>`` assignment."""
    return {stmt.targets[0].id: stmt.value for stmt in matcore_tree.body
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id.isupper()
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, float)}


def test_every_small_threshold_is_named_in_the_table():
    # a fixed threshold is a name in matcore's table, beside ToleranceConfig:
    # no float literal below 1e-3 appears anywhere else in the package than
    # there and in the config's defaults, and no other module assigns a
    # table name
    trees = _package_trees()
    table = _threshold_table(trees["matcore"])
    config = next(node for node in trees["matcore"].body
                  if isinstance(node, ast.ClassDef)
                  and node.name == "ToleranceConfig")
    named = {id(value) for value in table.values()}
    named |= {id(stmt.value) for stmt in config.body
              if isinstance(stmt, ast.AnnAssign)}
    stray = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < abs(node.value) < 1e-3
                    and id(node) not in named):
                stray.append(f"{module}:{node.lineno}: {node.value!r}")
            elif (module != "matcore" and isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store) and node.id in table):
                stray.append(f"{module}:{node.lineno}: {node.id} =")
    assert table and not stray, stray


def test_every_threshold_in_the_table_is_read():
    # as for the tolerance fields: a table entry that nothing reads outside
    # its own definition is a threshold that decides nothing
    trees = _package_trees()
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    unread = sorted(set(_threshold_table(trees["matcore"])) - read)
    assert not unread, unread


def test_every_cli_option_is_read():
    # likewise an option that a subparser defines and neither its handler
    # nor main reads is one that the CLI parses and then ignores
    unread = []
    for name, (handler, _, _) in cli._COMMANDS.items():
        args = cli.build_parser(name).parse_args([name, "in.json"])
        # the root parser's command and the handler itself are no options
        dests = set(vars(args)) - {"command", "func"}
        text = inspect.getsource(handler) + inspect.getsource(cli.main)
        unread += [f"{name} {dest}" for dest in sorted(dests)
                   if not re.search(rf"\bargs\.{dest}\b", text)]
    assert not unread, unread


def test_only_the_writer_rounds():
    # a float is rounded once, where dumps writes it: sig is called by the
    # writer's two functions and nowhere else in the package
    callers = set()
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                func = call.func if isinstance(call, ast.Call) else None
                if (isinstance(func, ast.Name) and func.id == "sig"
                        or isinstance(func, ast.Attribute)
                        and func.attr == "sig"):
                    callers.add(f"{module}.{node.name}")
    assert callers == {"serialize._write", "serialize._scalar"}, callers


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


def test_serialize_dumps_is_the_one_json_writer():
    # no module writes JSON text through json.dump or json.dumps, and the
    # cli prints on stdout nothing but the text of serialize.dumps
    src = Path(importlib.import_module(PACKAGE).__file__).parent
    writers = []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                writers.append(f"{path.stem}: json.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                writers += [f"{path.stem}: from json import {a.name}"
                            for a in node.names if a.name in ("dump", "dumps")]
    assert not writers, writers
    tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    bound = _bindings(tree, {})
    printed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout":
            printed.append("sys.stdout")
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            continue
        if any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
               for kw in node.keywords):
            continue
        arg = node.args[0] if len(node.args) == 1 and not node.keywords else None
        func = arg.func if isinstance(arg, ast.Call) else None
        if not (isinstance(func, ast.Name)
                and bound.get(func.id) == ("serialize", "dumps")
                or isinstance(func, ast.Attribute) and func.attr == "dumps"
                and isinstance(func.value, ast.Name)
                and bound.get(func.value.id) == "serialize"):
            printed.append(ast.unparse(node))
    assert not printed, printed


def test_matcore_is_the_one_pseudoinverse():
    # every pseudoinverse goes through matcore.pinv, whose bits a test pins
    # to numpy's: no other module calls np.linalg.pinv or imports it
    src = Path(importlib.import_module(PACKAGE).__file__).parent
    callers = []
    for path in src.glob("*.py"):
        if path.stem == "matcore":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "pinv"
                    and ast.unparse(node.value).endswith("linalg")):
                callers.append(f"{path.stem}: {ast.unparse(node)}")
            elif (isinstance(node, ast.ImportFrom)
                    and (node.module or "").endswith("linalg")):
                callers += [f"{path.stem}: from {node.module} import {a.name}"
                            for a in node.names if a.name == "pinv"]
    assert not callers, callers


def test_only_the_scaled_norms_scale_by_powers_of_two():
    # one overflow-safe path: matcore.frobs scales a norm and
    # matcore.frob_at_most a comparison by a power of two; every other
    # norm or asymmetry test goes through them, and nothing imports
    # frexp or ldexp by name
    src = Path(importlib.import_module(PACKAGE).__file__).parent
    callers = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                callers |= {f"{path.stem}: from {node.module} import {a.name}"
                            for a in node.names if a.name in ("frexp", "ldexp")}
            if not isinstance(node, ast.FunctionDef):
                continue
            if any(isinstance(n, ast.Attribute) and n.attr in ("frexp", "ldexp")
                   for n in ast.walk(node)):
                callers.add(f"{path.stem}.{node.name}")
    assert callers == {"matcore.frobs", "matcore.frob_at_most"}, callers


def test_the_scalar_denominator_synthesis_keeps_its_last_callers():
    # the callers that still stand before simplify, lft_rational and
    # in_diamond can be deleted: a new one would have to be removed too.
    # D(z) has one gate, solve's, beside lft_pair's on its one value
    src = Path(importlib.import_module(PACKAGE).__file__).parent
    callers = {"simplify": set(), "lft_rational": set(), "in_diamond": set(),
               "check_denominator": set()}
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(path.stem, node) for node in tree.body]
        scopes += [(f"{path.stem}.{cls.name}", node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for node in cls.body]
        for owner, scope in scopes:
            if not isinstance(scope, ast.FunctionDef):
                continue
            name = f"{owner}.{scope.name}"
            for node in ast.walk(scope):
                func = node.func if isinstance(node, ast.Call) else None
                called = (func.attr if isinstance(func, ast.Attribute) else
                          func.id if isinstance(func, ast.Name) else None)
                if called in callers:
                    callers[called].add(name)
    assert callers == {
        "simplify": {"lft.lft_rational"},
        "lft_rational": {"solver.solve", "solver.schur_stieltjes_transform"},
        "in_diamond": {"solver.solve"},
        "check_denominator": {"lft.lft_pair",
                              "solver._gate_descent_denominator"},
    }, callers


def test_solve_reads_the_mode_once():
    # the atoms of a pair do not depend on the problem: only solve's decay
    # gate asks which problem it solves (read from the source, as a
    # fixture wraps _parameter_atoms)
    tree = ast.parse(_package_source("solver"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    assert [a.arg for a in defs["_parameter_atoms"].args.args] == [
        "pair", "zs", "ph", "tol"]
    reads = [ast.unparse(node) for node in ast.walk(defs["solve"])
             if isinstance(node, ast.Attribute) and node.attr == "mode"]
    assert reads == ["req.mode"]


def test_only_the_transform_writes_the_atoms_slot():
    # a function's atoms are the measure it is the transform of:
    # measures.stieltjes_transform alone sets the slot, by
    # object.__setattr__, setattr or an assignment to ``.atoms``
    writers = set()
    for module, tree in _package_trees().items():
        scopes = [(f"{module}.{node.name}", node) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)]
        for name, scope in scopes:
            for node in ast.walk(scope):
                slot = None
                if isinstance(node, ast.Call) and len(node.args) >= 2:
                    func = node.func
                    called = (func.attr if isinstance(func, ast.Attribute)
                              else func.id if isinstance(func, ast.Name)
                              else None)
                    if called in ("__setattr__", "setattr"):
                        slot = node.args[1]
                        slot = slot.value if isinstance(slot, ast.Constant) else "?"
                elif isinstance(node, ast.Attribute) and not isinstance(
                        node.ctx, ast.Load):
                    slot = node.attr
                if slot in ("atoms", "?"):
                    writers.add(name)
    assert writers == {"measures.stieltjes_transform"}, writers


def test_the_trace_checks_no_stage_again(monkeypatch):
    # the public shift and reciprocal validate their argument; the trace's
    # steps run the same arithmetic on stages already known finite
    calls = []

    def counted(mats, _fn=schur._stacked):
        calls.append(1)
        return _fn(mats)

    monkeypatch.setattr(schur, "_stacked", counted)
    seq = MomentSequence(0.5, tuple(np.diag([k + 2.0, 1.0 / (k + 1)])
                                    for k in range(5)))
    trace = transform_trace(seq)
    assert len(trace.stages) == 5 and not calls
    schur.reciprocal(trace.stages[1])
    schur.alpha_shift(seq.alpha, seq.s)
    assert len(calls) == 2


def test_only_the_cli_grid_reaches_a_grid_parameter():
    # the range conditions are coefficient identities and every gate,
    # verify_pair's and solve's among them, uses default_grid, so a grid
    # parameter belongs only to the functions that the CLI's --grid reaches:
    # the printed samples
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
    assert takers == {"cli._samples", "pairs.grid_values"}


def test_grid_values_is_the_one_scalar_denominator_evaluator():
    # a scalar denominator is evaluated by grid_values' walk alone, with
    # its pole rule and its overflow refusals: no module calls polyval
    src = Path(importlib.import_module(PACKAGE).__file__).parent
    callers = []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", ""))
                if name == "polyval":
                    callers.append(f"{path.stem}: {ast.unparse(node)}")
    assert not callers, callers


def test_no_function_takes_a_parameter_it_never_reads():
    # a parameter that nothing reads is a knob that changes nothing
    src = Path(importlib.import_module("stieltjesmp").__file__).parent
    unread = []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in [*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg] if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = f"{path.stem}.{getattr(node, 'name', 'lambda')}"
            unread += [f"{name}({p})" for p in params if p not in read]
    assert not unread, unread


PACKAGE = "stieltjesmp"


def _defaults(src: Path) -> dict:
    """Callee name -> (positional parameter names, {parameter: its default
    as an AST dump}) for each def of the package with a defaulted parameter
    other than tol; a method drops self, and __init__ is named by its
    class, as ``Class(...)`` calls it."""
    out = {}

    def visit(node, module, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if cls and not static:
                    positional = positional[1:]
                named = [*zip(positional[len(positional) - len(args.defaults):],
                              args.defaults),
                         *((a.arg, d) for a, d in zip(args.kwonlyargs,
                                                      args.kw_defaults) if d)]
                defaults = {name: ast.dump(d) for name, d in named
                            if name != "tol"}
                if defaults:
                    callee = cls if child.name == "__init__" else child.name
                    out.setdefault(callee, []).append(
                        (f"{module}.{child.name}", positional, defaults))
                visit(child, module)

    for path in src.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return out


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a defaulted parameter that no call in the package, the benchmark or
    # the demos sets to another value is an option with one value in use;
    # a call resolves by the callee's name (``Class(...)`` to __init__),
    # and one that passes *args or **kwargs sets every parameter
    src = Path(importlib.import_module(PACKAGE).__file__).parent
    root = src.parent.parent
    defs = _defaults(src)
    unset = {(name, p) for sigs in defs.values() for name, _, defaults in sigs
             for p in defaults}
    files = [*src.glob("*.py"), *(root / "bench").glob("*.py"),
             *(root / "demos").glob("*.py")]
    for path in files:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            callee = (func.id if isinstance(func, ast.Name) else
                      func.attr if isinstance(func, ast.Attribute) else None)
            for name, positional, defaults in defs.get(callee, ()):
                given = [*zip(positional, call.args),
                         *((kw.arg, kw.value) for kw in call.keywords)]
                if any(isinstance(v, ast.Starred) for v in call.args) or any(
                        kw.arg is None for kw in call.keywords):
                    given = [(p, None) for p in defaults]
                unset -= {(name, p) for p, value in given if p in defaults
                          and (value is None
                               or ast.dump(value) != defaults[p])}
    assert not unset, sorted(unset)


def test_a_subcommand_offers_grid_only_if_its_handler_reads_it():
    # an option that a subcommand parses and its handler never reads is
    # accepted and ignored; the parser refuses it instead
    for name, (handler, _, _) in cli._COMMANDS.items():
        _, extra = cli.build_parser(name).parse_known_args(
            [name, "in.json", "--grid", "1"])
        reads = "args.grid" in inspect.getsource(handler)
        assert (not extra) == reads, name


def _imported_module(node: ast.ImportFrom):
    """The package module a ``from ... import`` reads: "lft" for
    ``stieltjesmp.lft`` or ``.lft``, "" for the package itself, None for a
    module outside the package."""
    dotted = node.module or ""
    if node.level:
        return dotted
    if dotted == PACKAGE or dotted.startswith(PACKAGE + "."):
        return dotted[len(PACKAGE) + 1:]
    return None


def _bindings(tree, reexports: dict) -> dict:
    """Local name -> the package module it is bound to ("" for the package)
    or the (module, name) it imports, over every import of ``tree``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == PACKAGE:
                    bound[a.asname or a.name] = ""
                elif a.name.startswith(PACKAGE + ".") and a.asname:
                    bound[a.asname] = a.name[len(PACKAGE) + 1:]
        elif isinstance(node, ast.ImportFrom):
            module = _imported_module(node)
            for a in node.names if module is not None else ():
                if module:
                    target = (module, a.name)
                elif a.name in MODULES:
                    target = a.name
                else:
                    target = reexports.get(a.name)
                bound[a.asname or a.name] = target
    return bound


def _reads(path: Path, reexports: dict) -> list:
    """(name a top-level statement defines or None, the (module, name)
    pairs it reads) for each top-level statement of ``path``.  A read
    counts only when it resolves to a package module: ``module.name``,
    ``stieltjesmp.name`` for a name the package re-exports, a bare name
    imported from the module, or, in the module itself, a bare name it
    defines at top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _bindings(tree, reexports)
    if path.stem in MODULES and path.parent.name == PACKAGE:
        for stmt in tree.body:
            for name in _defined(stmt):
                bound.setdefault(name, (path.stem, name))

    def target(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            module = target(node.value)
            if module == "":
                return node.attr if node.attr in MODULES else reexports.get(node.attr)
            if isinstance(module, str):
                return (module, node.attr)
        return None

    out = []
    for stmt in tree.body:
        names = _defined(stmt)
        read = {target(n) for n in ast.walk(stmt)
                if isinstance(n, (ast.Name, ast.Attribute))
                and isinstance(n.ctx, ast.Load)}
        out.append((names[0] if len(names) == 1 else None,
                    {t for t in read if isinstance(t, tuple)}))
    return out


def _defined(stmt) -> list:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_name_is_used():
    # a name in __all__ that nothing reads outside its own definition, in
    # the package, its tests or its demos, is surface without a caller; a
    # read counts only where it resolves to that module's name, so an
    # unrelated attribute or local of the same spelling keeps nothing alive
    src = Path(importlib.import_module(PACKAGE).__file__).parent
    tests = Path(__file__).resolve().parent
    reexports = {}
    for node in ast.parse((src / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and _imported_module(node):
            for a in node.names:
                reexports[a.asname or a.name] = (_imported_module(node), a.name)
    files = [*src.glob("*.py"), *tests.glob("*.py"),
             *(tests.parent / "demos").glob("*.py")]
    reads = {path: _reads(path, reexports) for path in files}
    unused = []
    for name in MODULES:
        own = src / f"{name}.py"
        for public in importlib.import_module(f"{PACKAGE}.{name}").__all__:
            if not any((name, public) in read for path, stmts in reads.items()
                       for defines, read in stmts
                       if not (path == own and defines == public)):
                unused.append(f"{name}.{public}")
    assert not unused, unused


def test_no_module_reads_another_modules_private_name():
    # a private name is its module's own: another package module reads
    # neither ``module._name`` nor ``from .module import _name``
    src = Path(importlib.import_module(PACKAGE).__file__).parent
    reads = []
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _bindings(tree, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _imported_module(node):
                reads += [f"{path.stem}: from {node.module} import {a.name}"
                          for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and isinstance(bound.get(node.value.id), str)
                  and bound[node.value.id] not in ("", path.stem)
                  and node.attr.startswith("_")):
                reads.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert not reads, reads


def _package_imports(node, scope=""):
    """(scope, package module) for each import of a package module under
    ``node``; scope is the dotted name of the enclosing def or class, "" at
    module level, and ``from . import x`` imports module x."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _package_imports(child, f"{scope}.{child.name}".lstrip("."))
        elif isinstance(child, ast.ImportFrom):
            module = _imported_module(child)
            if module:
                yield scope, module
            elif module == "":
                yield from ((scope, a.name) for a in child.names
                            if a.name in MODULES)
        elif isinstance(child, ast.Import):
            yield from ((scope, a.name[len(PACKAGE) + 1:]) for a in child.names
                        if a.name.startswith(PACKAGE + "."))
        else:
            yield from _package_imports(child, scope)


def _reachable(graph: dict, start: str) -> set:
    """The modules ``start`` reaches along one or more edges of ``graph``."""
    seen, todo = set(), list(graph.get(start, ()))
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return seen


def test_package_imports_form_no_cycle():
    # the module-level imports between package modules form an acyclic
    # graph, so no module needs a function-level import to load; the one
    # left is hankel.classify's schur, the remaining cycle: schur imports
    # hankel, and both hankel.classify and schur.transform_trace are
    # benchmark targets that stay where they are.  The function layer
    # loads no part of the sequence layer.
    src = Path(importlib.import_module(PACKAGE).__file__).parent
    graph, local = {}, set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, module in _package_imports(tree):
            if scope:
                local.add((f"{path.stem}.{scope}", module))
            else:
                graph.setdefault(path.stem, set()).add(module)
    assert local == {("hankel.classify", "schur")}, local
    assert "hankel" in _reachable(graph, "schur")
    for name in ("respoly", "pairs", "lft"):
        assert not {"hankel", "schur"} & _reachable(graph, name), name
    cyclic = sorted(name for name in graph if name in _reachable(graph, name))
    assert not cyclic, cyclic


def test_value_types_compare_by_identity():
    # the value types hold arrays, which a generated == would compare
    # elementwise (raising) and a generated hash could not hash: each
    # compares by identity, == gives a bool, and hash works
    def seq():
        return MomentSequence(0.0, (np.eye(2), np.eye(2)))

    def pair():
        return StieltjesPair(0.0, RationalMatFun.const(np.eye(2)),
                             RationalMatFun.const(np.eye(2)))

    makers = (seq, lambda: build_stack(seq()), lambda: transform_trace(seq()),
              lambda: pair().phi.num, lambda: pair().phi, pair,
              lambda: DiscreteMeasure(0.0, (1.0,), (np.eye(2),)),
              lambda: SolutionRequest(seq(), pair()))
    for make in makers:
        one, twin = make(), make()
        assert (one == one) is True and (one == twin) is False, one
        assert (one != twin) is True, one
        assert hash(one) == hash(one) and isinstance(hash(twin), int), one
