"""JSON-in / JSON-out command line front end.

Subcommands: classify, schur, poly, solve, verify, oracle.  Inputs are
files holding the JSON layouts from :mod:`stieltjesmp.serialize`; output
is deterministic JSON on stdout (sorted keys, floats at a fixed number
of significant digits) so runs can be golden-file tested.  Each float is
rounded once, by ``dumps`` as it writes it; the layouts are exact.
``--grid`` points and ``--tol`` values must be finite.  Only ``solve``
and ``oracle``, which print sampled values, take ``--grid``, and it sets
those samples alone: every gate of ``solve`` reads
``pairs.default_grid``.  Each subcommand's parser is built once per
process, when a call first names it, and holds only that subcommand
(the full parser, of all six, serves calls that name none), so help and
usage errors print as they would from the full parser.  ``main`` alone
resolves ``--tol``, ``--grid`` and ``--digits`` (in that order, before
the file is opened; ``--digits`` runs from 1 to 2**31 - 1), reads the
file and prints: a handler maps (JSON, args) to (payload, exit code).

Exit codes: 0 success, 2 parse/usage error, 3 precondition violation,
4 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import sys

import numpy as np

from . import measures, pairs, respoly, schur, serialize, solver
from .hankel import classify
from .matcore import (
    DEFAULT_TOL,
    GrowthError,
    InconsistencyError,
    PreconditionError,
    SingularDenominatorError,
    ToleranceConfig,
)
from .measures import DiscreteMeasure
from .serialize import dumps

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4


def _parse_tol(items) -> ToleranceConfig:
    overrides = {}
    names = {f.name for f in dataclasses.fields(ToleranceConfig)}
    for item in items or ():
        name, eq, value = item.partition("=")
        if not eq or name not in names:
            raise ValueError(
                f"bad --tol entry {item!r}; expected name=value with name in "
                f"{sorted(names)}")
        overrides[name] = float(value)
    return dataclasses.replace(DEFAULT_TOL, **overrides)


def _parse_grid(text: str | None):
    if text is None:
        return None
    parts = [part.strip() for part in text.split(",") if part.strip()]
    # only a trailing i is the imaginary unit: "inf" and "nan" keep theirs
    points = tuple(complex(p[:-1] + "j" if p.endswith("i") else p)
                   for p in parts)
    if not points:
        raise ValueError("--grid must name at least one point")
    if not all(map(cmath.isfinite, points)):
        raise ValueError("--grid points must be finite")
    return points


def _samples(fun, grid) -> list:
    zs, (values,) = pairs.grid_values((fun,), grid)
    return serialize.samples_to_json(zs, values)


def cmd_classify(obj, args) -> tuple:
    seq = serialize.sequence_from_json(obj, args.tol)
    return serialize.report_to_json(classify(seq, args.tol)), EXIT_OK


def cmd_schur(obj, args) -> tuple:
    seq = serialize.sequence_from_json(obj, args.tol)
    if args.k < 0 or args.k > seq.m:
        raise PreconditionError(
            f"transform order k={args.k} out of range 0..{seq.m}")
    trace = schur.transform_trace(seq, args.tol)
    payload = {"k": args.k, "sequence": serialize.sequence_to_json(
        seq.alpha, trace.stages[args.k])}
    if args.trace:
        payload["trace"] = serialize.trace_to_json(trace)
    return payload, EXIT_OK


def cmd_poly(obj, args) -> tuple:
    seq = serialize.sequence_from_json(obj, args.tol)
    v, w = respoly.compose_resolvent(schur.transform_trace(seq, args.tol))
    return {"q": seq.q, "m": seq.m, "v": serialize.blocks_to_json(v),
            "w": serialize.blocks_to_json(w)}, EXIT_OK


def cmd_solve(obj, args) -> tuple:
    seq = serialize.sequence_from_json(obj["sequence"], args.tol)
    parameter = serialize.pair_from_json(obj["parameter"])
    mode = args.mode or obj.get("mode", "leq")
    sol = solver.solve(solver.SolutionRequest(seq, parameter, mode), args.tol)
    tag, rank, _ = solver.case_of(seq, args.tol)
    report = measures.verify_solution(sol, seq, mode, args.tol)
    payload = {
        "case": tag,
        "rank": rank,
        "rational_function": serialize.rational_to_json(sol),
        "samples": _samples(sol, args.grid or pairs.default_grid(seq.alpha)),
        "verification_report": serialize.verification_to_json(report),
    }
    return payload, EXIT_OK if report["ok"] else EXIT_VERIFICATION


def cmd_verify(obj, args) -> tuple:
    seq = serialize.sequence_from_json(obj["sequence"], args.tol)
    fun = serialize.rational_from_json(obj["function"])
    mode = args.mode or obj.get("mode", "leq")
    report = measures.verify_solution(fun, seq, mode, args.tol)
    return (serialize.verification_to_json(report),
            EXIT_OK if report["ok"] else EXIT_VERIFICATION)


def _random_measure(spec: dict) -> DiscreteMeasure:
    rng = np.random.default_rng(spec.get("seed") or 0)
    q = int(spec["q"])
    atoms = int(spec.get("atoms", spec.get("m", 1) + 1))
    if q < 1 or atoms < 1:
        raise ValueError("a random measure needs q >= 1 and atoms >= 1")
    alpha = float(spec.get("alpha", 0.0))
    nodes = np.sort(alpha + rng.uniform(0.3, 8.0, size=atoms))
    weights = []
    for _ in range(atoms):
        b = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        weights.append(b @ b.conj().T + 0.05 * np.eye(q))
    return DiscreteMeasure(alpha, tuple(float(x) for x in nodes),
                           tuple(weights))


def cmd_oracle(spec, args) -> tuple:
    if "atoms" in spec and isinstance(spec["atoms"], list):
        mu = serialize.measure_from_json(spec, args.tol)
        m = int(spec.get("m", max(2 * (len(mu.nodes) - 1), 0)))
    else:
        mu = _random_measure(spec)
        m = int(spec.get("m", 1))
    seq = measures.moments(mu, m)
    fun = measures.stieltjes_transform(mu)
    payload = {
        "measure": serialize.measure_to_json(mu.alpha, mu.nodes, mu.weights),
        "sequence": serialize.sequence_to_json(seq.alpha, seq.s),
        "classification": serialize.report_to_json(classify(seq, args.tol)),
        "transform": serialize.rational_to_json(fun),
        "samples": _samples(fun, args.grid or pairs.default_grid(mu.alpha)),
    }
    return payload, EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a tolerance field (repeatable)")
    p.add_argument("--digits", type=int, default=15,
                   help="significant digits in output floats")


_MODE = (("--mode",), {"choices": ("leq", "eq")})
_GRID = (("--grid",), {"help": "comma-separated complex grid points"})

# subcommand -> (handler, help, arguments between path and the common ones)
_COMMANDS = {
    "classify": (cmd_classify, "cone membership report for a sequence", ()),
    "schur": (cmd_schur, "k-th algorithm transform of a sequence", (
        (("-k",), {"type": int, "default": 1, "help": "transform order"}),
        (("--trace",), {"action": "store_true",
                        "help": "include all stages and the diagonal"}))),
    "poly": (cmd_poly, "resolvent matrix polynomials of a sequence", ()),
    "solve": (cmd_solve, "solve for a parameter pair and verify",
              (_MODE, _GRID)),
    "verify": (cmd_verify, "check a rational function against moments",
               (_MODE,)),
    "oracle": (cmd_oracle, "measure fixture: moments and transform",
               (_GRID,)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of subcommand ``command``, or the full one where it names
    none; shared by every call in the process, so callers must not mutate
    it.  The key is resolved first, so at most seven parsers exist."""
    return _parser(command if command in _COMMANDS else None)


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stieltjesmp",
        description="Truncated half-axis matrix moment problems: classify, "
                    "transform, build resolvents, solve, verify.")
    names = (command,) if command in _COMMANDS else tuple(_COMMANDS)
    # one subparser would shrink the usage line to its own name; the
    # metavar keeps it, and only a full parser names "argument command"
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in names:
        func, help_text, extras = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path")
        for flags, options in extras:
            p.add_argument(*flags, **options)
        _add_common(p)
        # args.grid is None where the subcommand offers no --grid
        p.set_defaults(func=func, grid=None)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    try:
        args.tol = _parse_tol(args.tol)
        args.grid = _parse_grid(args.grid)
        if args.digits < 1:
            raise PreconditionError("digits must be at least 1")
        if args.digits >= 2 ** 31:  # sig's "%.*g" takes a C int
            raise PreconditionError("digits must be at most 2147483647")
        with open(args.path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("the input must be a JSON object")
        payload, code = args.func(obj, args)
        print(dumps(payload, args.digits))
        return code
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (SingularDenominatorError, GrowthError, InconsistencyError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except json.JSONDecodeError as exc:
        print(f"parse error at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
