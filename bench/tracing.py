"""Spans and counters around the public functions of ``stieltjesmp``.

A :class:`Tracer` replaces each named function by a wrapper at every place
that looks it up: the defining module, every package module that imported
it by name (``solver.classify``, ``cli.dumps`` ...), and the class for
methods (``RationalMatFun.simplify``).  Each call records a span (name,
start, end, parent, op id) and adds to per-name counters.  Self time is the
span's duration minus the time its child spans cover; inclusive time counts
only the outermost span of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "stieltjesmp"
# span name -> (module, attribute); attribute "Class.method" wraps a method.
TARGETS = {
    "pairs.simplify": ("pairs", "RationalMatFun.simplify"),
    "respoly.det_poly": ("respoly", "det_poly"),
    "respoly.adjugate_poly": ("respoly", "adjugate_poly"),
    "respoly.compose_resolvent": ("respoly", "compose_resolvent"),
    "lft.lft_pair": ("lft", "lft_pair"),
    "schur.transform_trace": ("schur", "transform_trace"),
    "schur.first_transform": ("schur", "first_transform"),
    "hankel.classify": ("hankel", "classify"),
    "hankel.build_stack": ("hankel", "build_stack"),
    "matcore.pinv": ("matcore", "pinv"),
    "matcore.hermitize": ("matcore", "hermitize"),
    "matcore.psd_margin": ("matcore", "psd_margin"),
    "matcore.rank_with_tol": ("matcore", "rank_with_tol"),
    "solver.case_of": ("solver", "case_of"),
    "solver.solve": ("solver", "solve"),
    "measures.verify_solution": ("measures", "verify_solution"),
    "measures.extract_moments": ("measures", "extract_moments"),
    "serialize.dumps": ("serialize", "dumps"),
    "serialize.from_json": ("serialize", "sequence_from_json"),
    "serialize.from_json#pair": ("serialize", "pair_from_json"),
    "serialize.from_json#rational": ("serialize", "rational_from_json"),
    "serialize.from_json#matrix": ("serialize", "matrix_from_json"),
    "serialize.from_json#measure": ("serialize", "measure_from_json"),
    "cli.build_parser": ("cli", "build_parser"),
    "cli.main": ("cli", "main"),
}


def layer_names() -> list:
    """Span names as reported (aliases after '#' fold into one name)."""
    return sorted({name.split("#")[0] for name in TARGETS})


class Stats:
    __slots__ = ("calls", "errors", "incl", "self_s", "depth",
                 "deg_in", "deg_out", "ok")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.deg_in = 0
        self.deg_out = 0
        self.ok = 0


def _degree(fun) -> int:
    return len(fun.den) - 1


class Tracer:
    """Installs wrappers, keeps spans of a bounded window in memory."""

    def __init__(self):
        self.stats = {name: Stats() for name in layer_names()}
        self.spans = []          # (id, name, start, end, parent id, op id)
        self.keep_spans = False
        self.span_count = 0
        self.op_id = None
        self._stack = []         # [span id, child time] per open span
        self._originals = []

    # -- installation -------------------------------------------------
    def install(self):
        for modname, _ in TARGETS.values():
            importlib.import_module(f"{PACKAGE}.{modname}")
        mods = {n: m for n, m in sys.modules.items()
                if n == PACKAGE or n.startswith(PACKAGE + ".")}
        for name, (modname, attr) in TARGETS.items():
            mod = mods[f"{PACKAGE}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name.split("#")[0], orig))
                self._originals.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name.split("#")[0], orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._originals.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._originals):
            setattr(owner, key, orig)
        self._originals.clear()

    def _wrap(self, name, fn):
        st_of = self.stats
        stack = self._stack
        clock = time.process_time
        track_degree = name in ("pairs.simplify", "solver.solve")
        track_ok = name == "measures.verify_solution"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = st_of[name]
            st.calls += 1
            st.depth += 1
            self.span_count += 1
            sid = self.span_count
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                st.depth -= 1
                if st.depth == 0:
                    st.incl += dur
                if self.keep_spans:
                    self.spans.append((sid, name, t0, t1, parent, self.op_id))
            if track_degree:
                if name == "pairs.simplify":
                    st.deg_in += _degree(args[0])
                st.deg_out += _degree(out)
            if track_ok and out.get("ok"):
                st.ok += 1
            return out

        return wrapper
