"""Seeded inputs and one operation per input for each workload.

Every input is generated from the workload seed: moments of seeded
discrete measures on [alpha, inf) and a parameter pair suited to the
degeneracy case the measure was built for.  The program only ever sees the
generated moments and pairs.  The stages are looked up as module
attributes at call time, so the tracer's wrappers see every call.

Why these workloads (each stresses a different layer):

* ``qcliff`` -- q in {3, 4, 5}, small m: the synthesis layers
  (det/adjugate/``RationalMatFun.simplify``) dominate.  Matrix-fraction
  solutions should show their gain here.
* ``longseq`` -- q in {1, 2}, m in 4..8, all three degeneracy cases: the
  Hankel/Schur/resolvent/pinv/verification layers dominate, and today's
  correctness defects at large m live here.  Failed ops are counted and
  ledgered, never dropped or re-seeded.
* ``cli`` -- small problems through ``stieltjesmp.cli.main`` in process:
  argument parsing, JSON reading and deterministic output are real work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time

import numpy as np

from stieltjesmp import cli, hankel, measures, serialize, solver
from stieltjesmp.pairs import RationalMatFun, StieltjesPair
from stieltjesmp.respoly import MatrixPolynomial

WORKLOADS = ("qcliff", "longseq", "cli")
# One batch: one fresh instance per slot.  simplify makes op times at
# (3, 3) and above broad or bimodal, so a median taken among them moves
# by a quarter from run to run.  Five (3, 1) below and the five heavy
# slots above centre the medians (op and per stage) on the five (3, 2),
# whose times are tight; the heavy slots still take ~90 % of op time
# and set the tail; see NOTES.md.
QCLIFF_SLOTS = ((3, 1),) * 5 + ((3, 2),) * 5 + ((3, 3), (4, 1), (4, 2),
                                                (4, 3), (5, 1))
LONGSEQ_Q = (1, 2)
LONGSEQ_M = (4, 5, 6, 7, 8)
CLI_SHAPES = ((1, 1), (1, 2), (2, 2), (2, 3))
CLI_INSTANCES = 8
# Batches of fresh instances in a run's pool: 180 qcliff and 400 longseq
# inputs, about 30 s and 20 s a pass on 2 vCPUs, so that the seed moves
# the medians, qcliff's tail and longseq's count of failures little; the
# 192 cli calls take 1.5 s a pass.
POOL_BATCHES = {"qcliff": 12, "longseq": 16}

NONDEG, COMPDEG, PARTDEG = "nondegenerate", "completely_degenerate", \
    "partially_degenerate"


class Problem:
    """One generated input: a measure's moments plus a parameter pair."""

    def __init__(self, workload, seed, batch, index, q, m, case, mode, mu,
                 seq, pair, embedded=False):
        self.workload = workload
        self.seed = seed
        self.batch = batch
        self.index = index
        self.q, self.m, self.case, self.mode = q, m, case, mode
        self.mu, self.seq, self.pair = mu, seq, pair
        self.embedded = embedded
        self.command = None      # cli: subcommand name
        self.argv = None         # cli: argument list

    def describe(self) -> dict:
        out = {"workload": self.workload, "seed": self.seed,
               "batch": self.batch, "index": self.index, "q": self.q,
               "m": self.m,
               "case": self.case, "mode": self.mode}
        if self.command is not None:
            out["command"] = self.command
        return out


def _rng(seed: int, workload: str, k: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), k])


def _psd(rng, q, rank=None):
    r = q if rank is None else rank
    b = rng.normal(size=(q, r)) + 1j * rng.normal(size=(q, r))
    return b @ b.conj().T


def _nodes(rng, alpha, k):
    return tuple(float(x) for x in np.sort(alpha + rng.uniform(0.3, 8.0, k)))


def _nondegenerate(rng, alpha, q, m):
    """m+1 atoms with positive definite weights: top entry has full rank."""
    nodes = _nodes(rng, alpha, m + 1)
    weights = tuple(_psd(rng, q) + 0.05 * np.eye(q) for _ in nodes)
    return measures.DiscreteMeasure(alpha, nodes, weights)


def _completely_degenerate(rng, alpha, q):
    """One atom: for m >= 2 the top diagonal entry vanishes."""
    return measures.DiscreteMeasure(
        alpha, _nodes(rng, alpha, 1), (_psd(rng, q) + 0.05 * np.eye(q),))


def _partially_degenerate(rng, alpha, m):
    """q = 2: m+1 atoms along one direction, one atom along another, so
    the top diagonal entry has rank 1."""
    t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v, u = t[:, :1], t[:, 1:]
    many = _nodes(rng, alpha, m + 1)
    one = _nodes(rng, alpha, 1)
    weights = tuple(rng.uniform(0.5, 2.0) * (v @ v.conj().T) for _ in many)
    return measures.DiscreteMeasure(alpha, many + one,
                                    weights + (u @ u.conj().T,))


def cauchy_pair(rng, alpha, q) -> StieltjesPair:
    """(C / (t - z), I) with t > alpha and C positive definite: admissible
    and decaying, so it serves both the leq and the eq problem."""
    c = _psd(rng, q) + 0.5 * np.eye(q)
    c = c / np.linalg.norm(c, 2)
    t = alpha + rng.uniform(0.5, 2.0)
    phi = RationalMatFun(MatrixPolynomial.constant(c), (t, -1.0))
    return StieltjesPair(alpha, phi, RationalMatFun.const(np.eye(q)))


def identity_pair(alpha, q) -> StieltjesPair:
    """(O, I): the parameter of the completely degenerate case."""
    return StieltjesPair(alpha, RationalMatFun.zero(q),
                         RationalMatFun.const(np.eye(q)))


def qcliff_batch(seed: int, k: int) -> list:
    rng = _rng(seed, "qcliff", k)
    out = []
    for i, (q, m) in enumerate(QCLIFF_SLOTS):
        alpha = float(rng.uniform(-1.0, 1.0))
        mu = _nondegenerate(rng, alpha, q, m)
        out.append(Problem("qcliff", seed, k, i, q, m, NONDEG,
                           ("leq", "eq")[(i + k) % 2], mu,
                           measures.moments(mu, m),
                           cauchy_pair(rng, alpha, q)))
    return out


def longseq_batch(seed: int, k: int) -> list:
    rng = _rng(seed, "longseq", k)
    out = []
    for q in LONGSEQ_Q:
        for m in LONGSEQ_M:
            cases = (NONDEG, COMPDEG) if q == 1 else (NONDEG, COMPDEG, PARTDEG)
            for case in cases:
                alpha = float(rng.uniform(-1.0, 1.0))
                embedded = False
                if case == NONDEG:
                    mu = _nondegenerate(rng, alpha, q, m)
                    pair = cauchy_pair(rng, alpha, q)
                elif case == COMPDEG:
                    mu = _completely_degenerate(rng, alpha, q)
                    pair = identity_pair(alpha, q)
                else:
                    mu = _partially_degenerate(rng, alpha, m)
                    pair = cauchy_pair(rng, alpha, 1)
                    embedded = True
                out.append(Problem("longseq", seed, k, len(out), q, m, case,
                                   "leq", mu, measures.moments(mu, m), pair,
                                   embedded))
    return out


def cli_pool(seed: int, workdir: str) -> list:
    """Write each problem's JSON inputs into ``workdir``; one Problem per
    subcommand call, cycling oracle, classify, schur, poly, solve, verify.
    Every pass repeats these calls, so each call's stdout can be compared
    across passes."""
    rng = _rng(seed, "cli")
    out = []
    n = 0
    for _ in range(CLI_INSTANCES):
        for q, m in CLI_SHAPES:
            alpha = float(rng.uniform(-1.0, 1.0))
            mu = _nondegenerate(rng, alpha, q, m)
            seq = measures.moments(mu, m)
            pair = cauchy_pair(rng, alpha, q)
            k = int(rng.integers(1, m + 1))
            base = os.path.join(workdir, f"p{n}")
            n += 1
            # serialize.sequence_to_json rounds alpha like pair_to_json;
            # MomentSequence.to_json does not, and the CLI then refuses
            # the pair ("endpoints differ"), see NOTES.md
            seq_json = serialize.sequence_to_json(alpha, seq.s)
            files = {
                "measure": dict(serialize.measure_to_json(
                    alpha, mu.nodes, mu.weights), m=m),
                "sequence": seq_json,
                "problem": {"sequence": seq_json,
                            "parameter": serialize.pair_to_json(pair),
                            "mode": "leq"},
                "candidate": {"sequence": seq_json,
                              "function": serialize.rational_to_json(
                                  measures.stieltjes_transform(mu)),
                              "mode": "eq"},
            }
            paths = {}
            for key, obj in files.items():
                paths[key] = f"{base}-{key}.json"
                with open(paths[key], "w", encoding="utf-8") as fh:
                    json.dump(obj, fh)
            calls = (
                ("oracle", ["oracle", paths["measure"]]),
                ("classify", ["classify", paths["sequence"]]),
                ("schur", ["schur", paths["sequence"], "-k", str(k),
                           "--trace"]),
                ("poly", ["poly", paths["sequence"]]),
                ("solve", ["solve", paths["problem"]]),
                ("verify", ["verify", paths["candidate"]]),
            )
            for command, argv in calls:
                p = Problem("cli", seed, 0, len(out), q, m, NONDEG, "leq",
                            mu, seq, pair)
                p.command, p.argv = command, argv
                out.append(p)
    return out


def pool(workload: str, seed: int, workdir: str, batches=None) -> list:
    """The run's fixed list of distinct inputs (only the first ``batches``
    of them when given).  A run repeats it in whole passes, so
    ``attempted`` and ``failed`` count each input once and do not depend
    on how many passes the run's time allows."""
    if workload == "cli":
        out = cli_pool(seed, workdir)
    else:
        make = qcliff_batch if workload == "qcliff" else longseq_batch
        out = [p for k in range(batches or POOL_BATCHES[workload])
               for p in make(seed, k)]
    for i, p in enumerate(out):
        p.index = i
    return out


# -- independent check of a returned solution --------------------------

def laurent_moments(fun: RationalMatFun, count: int) -> list:
    """s_0..s_{count-1} from F(z) = -sum_j s_j z^-(j+1), by series division
    of the numerator by the scalar denominator at infinity."""
    den = np.asarray(fun.den, dtype=complex)
    deg = len(den) - 1
    coeffs = fun.num.coeffs
    q = coeffs[0].shape[0]
    zero = np.zeros((q, q), dtype=complex)
    scale = max(float(np.abs(c).max()) for c in coeffs) + 1e-300
    for k in range(deg, len(coeffs)):
        if np.abs(coeffs[k]).max() > 1e-8 * scale:
            raise ValueError("solution is not strictly proper")
    c = []
    for i in range(count):
        k = deg - 1 - i
        acc = coeffs[k].copy() if 0 <= k < len(coeffs) else zero.copy()
        for j in range(1, min(i, deg) + 1):
            acc -= den[deg - j] * c[i - j]
        c.append(acc / den[deg])
    return [-x for x in c]


def check_solution(fun: RationalMatFun, seq, mode: str,
                   rel: float = 1e-4) -> str | None:
    """None when the solution's exact moments match the prescribed ones
    (prefix equal, top equal for eq or not above for leq), else why not.
    ``rel`` is the relative tolerance the package documents for moments
    recovered from a solution (``ToleranceConfig.extraction``)."""
    try:
        got = laurent_moments(fun, seq.m + 1)
    except ValueError as exc:
        return str(exc)
    for j, (a, b) in enumerate(zip(got, seq.s)):
        gap = np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b))
        if j < seq.m or mode == "eq":
            if gap > rel:
                return f"moment {j} off by {gap:.3e}"
        else:
            d = b - a
            low = np.linalg.eigvalsh(0.5 * (d + d.conj().T))[0]
            if low < -rel * (1.0 + np.linalg.norm(b)):
                return f"top moment exceeded by {-low:.3e}"
    return None


# -- operations ---------------------------------------------------------

class Outcome:
    """What one op did: stage times, verdict and, on failure, why.  Times
    are CPU time of the process (``time.process_time``): BLAS runs on one
    thread, so that is the op's whole work, and it leaves out the time the
    op waits for a CPU that other processes on the host hold."""

    __slots__ = ("total", "stages", "completed", "ok", "failure", "wrong",
                 "digest")

    def __init__(self):
        self.total = 0.0
        self.completed = False   # ran to its end without raising
        self.stages = {}
        self.ok = False
        self.failure = None      # dict for the failure ledger
        self.wrong = None        # an ok op whose output is incorrect
        self.digest = None


def _margins(report: dict) -> dict:
    return {k: report[k] for k in ("prefix_gap", "prefix_ok", "top_margin",
                                   "top_ok", "residual")}


def run_library_op(p: Problem) -> Outcome:
    """classify -> solve -> verify_solution, each stage timed."""
    out = Outcome()
    clock = time.process_time
    t0 = clock()
    stage = "classify"
    try:
        hankel.classify(p.seq)
        t1 = clock()
        out.stages["classify"] = t1 - t0
        stage = "solve"
        if p.embedded:
            sol = solver.solve_degenerate_embedded(p.seq, p.pair,
                                                   mode=p.mode)
        else:
            sol = solver.solve(solver.SolutionRequest(p.seq, p.pair, p.mode))
        t2 = clock()
        out.stages["solve"] = t2 - t1
        stage = "verify"
        report = measures.verify_solution(sol, p.seq, p.mode)
        t3 = clock()
        out.stages["verify"] = t3 - t2
    except Exception as exc:  # every raise is a failed op for the ledger
        out.total = clock() - t0
        out.failure = {"stage": stage, "error": type(exc).__name__,
                       "message": str(exc)[:300]}
        return out
    out.total = t3 - t0
    out.completed = True
    out.ok = bool(report["ok"])
    if not out.ok:
        out.failure = {"stage": "verify", "error": "verification ok=False",
                       "margins": _margins(report)}
    else:
        out.wrong = check_solution(sol, p.seq, p.mode)
    return out


def run_cli_op(p: Problem) -> Outcome:
    """One in-process ``cli.main`` call; stdout is captured and hashed."""
    out = Outcome()
    buf, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(p.argv)
    out.total = time.process_time() - t0
    out.completed = True
    out.stages[p.command] = out.total
    text = buf.getvalue()
    out.digest = hashlib.sha256(text.encode()).hexdigest()
    if code != cli.EXIT_OK:
        out.failure = {"stage": p.command, "error": f"exit code {code}",
                       "message": err.getvalue().strip()[:300]}
        return out
    out.ok = True
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        out.wrong = f"stdout is not JSON: {exc}"
        return out
    if p.command == "solve" and not payload["verification_report"]["ok"]:
        out.wrong = "solve exited 0 with a failed verification report"
    return out


def run_op(p: Problem) -> Outcome:
    return run_cli_op(p) if p.workload == "cli" else run_library_op(p)
