#!/usr/bin/env python3
"""Benchmark of the stieltjesmp pipeline: classify -> solve -> verify.

Run from the root of a source checkout:

    python3 bench/run.py --workload qcliff --seed 1 --seconds 10 --trace 0

One process, one caller, closed loop: the next op starts when the previous
one returns.  A fixed pool of distinct inputs is generated from ``--seed``
(see ``workloads.py``) and run in whole passes for about ``--seconds``.
``attempted`` and ``failed`` count each input once, so they depend on the
seed alone; each later pass must repeat the first pass's verdict on every
input.  An op's time is the CPU time of the process, scaled by a
reference kernel timed next to it (see ``Reference``); an input's time is
the median of its passes, and each timing metric is taken over the
inputs.  BLAS is pinned to one thread before numpy loads: the thread
count changes both the timing of the first solve and how far
``simplify`` reduces degrees, hence the CLI's output bytes.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median of
several fresh interpreters' scaled CPU time to import the package and run
the first op.  ``--trace 1`` measures untraced passes, then the same number of passes
with every layer wrapped, and prints the per-layer metrics (per op) and
the tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object.  Failed ops go to a ledger under
``.bench_out/``, and the traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

SETUP_PROBES = 11
WARMUP_OPS = 6
TAIL_BEYOND = 10
# The reference kernel is timed after every REF_EVERY_S of op time; each
# op's time is scaled by REF_NOMINAL_S / that reference time.
REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.25

END_TO_END = (
    ("setup_s", "s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
    ("ok_ops_per_s", "1/s"), ("classify_s.p50", "s"), ("solve_s.p50", "s"),
    ("verify_s.p50", "s"), ("peak_rss_mb", "MB"),
)
# on cli, the entry points are the subcommands of the same names
ENTRY_POINTS = ("classify", "solve", "verify")


def _import_package():
    import stieltjesmp

    src = (ROOT / "src").resolve()
    if Path(stieltjesmp.__file__).resolve().parent.parent != src:
        sys.exit(f"stieltjesmp imported from {stieltjesmp.__file__}, "
                 f"not from {src}")
    return stieltjesmp


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": dict(THREAD_PIN),
    }


# -- measuring ----------------------------------------------------------

class Reference:
    """A fixed kernel that uses no stieltjesmp code: small complex SVDs,
    eigenvalues, pseudo-inverses and products, and a dict loop, as the
    pipeline does.  The host this was tuned on runs the same code up to a
    third slower for seconds to minutes at a time; the kernel, timed
    between ops, measures how fast the machine runs right then."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(1707)
        self.np = np
        self.mats = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                     for n in (2, 4, 6, 8)]
        self.herm = [m @ m.conj().T for m in self.mats]

    def time(self) -> float:
        """CPU time of one run of the kernel (about REF_NOMINAL_S)."""
        linalg = self.np.linalg
        t0 = time.process_time()
        acc = 0.0
        for _ in range(8):
            for m, h in zip(self.mats, self.herm):
                acc += linalg.svd(m, compute_uv=False)[0]
                acc += linalg.eigvalsh(h)[-1]
                acc += abs(linalg.pinv(m)[0, 0])
                acc += abs((m @ h).trace())
            d = {}
            for i in range(200):
                d[i % 17] = d.get(i % 17, 0) + i
            acc += sum(d.values())
        t = time.process_time() - t0
        if not math.isfinite(acc):
            raise RuntimeError("reference kernel result is not finite")
        return t


class Run:
    """Times kept from whole passes over the pool: per input, the time of
    each pass, whole op and per entry point, scaled to the reference speed.
    The pool is fixed, so what the run holds grows by a few bytes a timed
    op and ``peak_rss_mb`` stays the program's."""

    def __init__(self, size):
        self.passes = 0
        self.executed = 0
        self.op_time = 0.0       # summed CPU time of every op, unscaled
        self.wall = 0.0          # loop time
        self.times = [array("d") for _ in range(size)]
        self.stages = {name: [array("d") for _ in range(size)]
                       for name in ENTRY_POINTS}
        self.refs = array("d")
        self._pending = []       # (index, total, stages) since last reference
        self.pending_s = 0.0

    def add(self, p, o):
        self.executed += 1
        self.op_time += o.total
        self._pending.append((p.index, o.total, o.stages))
        self.pending_s += o.total

    def calibrate(self, ref_s):
        """Scale the ops since the last reference by this reference time."""
        self.refs.append(ref_s)
        k = REF_NOMINAL_S / ref_s
        for i, total, stages in self._pending:
            self.times[i].append(total * k)
            for name, t in stages.items():
                if name in self.stages:
                    self.stages[name][i].append(t * k)
        self._pending.clear()
        self.pending_s = 0.0


def measure(pool, op, ledger, ref, seconds=None, passes=None,
            on_pass=None) -> Run:
    """Whole passes over ``pool``: ``passes`` of them, or as many as bring
    the loop time closest to ``seconds`` (at least one).  The reference
    kernel runs after every REF_EVERY_S of op time and after each pass."""
    run = Run(len(pool))
    while True:
        if on_pass is not None:
            on_pass(run.passes)
        t0 = time.perf_counter()
        for p in pool:
            o = op(p)
            run.add(p, o)
            ledger.record(p, o)
            if run.pending_s >= REF_EVERY_S:
                run.calibrate(ref.time())
        run.calibrate(ref.time())
        run.wall += time.perf_counter() - t0
        run.passes += 1
        if passes is not None:
            if run.passes >= passes:
                break
        elif run.wall + 0.5 * run.wall / run.passes >= seconds:
            break
    return run


def tail(values):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND samples above it, by nearest rank; the maximum when there
    are too few samples for that."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100, xs[-1]
    pct = math.floor(100.0 * (1.0 - TAIL_BEYOND / n))
    rank = max(1, math.ceil(pct / 100.0 * n))
    return pct, xs[rank - 1]


def median(values):
    return float(statistics.median(values)) if values else float("nan")


def setup_probe(workload, seed):
    """Child side of setup_s: import, build inputs (not counted), run the
    first op, report the CPU time this process has used, input
    generation left out, scaled to the reference speed."""
    _import_package()
    import workloads

    t_gen = time.process_time()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        first = workloads.pool(workload, seed, tmp, batches=1)[0]
        gen_s = time.process_time() - t_gen
        workloads.run_op(first)
        done = time.process_time()
    ref = Reference()
    ref_s = median([ref.time() for _ in range(3)])
    print(json.dumps({"setup_s": (done - gen_s) * REF_NOMINAL_S / ref_s}))


def setup_times(workload, seed) -> list:
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(seed), "--setup-probe"]
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True, cwd=ROOT)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def invoke(workload, seed, seconds, trace) -> tuple:
    """Run this benchmark in a child process: (report lines, result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         cwd=ROOT, timeout=175)
    lines = res.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


# -- reporting ----------------------------------------------------------

class Ledger:
    """Checks each op as it ends.  The first execution of an input sets its
    verdict, and a failed one goes to the ledger file at once.  A later
    execution with another verdict, an op that claims success with
    incorrect output, or a CLI call whose stdout changes between passes
    makes the run incorrect."""

    def __init__(self, fh):
        self.fh = fh
        self.groups = {}
        self.wrong = []
        self.verdicts = {}       # pool index -> (completed, ok, failure)
        self.digests = {}        # cli: pool index -> stdout digest

    def record(self, p, o):
        failure = None if o.failure is None else (o.failure["stage"],
                                                  o.failure["error"])
        verdict = (o.completed, o.ok and o.wrong is None, failure)
        first = self.verdicts.get(p.index)
        if first is None:
            self.verdicts[p.index] = verdict
            if o.failure is not None:
                rec = dict(p.describe(), **o.failure)
                self.fh.write(json.dumps(rec, default=str) + "\n")
                key = (p.q, p.m, p.case, p.command or "") + failure
                self.groups[key] = self.groups.get(key, 0) + 1
            if o.wrong is not None:
                self.wrong.append(dict(p.describe(), why=o.wrong))
        elif first != verdict:
            self.wrong.append(dict(p.describe(),
                                   why=f"verdict {verdict} differs from "
                                       f"the first pass's {first}"))
        if o.digest is not None:
            first = self.digests.setdefault(p.index, o.digest)
            if first != o.digest:
                self.wrong.append(dict(p.describe(),
                                       why="stdout differs between passes"))

    @property
    def failed(self) -> int:
        return sum(v[2] is not None for v in self.verdicts.values())

    def report(self, attempted):
        """Summarize the ledger, with the cli digest."""
        print(f"ledger: {sum(self.groups.values())} failed of "
              f"{attempted} inputs "
              f"-> {Path(self.fh.name).relative_to(ROOT)}")
        for (q, m, case, command, stage, error), count in sorted(
                self.groups.items()):
            print(f"  failed x{count}: q={q} m={m} {case} {command} "
                  f"at {stage}: {error}")
        for rec in self.wrong:
            print("  WRONG OUTPUT:", json.dumps(rec, default=str))
        if self.digests:
            joined = "".join(self.digests[k]
                             for k in sorted(self.digests)).encode()
            print(f"cli stdout digest: {hashlib.sha256(joined).hexdigest()}"
                  f" over {len(self.digests)} calls")


def end_to_end(run, ledger, setup) -> tuple:
    import resource

    verdicts = ledger.verdicts
    per_input = [median(ts) for ts in run.times]
    totals = [per_input[i] for i, v in verdicts.items() if v[0]]
    pct, tail_v = tail(totals)
    values = {
        "setup_s": median(setup),
        "op_s.p50": median(totals),
        "op_s.tail": tail_v,
        "ok_ops_per_s": sum(v[1] for v in verdicts.values()) / sum(per_input),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in ENTRY_POINTS:
        values[f"{name}_s.p50"] = median(
            [median(ts) for ts in run.stages[name] if ts])
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    beyond = len(totals) - math.ceil(pct / 100 * len(totals))
    notes = {"op_s.tail": f"p{pct} of {len(totals)} completed inputs "
                          f"({beyond} beyond)",
             "setup_s": f"median of {len(setup)} fresh interpreters: "
                        + ", ".join(f"{x:.4f}" for x in setup)}
    return metrics, notes


def per_layer(tracer, traced, untraced, ledger) -> dict:
    """name -> (value, unit); counts and times are per traced op."""
    from tracing import layer_names

    n = traced.executed
    op_time = traced.op_time
    st = tracer.stats
    out = {}
    for name in layer_names():
        s = st[name]
        out[f"{name}.calls"] = (s.calls / n, "calls/op")
        out[f"{name}.s"] = (s.incl / n, "s/op")
        out[f"{name}.self_s"] = (s.self_s / n, "s/op")
    simp = st["pairs.simplify"]
    solve = st["solver.solve"]
    ver = st["measures.verify_solution"]
    # both runs cover the same passes, so their mean op times pair up;
    # scaled times, so that the machine's speed between them cancels
    mean_t, mean_u = (sum(sum(ts) for ts in r.times) / r.executed
                      for r in (traced, untraced))
    out.update({
        "pairs.simplify.share": (100.0 * simp.incl / op_time, "%"),
        "pairs.simplify.degree_in": (simp.deg_in / max(simp.calls, 1),
                                     "deg"),
        "pairs.simplify.degree_out": (simp.deg_out / max(simp.calls, 1),
                                      "deg"),
        "solver.solution_degree": (
            solve.deg_out / max(solve.calls - solve.errors, 1), "deg"),
        "solver.solve.errors": (solve.errors / n, "errors/op"),
        "matcore.hermitize.errors": (st["matcore.hermitize"].errors / n,
                                     "errors/op"),
        "measures.verify_ok_ratio": (ver.ok / max(ver.calls, 1), "ratio"),
        "fail_ratio": (ledger.failed / len(ledger.verdicts), "ratio"),
        "trace.overhead_s": (mean_t - mean_u, "s/op"),
        "trace.overhead_pct": (100.0 * (mean_t - mean_u) / mean_u, "%"),
        "trace.spans": (tracer.span_count / n, "spans/op"),
    })
    return out


def write_spans(tracer, workload, seed) -> Path:
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    keys = ("id", "name", "start", "end", "parent", "op")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([dict(zip(keys, s)) for s in tracer.spans], fh)
    return path


def main(argv=None) -> int:
    _import_package()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    print("machine:", json.dumps(machine_facts()))
    print(f"workload: {args.workload} seed {args.seed}, closed loop, "
          "1 caller, whole passes over a fixed pool")
    ledger_path = OUT_DIR / f"ledger-{args.workload}-seed{args.seed}.jsonl"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp, \
            open(ledger_path, "w", encoding="utf-8") as fh:
        ledger = Ledger(fh)
        pool = workloads.pool(args.workload, args.seed, tmp)
        setup = [] if args.trace else setup_times(args.workload, args.seed)
        ref = Reference()
        for p in pool[:WARMUP_OPS]:
            workloads.run_op(p)
            ref.time()
        if args.trace:
            from tracing import Tracer

            untraced = measure(pool, workloads.run_op, ledger, ref,
                               seconds=args.seconds / 2.0)
            tracer = Tracer()
            passno = [0]

            def on_pass(k):
                passno[0] = k
                tracer.keep_spans = k == 0

            def traced_op(p):
                tracer.op_id = (passno[0], p.index)
                return workloads.run_op(p)

            tracer.install()
            try:
                traced = measure(pool, traced_op, ledger, ref,
                                 passes=untraced.passes, on_pass=on_pass)
            finally:
                tracer.uninstall()
        else:
            run = measure(pool, workloads.run_op, ledger, ref,
                          seconds=args.seconds)
        attempted = len(pool)
        failed = ledger.failed
        ledger.report(attempted)

    if args.trace:
        metrics = per_layer(tracer, traced, untraced, ledger)
        spans = write_spans(tracer, args.workload, args.seed)
        print(f"traced {traced.passes} pass(es), {traced.executed} ops; "
              f"spans of the first pass -> {spans.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(run, ledger, setup)
        print(f"measured {run.passes} pass(es) over {attempted} inputs, "
              f"{run.executed} ops in {run.wall:.3f} s "
              f"({run.op_time:.3f} s in ops)")
        print(f"fail_ratio = {failed / attempted} ({failed} of {attempted} "
              "inputs)")
        refs = sorted(run.refs)
        print(f"reference kernel: median {median(refs) * 1e3:.3f} ms "
              f"(p10 {refs[len(refs) // 10] * 1e3:.3f}, p90 "
              f"{refs[9 * len(refs) // 10] * 1e3:.3f}) over {len(refs)} "
              f"timings; times below are scaled to "
              f"{REF_NOMINAL_S * 1e3:g} ms")
        for key, note in notes.items():
            print(f"{key}: {note}")
    for key, (val, unit) in metrics.items():
        print(f"{key} = {val} {unit}")
    result = {
        "correct": not ledger.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
