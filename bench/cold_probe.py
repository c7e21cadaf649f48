#!/usr/bin/env python3
"""Cold first solve: time the first and second ``solve`` per q in fresh
interpreters, with BLAS pinned to one thread and at its default count.

    python3 bench/cold_probe.py

Each child builds one seeded non-degenerate problem (m = 3, m = 1 at
q = 5), then times solve twice on it and reports both times, the
solution's denominator degree and the process CPU time of the first
call.  A first call much slower than the second, with CPU time close to
its wall time, is work; wall time far above CPU time is waiting.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHAPES = ((1, 3), (2, 3), (3, 3), (4, 3), (5, 1))
REPEATS = 9
SEED = 7


def child(q: int, m: int) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads

    from stieltjesmp import measures, solver

    rng = np.random.default_rng([SEED, q, m])
    mu = workloads._nondegenerate(rng, 0.0, q, m)
    req = solver.SolutionRequest(measures.moments(mu, m),
                                 workloads.cauchy_pair(rng, 0.0, q))
    out = {}
    for key in ("first", "second"):
        c0, t0 = time.process_time(), time.perf_counter()
        sol = solver.solve(req)
        out[key] = time.perf_counter() - t0
        out[key + "_cpu"] = time.process_time() - c0
    out["degree"] = len(sol.den) - 1
    print(json.dumps(out))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(*args.child)
        return 0

    print(f"nproc {len(os.sched_getaffinity(0))}; {REPEATS} fresh "
          "processes per row; times in seconds")
    print("threads   q  m  first(median,max)  second(median)  "
          "first_cpu(median)  degrees")
    for threads in ("1", "default"):
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        if threads == "1":
            env.update({k: "1" for k in THREAD_VARS})
        for q, m in SHAPES:
            rows = []
            for _ in range(REPEATS):
                res = subprocess.run(
                    [sys.executable, __file__, "--child", str(q), str(m)],
                    capture_output=True, text=True, check=True, env=env,
                    timeout=170)
                rows.append(json.loads(res.stdout.strip().splitlines()[-1]))
            first = [r["first"] for r in rows]
            print(f"{threads:8s} {q:2d} {m:2d}  "
                  f"{statistics.median(first):7.3f} {max(first):7.3f}    "
                  f"{statistics.median(r['second'] for r in rows):7.3f}"
                  f"         {statistics.median(r['first_cpu'] for r in rows):7.3f}"
                  f"          {sorted({r['degree'] for r in rows})}")
            slow = [r for r in rows if r["first"] > 3.0 * r["second"]]
            for r in slow:
                print(f"    cold outlier: first {r['first']:.3f} s "
                      f"(cpu {r['first_cpu']:.3f} s), second "
                      f"{r['second']:.3f} s, degree {r['degree']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
