#!/usr/bin/env python3
"""Repeatability checks and the redundancy baseline.

    python3 bench/check.py

1. Runs every workload twice with one seed, traced, one pass each,
   and requires every ``.calls`` counter, and the ``attempted`` and
   ``failed`` counts, to be identical between the two runs; on ``cli``
   it also requires the same stdout digest.
2. Prints the layer call counts of one ``solve(q=2, m=5)``: the named
   redundancy baseline that ROADMAP items 2 and 4 drive down.

Exits 1 if a counter or digest differs.
"""

from __future__ import annotations

import sys

import run  # pins BLAS threads before numpy loads

SEED = 3


def traced_run(workload: str) -> tuple:
    lines, result = run.invoke(workload, SEED, 0, 1)
    digest = next((ln.split()[3] for ln in lines
                   if ln.startswith("cli stdout digest:")), None)
    calls = {k: v["value"] for k, v in result["metrics"].items()
             if k.endswith(".calls")}
    calls.update(attempted=result["attempted"], failed=result["failed"])
    return calls, digest


def redundancy_baseline() -> dict:
    import numpy as np
    import workloads
    from tracing import Tracer

    from stieltjesmp import measures, solver

    rng = np.random.default_rng([SEED, 99])
    mu = workloads._nondegenerate(rng, 0.0, 2, 5)
    seq = measures.moments(mu, 5)
    req = solver.SolutionRequest(seq, workloads.cauchy_pair(rng, 0.0, 2))
    tracer = Tracer()
    tracer.install()
    try:
        solver.solve(req)
    finally:
        tracer.uninstall()
    return {name: tracer.stats[name].calls for name in (
        "schur.transform_trace", "schur.first_transform",
        "hankel.build_stack", "matcore.pinv", "pairs.simplify")}


def main() -> int:
    bad = 0
    for workload in ("qcliff", "longseq", "cli"):
        (c1, d1), (c2, d2) = (traced_run(workload) for _ in range(2))
        diff = sorted(k for k in c1 if c1[k] != c2.get(k))
        if diff or d1 != d2:
            bad += 1
        print(f"{workload}: {len(c1)} counters (.calls, attempted, "
              "failed), "
              f"{'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}"
              + (f"; cli digest {'same' if d1 == d2 else 'DIFFERS'} ({d1})"
                 if workload == "cli" else ""))

    counts = redundancy_baseline()
    print("solve(q=2, m=5) redundancy baseline:",
          ", ".join(f"{k} {v}" for k, v in counts.items()))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
