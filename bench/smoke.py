#!/usr/bin/env python3
"""Short pass of every workload, untraced and traced, that asserts every
metric named in BENCHMARK.json is printed with its unit.

    python3 bench/smoke.py                 # one pass a run, about 5 minutes
    python3 bench/smoke.py --seconds 20    # full-length report of all

It prints each workload's metrics, so it doubles as the one command that
reports every end-to-end metric of qcliff, longseq and cli.  Not part of
the pytest suite.  Exits 1 on the first missing or malformed metric.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from run import ROOT, invoke

SEED = 1


def check(spec, lines, result) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed are not counts")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in spec}:
        problems.append("metric names differ: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in spec})}")
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
        elif not any(ln.startswith(f"{m['name']} = ") and
                     ln.endswith(f" {m['unit']}") for ln in lines):
            problems.append(f"{m['name']}: no report line with its unit")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    failures = 0
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = invoke(w["name"], SEED, args.seconds, trace)
            problems = check(bench[key], lines, result)
            print(f"== {w['name']} trace={trace}: "
                  f"{'ok' if not problems else 'FAIL'} "
                  f"({result['attempted']} inputs, {result['failed']} failed)")
            for line in lines:
                if trace == 0 or line.startswith(("traced", "trace.")):
                    print("  " + line)
            for p in problems:
                print("  PROBLEM:", p)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
