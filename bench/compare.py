#!/usr/bin/env python3
"""Compare two benchmark result files with the bounds in BENCHMARK.json.

Usage::

    python3 bench/compare.py bench/results/baseline-1.json mine.json

Each file is a JSON list of runs written by ``bench/run.py --out``.
For every end-to-end metric and workload the untraced runs of each file
give a median and quartiles; the verdict is

``ok``
    B's median is not worse than A's by more than the metric's bound;
``regressed``
    it is worse by more than the bound;
``unresolved``
    the spread of A or B (interquartile range over median) is wider
    than the bound, so the files cannot tell — unless every run of B
    reads better than every run of A, which is ``ok``.

The share of failed outputs is compared as well: any increase is a
regression.  The exit code is 1 if anything regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced runs of a result file, grouped by workload."""
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)
    grouped: Dict[str, List[dict]] = {}
    for run in runs:
        if not run.get("trace"):
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def summary(values: List[float]):
    """``(median, q1, q3, spread)``; quartiles as statistics.quantiles(n=4)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def verdict(a: List[float], b: List[float], bound: float, better: str) -> str:
    ma, _, _, sa = summary(a)
    mb, _, _, sb = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    if sa > bound or sb > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "ok"
        return "unresolved"
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    return "regressed" if worse > bound else "ok"


def error_share(runs: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline result file")
    parser.add_argument("b", help="result file to judge against it")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    regressed = False
    header = (f"{'workload':10s} {'metric':14s} {'A median':>11s} {'A q1..q3':>21s} "
              f"{'B median':>11s} {'B q1..q3':>21s} {'change':>8s}  verdict")
    print(header)
    print("-" * len(header))
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:10s} (no runs in {'A' if not a_runs else 'B'})")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            ma, qa1, qa3, _ = summary(a)
            mb, qb1, qb3, _ = summary(b)
            result = verdict(a, b, metric["bound"], metric["better"])
            regressed |= result == "regressed"
            change = 100.0 * (mb / ma - 1.0) if ma else float("nan")
            print(f"{workload:10s} {name:14s} {ma:11.4f} {qa1:10.4f}..{qa3:<10.4f}"
                  f"{mb:11.4f} {qb1:10.4f}..{qb3:<10.4f} {change:+7.2f}%  {result}")
        ea, eb = error_share(a_runs), error_share(b_runs)
        result = "regressed" if eb > ea else "ok"
        regressed |= result == "regressed"
        print(f"{workload:10s} {'error_rate':14s} {ea:11.4g} {'':21s} {eb:11.4g} "
              f"{'':21s} {'':8s}  {result}  (n={len(a_runs)} vs {len(b_runs)} runs)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
