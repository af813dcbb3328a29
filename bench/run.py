#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage::

    python3 bench/run.py --workload hotspot3d --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload ranks4 --trace 1      # per-layer metrics
    python3 bench/run.py --workload crash --out bench/results/mine.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
tracing the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics, and every span is
also written to ``bench/results/trace-<workload>.json``.  ``--out``
appends the run to a JSON list that ``bench/compare.py`` reads.

The exit code is 0 when the run completed (``correct`` says whether
every output checked out) and non-zero when a check could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Tail percentiles reported (not gated) when ten samples lie beyond them.
TAILS = (0.90, 0.95, 0.99)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def scaled(values, gauge, nominal: float) -> float:
    """Median of ``value / gauge`` pairs, at the gauge's nominal time."""
    return statistics.median(v / g for v, g in zip(values, gauge)) * nominal


def end_to_end_metrics(result) -> dict:
    """The end-to-end metrics of an untraced run, at nominal machine speed.

    Latencies are ms per run; each is divided by the gauge time around
    its own operation (set-up: around its own repetition) before the
    median is taken.
    """
    samples, gauge = result.samples, result.gauge_s
    nominal_ms = result.gauge.nominal_ms
    return {
        "setup_s": scaled(result.setup_s, result.setup_gauge_s, nominal_ms / 1e3),
        "op_ms_p50": scaled(samples["op"], gauge["op"], nominal_ms),
        "ref_ms_p50": scaled(samples["ref"], gauge["ref"], nominal_ms),
        "alt_ms_p50": scaled(samples["alt"], gauge["alt"], nominal_ms),
    }


def info(result) -> dict:
    """Numbers printed and stored beside the metrics, not gated.

    ``*_measured`` values are plain wall-clock times, not scaled.
    """
    samples, gauge = result.samples, result.gauge_s
    out = {
        "rounds": result.rounds,
        "samples_per_leg": len(samples["op"]),
        "setup_s_measured": statistics.median(result.setup_s),
        "gauge_ms_measured": statistics.median(gauge["op"]) * 1e3,
        "overhead_pct": 100.0 * statistics.median(
            op / ref - 1.0 for op, ref in zip(samples["op"], samples["ref"])
        ),
        "delta_ms_p50": scaled(
            [op - ref for op, ref in zip(samples["op"], samples["ref"])],
            [(a + b) / 2 for a, b in zip(gauge["op"], gauge["ref"])],
            result.gauge.nominal_ms,
        ),
    }
    for role in ("op", "ref", "alt"):
        out[f"{role}_ms_p50_measured"] = statistics.median(samples[role]) * 1e3
    ordered = sorted(samples["op"])
    for q in TAILS:
        if len(ordered) * (1.0 - q) >= 10:
            index = min(len(ordered) - 1, int(q * len(ordered)))
            out[f"op_ms_p{round(q * 100)}_measured"] = ordered[index] * 1e3
    return out


def _print_summary(result, legs, extra, values, declared) -> None:
    print(f"workload {result.workload}  seed {result.seed}  rounds {result.rounds} "
          f"({result.traced_rounds} traced)  set-up {extra['setup_s_measured']:.3f} s "
          f"measured (median of {len(result.setup_s)})")
    for role in ("op", "ref", "alt"):
        line = (f"  {role:3s} {legs[role]}: measured p50 "
                f"{extra[f'{role}_ms_p50_measured']:.3f} ms (n={len(result.samples[role])})")
        if result.traced[role]:
            line += (f", traced p50 {statistics.median(result.traced[role]) * 1e3:.3f} ms"
                     f" (n={len(result.traced[role])})")
        print(line)
    tails = "".join(f", {k} {v:.3f} ms" for k, v in extra.items()
                    if k.startswith("op_ms_p9"))
    print(f"  gauge measured {extra['gauge_ms_measured']:.3f} ms, nominal "
          f"{result.gauge.nominal_ms} ms; not gated: op/ref overhead "
          f"{extra['overhead_pct']:.2f}%, delta_ms_p50 {extra['delta_ms_p50']:.3f} ms{tails}")
    for m in declared:
        print(f"  {m['name']:40s} {values[m['name']]:16.4f} {m['unit']}")
    print(f"  checks: {result.attempted} outputs, {result.failed} failed")
    for message in result.failures:
        print(f"    FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run to a JSON list file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {os.path.join(ROOT, 'src')}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")

    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from bench import layers, workloads

    tracer = layers.make_tracer() if args.trace else None
    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer=tracer)

    if tracer is not None:
        missing = layers.missing_spans(args.workload, tracer)
        if missing:
            raise RuntimeError(f"expected spans never fired on {args.workload}: {missing}")
        values = layers.per_layer_metrics(result, tracer)
        declared = spec["per_layer"]
    else:
        values = end_to_end_metrics(result)
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ {m['name'] for m in declared})}"
        )
    extra = info(result)
    _print_summary(result, workloads.LEGS[args.workload], extra, values, declared)

    if tracer is not None:
        rounds = max(1, result.traced_rounds)
        print(f"  {'span':28s} {'calls/round':>12s} {'self ms/round':>14s}")
        for span in layers.SPANS:
            print(f"  {span:28s} {tracer.calls.get(span, 0) / rounds:12.2f} "
                  f"{tracer.self_time.get(span, 0.0) * 1e3 / rounds:14.3f}")
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        path = os.path.join(HERE, "results", f"trace-{args.workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "legs": workloads.LEGS[args.workload], **tracer.as_json()}, fh)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")

    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    if args.out:
        records = []
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                records = json.load(fh)
        records.append({"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace,
                        "info": extra, **line})
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
