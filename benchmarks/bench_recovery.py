#!/usr/bin/env python
"""Fail-stop recovery benchmark: checkpoint overhead and recovery latency.

Measures the cost of the buddy-checkpoint/rollback machinery that lets
the distributed ABFT runner survive rank death:

* **checkpoint overhead vs period** — a protected 4-rank run with
  buddy checkpointing at period P in {1, 2, 4, 8, 16, 32} is timed
  against the identical run with checkpointing disabled.  The paper's
  detection period (16) doubles as the default checkpoint period, so
  the period-16 column is the price an out-of-the-box recovery-enabled
  run pays.
* **recovery latency vs rank count** — one rank is killed mid-run at
  each rank count in {2, 4, 8} and ``RecoveryStats.recovery_seconds``
  (checkpoint verify + purge + in-place restore of every rank +
  re-commit, excluding the replayed iterations) is recorded along with
  the rollback depth and checkpoint traffic.

Timings use the chunk-interleaved discipline of
``bench_weak_scaling.py``: within a repeat every leg advances in
alternating slices of the timed loop, so CPU-frequency or throttle
drift on any timescale longer than one chunk hits all legs equally and
cancels out of the overhead ratios.

It also proves the headline invariant — a crashed-and-recovered run is
**bitwise identical** to the failure-free run (final state and
detection/correction counters), including when a silent bit flip lands
inside the replayed window.  Everything is written to
``BENCH_recovery.json``.

Usage::

    python benchmarks/bench_recovery.py           # full sweep
    python benchmarks/bench_recovery.py --smoke   # CI gate: exit 1 if a
                                                  # recovered run is not
                                                  # bit-identical to the
                                                  # failure-free run, or
                                                  # checkpoint overhead at
                                                  # period 16 exceeds 15%
                                                  # on the 4-rank run
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Tuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.faults.injector import FaultPlan
from repro.faults.models import DistributedFaultInjector
from repro.parallel.simmpi import DETECTION_PERIOD, DistributedStencilRunner
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion

DEFAULT_JSON = "BENCH_recovery.json"
DEFAULT_PERIODS = (1, 2, 4, 8, 16, 32)
DEFAULT_RANK_COUNTS = (2, 4, 8)
GATE_PERIOD = DETECTION_PERIOD  # the out-of-the-box configuration
GATE_OVERHEAD_PCT = 15.0

#: Timed sub-chunks per repeat (see bench_weak_scaling.py): the
#: no-checkpoint baseline and every checkpoint-period leg advance in
#: alternating slices so slow system phases hit all legs equally.
TIMING_CHUNKS = 4


def build_grid(block: Tuple[int, int], n_ranks: int) -> Grid2D:
    rng = np.random.default_rng(42)
    shape = (block[0] * n_ranks, block[1])
    initial = (rng.random(shape) * 100.0).astype(np.float32)
    return Grid2D(initial, five_point_diffusion(0.2), BoundaryCondition.clamp())


def make_runner(block, n_ranks: int, checkpoint_period=None):
    grid = build_grid(block, n_ranks)
    return DistributedStencilRunner(
        grid, n_ranks=n_ranks, protect=True, epsilon=1e-5,
        checkpoint_period=checkpoint_period,
    )


def crash_injector(runner, iteration: int, rank: int, flips=None):
    per_rank: List[List[FaultPlan]] = [[] for _ in range(runner.n_ranks)]
    per_rank[rank].append(
        FaultPlan(iteration=iteration, index=(), bit=0, target="crash", rank=rank)
    )
    for r, plan in flips or []:
        per_rank[r].append(plan)
    return DistributedFaultInjector(runner, per_rank)


# --------------------------------------------------------------------------
# Checkpoint overhead vs period
# --------------------------------------------------------------------------
def time_checkpoint_overhead(
    block, n_ranks: int, periods, iters: int, repeats: int
) -> Dict[str, object]:
    """Chunk-interleaved timing of checkpointing legs against a baseline.

    Every repeat builds one runner per leg (no checkpointing, plus one
    per period), warms each with one untimed iteration, then cycles
    through the legs ``TIMING_CHUNKS`` times timing a slice of each
    leg's loop per visit.  The reported overhead per period is the
    **median of per-repeat ratios** against the baseline leg of the
    same repeat, so drift cancels instead of masquerading as
    checkpoint cost.
    """
    legs = [None] + list(periods)
    samples = {leg: [] for leg in legs}
    overheads = {p: [] for p in periods}
    chunk_iters = max(1, iters // TIMING_CHUNKS)
    total_iters = chunk_iters * TIMING_CHUNKS
    ckpt_stats: Dict[int, Dict[str, int]] = {}
    for _ in range(repeats):
        runners = {}
        for leg in legs:
            runner = make_runner(block, n_ranks, checkpoint_period=leg)
            runner.run(1)
            runners[leg] = runner
        elapsed = {leg: 0.0 for leg in legs}
        for _ in range(TIMING_CHUNKS):
            for leg in legs:
                start = time.process_time()
                runners[leg].run(chunk_iters)
                elapsed[leg] += time.process_time() - start
        base_ms = elapsed[None] / total_iters * 1000.0
        samples[None].append(base_ms)
        for p in periods:
            ms = elapsed[p] / total_iters * 1000.0
            samples[p].append(ms)
            overheads[p].append((ms / base_ms - 1.0) * 100.0)
        for p in periods:
            stats = runners[p].recovery
            ckpt_stats[p] = {
                "checkpoints_taken": stats.checkpoints_taken,
                "checkpoint_bytes": stats.checkpoint_bytes,
                "checkpoint_messages": stats.checkpoint_messages,
            }
    result: Dict[str, object] = {
        "baseline_ms_per_iter": statistics.median(samples[None]),
        "periods": {},
    }
    for p in periods:
        result["periods"][str(p)] = {
            "ms_per_iter": statistics.median(samples[p]),
            "overhead_pct": statistics.median(overheads[p]),
            **ckpt_stats[p],
        }
    return result


# --------------------------------------------------------------------------
# Recovery latency vs rank count
# --------------------------------------------------------------------------
def measure_recovery(block, n_ranks: int, iters: int, repeats: int) -> Dict[str, object]:
    """Kill one rank mid-run and record what the recovery itself costs.

    ``recovery_seconds`` covers checkpoint verification, channel purge,
    the in-place restore of every rank (the failed one from its buddy's
    copy) and the re-commit of a fresh checkpoint; the replayed iterations
    are ordinary forward progress and are reported separately as a
    depth so the reader can price them at the sweep rate.
    """
    crash_iter = max(2, iters // 2)
    victim = n_ranks - 1
    latencies: List[float] = []
    record: Dict[str, object] = {}
    for _ in range(repeats):
        runner = make_runner(block, n_ranks)
        inject = crash_injector(runner, crash_iter, victim)
        runner.run(iters, inject=inject)
        stats = runner.recovery
        latencies.append(stats.recovery_seconds)
        record = {
            "crash_iteration": crash_iter,
            "victim_rank": victim,
            "rollback_depth": stats.max_rollback_depth,
            "replayed_iterations": stats.replayed_iterations,
            "checkpoints_taken": stats.checkpoints_taken,
            "checkpoint_bytes": stats.checkpoint_bytes,
        }
    record["recovery_seconds"] = statistics.median(latencies)
    record["recovery_seconds_best"] = min(latencies)
    return record


# --------------------------------------------------------------------------
# Bit-identity of the recovered run
# --------------------------------------------------------------------------
def check_recovery_identity(block, n_ranks: int = 4, iters: int = 24) -> Dict[str, bool]:
    """Crashed-and-recovered vs failure-free, bitwise, with and without SDC."""
    results: Dict[str, bool] = {}
    crash_iter = iters // 2 + 1

    baseline = make_runner(block, n_ranks)
    baseline.run(iters)
    crashed = make_runner(block, n_ranks)
    crashed.run(iters, inject=crash_injector(crashed, crash_iter, n_ranks - 1))
    results["recovered_matches_failure_free"] = bool(
        np.array_equal(baseline.gather(), crashed.gather())
        and crashed.total_detected() == baseline.total_detected()
        and crashed.total_corrected() == baseline.total_corrected()
        and crashed.recovery.ranks_rebuilt == 1
    )

    # A silent flip inside the replayed window: the crash rolls the run
    # back past the flip, the re-armed plan re-fires on replay, and the
    # final state and counters must still match the never-crashed run
    # that saw the same flip.
    flip = (1, FaultPlan(iteration=crash_iter - 2, index=(3, 5), bit=20))
    flipped = make_runner(block, n_ranks)
    per_rank: List[List[FaultPlan]] = [[] for _ in range(n_ranks)]
    per_rank[flip[0]].append(flip[1])
    flipped.run(iters, inject=DistributedFaultInjector(flipped, per_rank))
    both = make_runner(block, n_ranks)
    both.run(
        iters,
        inject=crash_injector(both, crash_iter, n_ranks - 1, flips=[flip]),
    )
    results["recovered_with_sdc_matches"] = bool(
        np.array_equal(flipped.gather(), both.gather())
        and both.total_detected() == flipped.total_detected()
        and both.total_corrected() == flipped.total_corrected()
    )
    return results


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--block", type=int, nargs=2, default=[256, 1024],
        metavar=("BX", "BY"),
        help="fixed per-rank block shape",
    )
    parser.add_argument(
        "--periods", type=int, nargs="+", default=list(DEFAULT_PERIODS),
        help="checkpoint periods to sweep",
    )
    parser.add_argument(
        "--ranks", type=int, nargs="+", default=list(DEFAULT_RANK_COUNTS),
        help="rank counts for the recovery-latency sweep",
    )
    parser.add_argument("--iters", type=int, default=32, help="timed iterations")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (median)")
    parser.add_argument(
        "--json", default=DEFAULT_JSON,
        help=f"machine-readable results file (default: {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=(
            "CI mode: fewer periods and repeats; exit non-zero if a "
            "recovered run is not bit-identical to the failure-free run "
            "(state and counters, with and without a concurrent bit "
            "flip), or if checkpoint overhead at the default period "
            f"({GATE_PERIOD}) exceeds {GATE_OVERHEAD_PCT:.0f}%% on the "
            "4-rank run"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.periods = sorted({4, GATE_PERIOD} | {p for p in args.periods if p >= 32})
        args.ranks = [n for n in args.ranks if n <= 4] or [4]
        args.iters = min(args.iters, 32)
        args.repeats = min(args.repeats, 3)
    if GATE_PERIOD not in args.periods:
        args.periods = sorted(set(args.periods) | {GATE_PERIOD})

    block = tuple(args.block)
    report = {
        "config": {
            "block": list(block),
            "block_bytes": block[0] * block[1] * 4,
            "periods": args.periods,
            "ranks": args.ranks,
            "iters": args.iters,
            "repeats": args.repeats,
            "detection_period": DETECTION_PERIOD,
            "cpu_count": os.cpu_count(),
            "smoke": bool(args.smoke),
        },
        "metric_definitions": {
            "overhead_pct": (
                "median over repeats of the per-repeat ratio 100 * "
                "(checkpointing - baseline) / baseline per-iteration "
                "process CPU time, both legs of a repeat advanced in "
                "interleaved timed chunks so drift cancels; the baseline "
                "is the identical protected run with checkpointing "
                "disabled"
            ),
            "recovery_seconds": (
                "median RecoveryStats.recovery_seconds over repeats: "
                "checkpoint checksum verification + channel purge + "
                "in-place restore of every rank (the failed one from its "
                "buddy's copy) + re-commit of a fresh checkpoint, "
                "excluding the replayed iterations (reported as "
                "rollback_depth)"
            ),
            "identity": (
                "bitwise equality of gather() and equality of "
                "detected/corrected counters between the crashed-and-"
                "recovered run and the failure-free run"
            ),
        },
        "identity": {},
        "checkpoint_overhead": {},
        "recovery_latency": {},
        "gates": {},
    }

    print(
        f"Fail-stop recovery: {block[0]}x{block[1]} float32 block per rank "
        f"({args.iters} iters, median of {args.repeats})"
    )
    print()
    print("Recovered-run bit-identity (state + counters):")
    identity = check_recovery_identity(block)
    report["identity"] = identity
    for name, ok in identity.items():
        print(f"  {name:34s} {'ok' if ok else 'FAIL'}")
    identity_ok = all(identity.values())
    print()

    overhead = time_checkpoint_overhead(
        block, 4, args.periods, args.iters, args.repeats
    )
    report["checkpoint_overhead"] = overhead
    header = (
        f"{'period':>6s} {'ms/iter':>9s} {'overhead':>9s} {'ckpts':>6s} "
        f"{'bytes to buddies':>17s}"
    )
    print(f"Checkpoint overhead vs period (4 ranks, baseline "
          f"{overhead['baseline_ms_per_iter']:.3f} ms/iter):")
    print(header)
    print("-" * len(header))
    for p in args.periods:
        row = overhead["periods"][str(p)]
        print(
            f"{p:6d} {row['ms_per_iter']:9.3f} {row['overhead_pct']:8.1f}% "
            f"{row['checkpoints_taken']:6d} {row['checkpoint_bytes']:17d}"
        )
    print()

    print("Recovery latency vs rank count (crash mid-run, buddy restore):")
    header = (
        f"{'ranks':>5s} {'recovery ms':>12s} {'depth':>6s} "
        f"{'replayed':>9s} {'ckpt bytes':>11s}"
    )
    print(header)
    print("-" * len(header))
    for n_ranks in args.ranks:
        row = measure_recovery(block, n_ranks, args.iters, args.repeats)
        report["recovery_latency"][str(n_ranks)] = row
        print(
            f"{n_ranks:5d} {row['recovery_seconds'] * 1000.0:12.3f} "
            f"{row['rollback_depth']:6d} {row['replayed_iterations']:9d} "
            f"{row['checkpoint_bytes']:11d}"
        )
    print()

    gate_overhead = overhead["periods"][str(GATE_PERIOD)]["overhead_pct"]
    overhead_ok = gate_overhead <= GATE_OVERHEAD_PCT
    report["gates"]["recovered_run_bit_identical"] = identity_ok
    report["gates"]["checkpoint_overhead_within_budget"] = overhead_ok
    report["gates"]["checkpoint_overhead_pct_at_default_period"] = gate_overhead
    if identity_ok:
        print("recovered runs are bit-identical to failure-free runs "
              "(state and counters, with and without concurrent SDC)")
    else:
        print("FAIL: a recovered run diverged from the failure-free run")
    if overhead_ok:
        print(
            f"checkpoint overhead at the default period ({GATE_PERIOD}) is "
            f"{gate_overhead:.1f}% (budget {GATE_OVERHEAD_PCT:.0f}%)"
        )
    else:
        print(
            f"FAIL: checkpoint overhead at period {GATE_PERIOD} is "
            f"{gate_overhead:.1f}% (> {GATE_OVERHEAD_PCT:.0f}% budget)"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nmachine-readable results written to {args.json}")

    if args.smoke and not (identity_ok and overhead_ok):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
