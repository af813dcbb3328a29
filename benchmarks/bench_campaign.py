#!/usr/bin/env python
"""Throughput benchmark of the high-throughput campaign engine.

Compares the :class:`~repro.faults.engine.CampaignEngine` (persistent
workers, in-place grid reset, batched stacked execution) against the
legacy serial loop (:func:`~repro.faults.campaign.run_campaign`: fresh
grid + fresh protector per run) on the paper's 64x64x8 online-ABFT
bit-flip campaign — the configuration behind Figures 8-10 and Table 1.

Four properties are measured and (in ``--smoke`` mode) gated:

* **Record equivalence** — engine records are bitwise-identical to the
  legacy loop for identical seeds (every field except the elapsed-time
  measurement), across all three methods, both scenarios, and both the
  serial and process executors; every batch of every method, offline
  ABFT included, takes the stacked strategy, so a method that silently
  fell back to replay fails the gate too; and each campaign ends in a
  narrower batch than its first (batches of 4 over 6 or 10 runs), so
  the stacked pair built for the last batch's own width is gated too.
* **Throughput** — runs/second, engine vs legacy.  Both legs advance in
  interleaved timed chunks within each repeat (a chunk of legacy runs,
  then a chunk of engine runs, several times over), so CPU-frequency /
  throttle drift on any timescale longer than one chunk hits both legs
  equally and cancels out of the per-repeat ratio; the reported speedup
  is the median of per-repeat ratios.  Wall-clock time is used because
  the engine's process executor does its work in pool workers, which
  parent-process CPU time cannot see.
* **Stacked vs replay** — runs/second of the two run strategies on one
  serial-executor engine (the automatic strategy, which stacks every
  batch here, against ``strategy="replay"``), same interleaved
  chunking, on the default backend, for online and for offline ABFT.
  Informational: no gate.
* **Allocation profile** — tracemalloc peak growth per run after
  warm-up.  The legacy loop allocates a fresh padded buffer pair, a
  protector and full-domain error temporaries per run; the engine's
  steady state must stay below half a domain per run (its per-step
  transients are checksum vectors and detection masks, amortised over
  the whole batch).

Everything is written to ``BENCH_campaign.json``.

Usage::

    python benchmarks/bench_campaign.py            # full comparison
    python benchmarks/bench_campaign.py --smoke    # CI gate: exit 1 on
                                                   # inequivalent records,
                                                   # full-domain per-run
                                                   # allocations, or an
                                                   # engine slower than
                                                   # the smoke threshold
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from typing import Dict, List, Tuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.backends import get_backend
from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.engine import CampaignEngine
from repro.parallel.executor import resolve_workers

DEFAULT_JSON = "BENCH_campaign.json"

#: The gated configuration: the paper's small tile, online ABFT, one
#: random bit-flip per run (Table 1 / Figure 8 geometry at a
#: quick-scale iteration count).
GATE_TILE = (64, 64, 8)

#: Interleaved timed chunks per repeat (see module docstring).
TIMING_CHUNKS = 4

#: Fixed transient allowance of one batch (records, fault plans,
#: checksum vectors, detection masks) before peak growth counts towards
#: full-domain allocations.
ALLOC_FLAT_ALLOWANCE = 192 * 1024

#: Committed-snapshot throughput requirement (the PR's acceptance
#: criterion) and the laxer CI exit threshold: shared runners time-slice
#: unpredictably, so CI only fails on a clearly missing speedup while
#: the committed full run documents the real margin.
SPEEDUP_REQUIRED = 1.5
SPEEDUP_SMOKE_FLOOR = 1.15


# --------------------------------------------------------------------------
# Record equivalence
# --------------------------------------------------------------------------
def _record_key(record) -> Tuple:
    """Every deterministic field of a run record (elapsed time excluded)."""
    return (
        record.run_index,
        record.arithmetic_error,
        record.errors_detected,
        record.errors_corrected,
        record.errors_uncorrected,
        record.rollbacks,
        record.recomputed_iterations,
        tuple((p.iteration, p.index, p.bit) for p in record.faults),
    )


def check_equivalence(smoke: bool) -> Dict[str, bool]:
    """Engine records vs legacy records, bitwise, per method x scenario.

    Each ``<method>_<scenario>_<executor>`` entry says the records
    match; its ``..._stacked`` twin says every batch of that campaign
    took the stacked strategy (``strategy_counts()``), and its
    ``..._widths`` twin that the batches ran at the widths batches of 4
    split the runs into, a narrower last batch included.  Uses a small
    tile so the check stays cheap; the equivalence is a property of the
    execution strategy, not of the domain size.
    """
    app = make_hotspot_app((16, 16, 4))
    iterations = 10 if smoke else 16
    repetitions = 6 if smoke else 10
    widths = [4, 2] if smoke else [4, 4, 2]
    reference = app.reference_solution(iterations)
    workers = min(2, resolve_workers(None))
    results: Dict[str, bool] = {}
    engines = {
        "serial": CampaignEngine(executor="serial", batch_size=4),
        "process": CampaignEngine(executor="process", workers=workers, batch_size=4),
    }
    try:
        for method in ("no-abft", "online-abft", "offline-abft"):
            factory = make_protector_factory(method, period=4)
            for scenario, inject in (
                ("error-free", False), ("single-bit-flip", True)
            ):
                config = CampaignConfig(
                    iterations=iterations,
                    repetitions=repetitions,
                    inject=inject,
                    seed=11,
                )
                legacy = run_campaign(
                    app.build_grid, factory, config, reference=reference
                )
                want = [_record_key(r) for r in legacy.records]
                for kind, engine in engines.items():
                    got = engine.run(
                        app.build_grid, factory, config, reference=reference
                    )
                    results[f"{method}_{scenario}_{kind}"] = bool(
                        [_record_key(r) for r in got.records] == want
                    )
                    results[f"{method}_{scenario}_{kind}_stacked"] = (
                        got.strategy_counts() == {"stacked": repetitions}
                    )
                    results[f"{method}_{scenario}_{kind}_widths"] = (
                        [b.width for b in got.batch_strategies] == widths
                    )
    finally:
        for engine in engines.values():
            engine.shutdown()
    return results


# --------------------------------------------------------------------------
# Chaos resilience
# --------------------------------------------------------------------------
class _KillsOneWorker:
    """Protector factory that kills the first pool worker building it.

    The worker that removes ``marker`` exits at once; every other build
    (the parent's sample protector, the surviving and the restarted
    workers) runs normally.  Process workers fork, so this class, defined
    in the running script, pickles by reference.
    """

    def __init__(self, marker: str) -> None:
        self.parent_pid = os.getpid()
        self.marker = marker
        self.inner = make_protector_factory("online-abft")

    def __call__(self, grid):
        if os.getpid() != self.parent_pid:
            try:
                os.remove(self.marker)
            except FileNotFoundError:
                pass
            else:
                os._exit(43)
        return self.inner(grid)


def check_chaos_resilience() -> Dict[str, object]:
    """Campaign with one pool worker killed vs an undisturbed run.

    One worker dies while building its campaign state; the engine must
    detect the loss, restart the pool, re-dispatch the lost batches,
    and still produce records bitwise-identical (all fields except
    elapsed time) to an engine that was never disturbed.
    ``worker_restarts`` proves the failure was actually injected and
    survived, rather than silently skipped.
    """
    app = make_hotspot_app((16, 16, 4))
    iterations, repetitions = 10, 24
    reference = app.reference_solution(iterations)
    factory = make_protector_factory("online-abft")
    config = CampaignConfig(
        iterations=iterations, repetitions=repetitions, inject=True, seed=7
    )
    workers = min(2, resolve_workers(None))
    common = dict(executor="process", workers=workers, batch_size=4)

    with CampaignEngine(**common) as engine:
        baseline = engine.run(app.build_grid, factory, config, reference=reference)
        baseline_restarts = engine.worker_restarts

    with tempfile.TemporaryDirectory() as scratch:
        marker = os.path.join(scratch, "kill-once")
        open(marker, "w").close()
        with CampaignEngine(worker_timeout=15.0, **common) as engine:
            disturbed = engine.run(
                app.build_grid, _KillsOneWorker(marker), config,
                reference=reference,
            )
            restarts = engine.worker_restarts

    identical = bool(
        [_record_key(r) for r in disturbed.records]
        == [_record_key(r) for r in baseline.records]
    )
    return {
        "chaos_mode": "worker-kill",
        "records_identical_to_undisturbed": identical,
        "worker_restarts": restarts,
        "baseline_worker_restarts": baseline_restarts,
        "failure_was_injected_and_survived": bool(restarts >= 1),
        "repetitions": repetitions,
    }


# --------------------------------------------------------------------------
# Throughput
# --------------------------------------------------------------------------
def time_throughput(
    iterations: int, chunk_runs: int, repeats: int, workers: int
) -> Dict[str, object]:
    """Chunk-interleaved runs/second of the engine vs the legacy loop.

    One warm-up chunk per leg (builds the engine's worker pool and
    per-worker campaign state, pays the legacy loop's lazy costs), then
    ``TIMING_CHUNKS`` interleaved timed chunks per repeat.
    """
    app = make_hotspot_app(GATE_TILE)
    reference = app.reference_solution(iterations)
    factory = make_protector_factory("online-abft")

    def legacy_chunk(seed: int) -> float:
        config = CampaignConfig(
            iterations=iterations, repetitions=chunk_runs, inject=True, seed=seed
        )
        start = time.perf_counter()
        run_campaign(app.build_grid, factory, config, reference=reference)
        return time.perf_counter() - start

    engine = CampaignEngine(executor="process", workers=workers)
    try:
        def engine_chunk(seed: int) -> float:
            config = CampaignConfig(
                iterations=iterations, repetitions=chunk_runs, inject=True,
                seed=seed,
            )
            start = time.perf_counter()
            engine.run(app.build_grid, factory, config, reference=reference)
            return time.perf_counter() - start

        # Warm-up: pool spawn, worker state construction, legacy lazies.
        legacy_chunk(900)
        engine_chunk(900)

        legacy_rps: List[float] = []
        engine_rps: List[float] = []
        ratios: List[float] = []
        seed = 0
        for _ in range(repeats):
            t_legacy = 0.0
            t_engine = 0.0
            for _ in range(TIMING_CHUNKS):
                t_legacy += legacy_chunk(seed)
                t_engine += engine_chunk(seed)
                seed += chunk_runs
            total_runs = chunk_runs * TIMING_CHUNKS
            legacy_rps.append(total_runs / t_legacy)
            engine_rps.append(total_runs / t_engine)
            ratios.append(t_legacy / t_engine)
    finally:
        engine.shutdown()

    return {
        "legacy_runs_per_second": statistics.median(legacy_rps),
        "engine_runs_per_second": statistics.median(engine_rps),
        "engine_speedup_vs_legacy": statistics.median(ratios),
        "per_repeat_speedups": [round(r, 4) for r in ratios],
        "runs_per_repeat": chunk_runs * TIMING_CHUNKS,
    }


# --------------------------------------------------------------------------
# Stacked vs replay (same engine: automatic vs forced replay)
# --------------------------------------------------------------------------
def time_stacked_vs_replay(
    iterations: int, chunk_runs: int, repeats: int, method: str
) -> Dict[str, object]:
    """Chunk-interleaved runs/second of the stacked vs the replay strategy.

    Both legs run ``method``'s campaign on the *same* serial-executor
    engine (same persistent worker state, same pre-drawn plans),
    differing only in ``strategy``: the automatic strategy, asserted to
    stack every batch, against forced replay — so the ratio isolates
    the batched fast path from every other engine win.  Measured on the
    default backend.
    """
    app = make_hotspot_app(GATE_TILE)
    reference = app.reference_solution(iterations)
    factory = make_protector_factory(method)

    engine = CampaignEngine(executor="serial")
    try:
        def chunk(seed: int, strategy: str) -> float:
            config = CampaignConfig(
                iterations=iterations, repetitions=chunk_runs,
                inject=True, seed=seed,
            )
            start = time.perf_counter()
            result = engine.run(
                app.build_grid, factory, config, reference=reference,
                strategy="replay" if strategy == "replay" else None,
            )
            elapsed = time.perf_counter() - start
            assert result.strategy_counts() == {strategy: chunk_runs}
            return elapsed

        # Warm-up: worker state, the native library load.
        chunk(900, "replay")
        chunk(900, "stacked")

        stacked_rps: List[float] = []
        replay_rps: List[float] = []
        ratios: List[float] = []
        seed = 0
        for _ in range(repeats):
            t_stacked = 0.0
            t_replay = 0.0
            for _ in range(TIMING_CHUNKS):
                t_replay += chunk(seed, "replay")
                t_stacked += chunk(seed, "stacked")
                seed += chunk_runs
            total_runs = chunk_runs * TIMING_CHUNKS
            stacked_rps.append(total_runs / t_stacked)
            replay_rps.append(total_runs / t_replay)
            ratios.append(t_replay / t_stacked)
    finally:
        engine.shutdown()

    return {
        "backend": get_backend().name,
        "stacked_runs_per_second": statistics.median(stacked_rps),
        "replay_runs_per_second": statistics.median(replay_rps),
        "stacked_speedup_vs_replay": statistics.median(ratios),
        "per_repeat_speedups": [round(r, 4) for r in ratios],
        "runs_per_repeat": chunk_runs * TIMING_CHUNKS,
    }


# --------------------------------------------------------------------------
# Allocation profile
# --------------------------------------------------------------------------
def measure_allocations(iterations: int, repetitions: int) -> Dict[str, object]:
    """Tracemalloc peak growth per run, engine steady state vs legacy.

    The engine is exercised in-process (serial executor) so tracemalloc
    sees the worker-side stacked execution — the same code path the pool
    workers run.  One untimed campaign first builds the persistent state
    (buffers, scratches); the traced campaign's peak growth is then the
    genuinely per-batch transient footprint.
    """
    app = make_hotspot_app(GATE_TILE)
    reference = app.reference_solution(iterations)
    factory = make_protector_factory("online-abft")
    config = CampaignConfig(
        iterations=iterations, repetitions=repetitions, inject=True, seed=3
    )
    domain_bytes = int(np.prod(GATE_TILE)) * 4

    engine = CampaignEngine(executor="serial", batch_size=repetitions)
    try:
        engine.run(app.build_grid, factory, config, reference=reference)
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        engine.run(app.build_grid, factory, config, reference=reference)
        _, engine_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    finally:
        engine.shutdown()
    engine_delta = max(0, int(engine_peak) - int(baseline))
    engine_per_run = max(0, engine_delta - ALLOC_FLAT_ALLOWANCE) / repetitions

    run_campaign(app.build_grid, factory, config, reference=reference)
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    run_campaign(app.build_grid, factory, config, reference=reference)
    _, legacy_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    legacy_delta = max(0, int(legacy_peak) - int(baseline))
    legacy_per_run = max(0, legacy_delta - ALLOC_FLAT_ALLOWANCE) / repetitions

    return {
        "domain_bytes": domain_bytes,
        "engine_peak_alloc_bytes": engine_delta,
        "engine_alloc_bytes_per_run": int(engine_per_run),
        "engine_full_domain_allocs_per_run": int(round(engine_per_run / domain_bytes)),
        "engine_zero_full_domain_allocs_per_run": bool(
            engine_per_run < domain_bytes / 2
        ),
        "legacy_peak_alloc_bytes": legacy_delta,
        "legacy_alloc_bytes_per_run": int(legacy_per_run),
        "legacy_full_domain_allocs_per_run": int(round(legacy_per_run / domain_bytes)),
    }


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--iters", type=int, default=32,
        help="stencil iterations per campaign run",
    )
    parser.add_argument(
        "--chunk-runs", type=int, default=8,
        help="campaign runs per interleaved timed chunk",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats (median)"
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="engine worker processes (default: resolve_workers)",
    )
    parser.add_argument(
        "--json", default=DEFAULT_JSON,
        help=f"machine-readable results file (default: {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=(
            "CI mode: fewer runs; exit non-zero if engine records differ "
            "from the legacy loop, the engine allocates a full domain per "
            f"run after warm-up, or the speedup falls below "
            f"{SPEEDUP_SMOKE_FLOOR}x"
        ),
    )
    parser.add_argument(
        "--chaos-smoke", action="store_true",
        help=(
            "CI chaos gate: run one small process-executor campaign whose "
            "protector factory kills one pool worker next to an "
            "undisturbed one; exit non-zero unless the pool was "
            "restarted at least once and the records are "
            "bitwise-identical.  Runs only this check"
        ),
    )
    args = parser.parse_args(argv)

    if args.chaos_smoke:
        print("Chaos smoke: campaign engine with one worker killed "
              "(process executor)")
        chaos = check_chaos_resilience()
        survived = chaos["failure_was_injected_and_survived"]
        identical = chaos["records_identical_to_undisturbed"]
        print(
            f"  worker-pool restarts : {chaos['worker_restarts']} "
            f"{'ok' if survived else 'FAIL (failure never injected)'}"
        )
        print(
            f"  records vs undisturbed: "
            f"{'bitwise-identical ok' if identical else 'DIFFER FAIL'}"
        )
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump({"chaos": chaos}, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 0 if (survived and identical) else 1

    if args.smoke:
        args.iters = min(args.iters, 16)
        args.chunk_runs = min(args.chunk_runs, 6)
        args.repeats = min(args.repeats, 3)
    workers = resolve_workers(args.workers)

    report = {
        "config": {
            "tile": list(GATE_TILE),
            "method": "online-abft",
            "scenario": "single-bit-flip",
            "iterations": args.iters,
            "chunk_runs": args.chunk_runs,
            "timing_chunks": TIMING_CHUNKS,
            "repeats": args.repeats,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "backend": get_backend().name,
            "smoke": bool(args.smoke),
        },
        "metric_definitions": {
            "engine_speedup_vs_legacy": (
                "median over repeats of (legacy chunk time / engine chunk "
                "time); within every repeat the two legs advance in "
                f"{TIMING_CHUNKS} interleaved timed chunks of "
                "chunk_runs campaign runs each, so frequency/throttle "
                "drift spans both legs equally and cancels out of the "
                "ratio.  Wall clock (perf_counter), because the engine's "
                "process executor works in pool children invisible to "
                "parent CPU time"
            ),
            "runs_per_second": (
                "median per-repeat throughput of one leg (chunk_runs * "
                "timing_chunks runs / summed chunk time)"
            ),
            "record_equivalence": (
                "engine records bitwise-equal to the legacy serial loop "
                "(all fields except elapsed_seconds) for identical seeds, "
                "and every batch stacked (the *_stacked entries), per "
                "method x scenario x executor"
            ),
            "stacked_speedup_vs_replay": (
                "median over repeats of (replay chunk time / stacked chunk "
                "time) on one serial-executor engine, the automatic "
                "strategy (every batch stacked) against strategy='replay'; "
                "same interleaved-chunk scheme as "
                "engine_speedup_vs_legacy, on the default backend, per "
                "method (online-abft, offline-abft at period 16); "
                "informational, not gated"
            ),
            "alloc_bytes_per_run": (
                "tracemalloc peak growth of a traced steady-state "
                "campaign, minus a fixed batch allowance "
                f"({ALLOC_FLAT_ALLOWANCE} B for records/plans/checksums), "
                "divided by the runs; the engine leg runs in-process "
                "(serial executor, the same worker code path) because "
                "tracemalloc cannot see pool children.  The legacy loop "
                "allocates a padded buffer pair + protector + error "
                "temporaries per run; the engine must stay below half a "
                "domain per run"
            ),
        },
        "equivalence": {},
        "throughput": {},
        "stacked_vs_replay": {},
        "allocations": {},
        "gates": {},
    }

    print(
        f"Campaign engine benchmark: {GATE_TILE[0]}x{GATE_TILE[1]}x"
        f"{GATE_TILE[2]} online-abft bit-flip campaign, {args.iters} "
        f"iterations/run, {args.chunk_runs} runs/chunk x {TIMING_CHUNKS} "
        f"chunks, median of {args.repeats} repeats, process executor "
        f"({workers} worker{'s' if workers != 1 else ''})"
    )
    print()

    print("Record equivalence (engine vs legacy, bitwise):")
    equivalence = check_equivalence(args.smoke)
    report["equivalence"] = equivalence
    for name, ok in sorted(equivalence.items()):
        print(f"  {name:44s} {'ok' if ok else 'FAIL'}")
    equiv_ok = all(equivalence.values())
    print()

    throughput = time_throughput(
        args.iters, args.chunk_runs, args.repeats, workers
    )
    report["throughput"] = throughput
    speedup = throughput["engine_speedup_vs_legacy"]
    print(
        f"throughput: engine {throughput['engine_runs_per_second']:.1f} "
        f"runs/s vs legacy {throughput['legacy_runs_per_second']:.1f} "
        f"runs/s -> {speedup:.2f}x (per-repeat "
        f"{[f'{r:.2f}' for r in throughput['per_repeat_speedups']]})"
    )

    for method in ("online-abft", "offline-abft"):
        stacked = time_stacked_vs_replay(
            args.iters, args.chunk_runs, args.repeats, method
        )
        report["stacked_vs_replay"][method] = stacked
        print(
            f"stacked vs replay, {method} ({stacked['backend']} backend, "
            f"informational): stacked {stacked['stacked_runs_per_second']:.1f} "
            f"runs/s vs replay {stacked['replay_runs_per_second']:.1f} runs/s "
            f"-> {stacked['stacked_speedup_vs_replay']:.2f}x (per-repeat "
            f"{[f'{r:.2f}' for r in stacked['per_repeat_speedups']]})"
        )

    allocations = measure_allocations(args.iters, max(8, args.chunk_runs))
    report["allocations"] = allocations
    print(
        f"allocations: engine {allocations['engine_alloc_bytes_per_run']} "
        f"B/run ({allocations['engine_full_domain_allocs_per_run']} full "
        f"domains) vs legacy {allocations['legacy_alloc_bytes_per_run']} "
        f"B/run ({allocations['legacy_full_domain_allocs_per_run']} full "
        f"domains of {allocations['domain_bytes']} B)"
    )
    print()

    alloc_ok = allocations["engine_zero_full_domain_allocs_per_run"]
    speed_floor = SPEEDUP_SMOKE_FLOOR if args.smoke else SPEEDUP_REQUIRED
    speed_ok = speedup >= speed_floor
    report["gates"] = {
        "record_equivalence": equiv_ok,
        "engine_zero_full_domain_allocs_per_run": bool(alloc_ok),
        "engine_speedup_vs_legacy": speedup,
        "speedup_floor_applied": speed_floor,
        "speedup_passes_floor": bool(speed_ok),
        "speedup_meets_committed_requirement": bool(
            speedup >= SPEEDUP_REQUIRED
        ),
    }

    if equiv_ok:
        print(
            "engine records bitwise-identical to the legacy serial loop, "
            "every batch stacked"
        )
    else:
        print(
            "FAIL: engine records differ from the legacy loop, or a batch "
            "did not stack"
        )
    if alloc_ok:
        print("engine performs zero full-domain allocations per run after warm-up")
    else:
        print("FAIL: engine allocated full-domain temporaries per run")
    if speedup >= SPEEDUP_REQUIRED:
        print(f"engine beats the legacy loop by {speedup:.2f}x (requirement {SPEEDUP_REQUIRED}x)")
    elif speed_ok:
        print(
            f"WARN: engine speedup {speedup:.2f}x is below the committed "
            f"{SPEEDUP_REQUIRED}x requirement but above the smoke floor "
            f"{speed_floor}x — shared-runner noise band"
        )
    else:
        print(
            f"FAIL: engine speedup {speedup:.2f}x below the "
            f"{speed_floor}x floor"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nmachine-readable results written to {args.json}")

    if args.smoke and not (equiv_ok and alloc_ok and speed_ok):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
