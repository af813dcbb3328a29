"""Command-line interface: ``python -m repro`` / ``repro-abft``.

Regenerates the paper's tables and figures from the command line::

    python -m repro table1
    python -m repro figure8 --scale quick
    python -m repro figure9
    python -m repro figure10
    python -m repro figure11
    python -m repro sensitivity
    python -m repro all --scale quick
    python -m repro backends --kernels --json
    python -m repro distributed --ranks 4 --iters 50
    python -m repro distributed --ranks 4 --crash-rank 1 --crash-iter 20
    python -m repro campaign --tile 64 64 8 --repetitions 50 --executor process

``--scale paper`` switches to the published campaign parameters
(hours of compute in pure NumPy); ``--scale smoke`` is the tiny
configuration used by the test suite. Every experiment accepts
``--backend`` to pick the compute backend (overriding the
``REPRO_BACKEND`` environment variable) and ``--executor``/``--workers``
to pick the tile executor (overriding ``REPRO_EXECUTOR``); ``backends``
and ``executors`` list what is available. The same entry point is
installed as the ``repro`` (and ``repro-abft``) console script by
``pip install -e .``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.backends import (
    available_backends,
    default_backend_name,
    get_backend,
    set_default_backend,
    unavailable_backends,
)
from repro.parallel.executor import (
    available_executors,
    default_executor_kind,
    resolve_workers,
    set_default_executor,
    set_default_workers,
)
from repro.experiments import (
    EvaluationScale,
    format_figure8,
    format_figure9,
    format_figure10,
    format_figure11,
    format_sensitivity,
    format_table1,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_sensitivity,
    run_table1,
)
from repro.version import __version__

__all__ = ["main", "build_parser"]

_SCALES: Dict[str, Callable[[], EvaluationScale]] = {
    "smoke": EvaluationScale.smoke,
    "quick": EvaluationScale.quick,
    "paper": EvaluationScale.paper,
}

_EXPERIMENTS = {
    "table1": (run_table1, format_table1),
    "figure8": (run_figure8, format_figure8),
    "figure9": (run_figure9, format_figure9),
    "figure10": (run_figure10, format_figure10),
    "figure11": (run_figure11, format_figure11),
    "sensitivity": (run_sensitivity, format_sensitivity),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-abft",
        description=(
            "Reproduce the evaluation of 'Algorithm-Based Fault Tolerance for "
            "Parallel Stencil Computations' (CLUSTER 2019)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in list(_EXPERIMENTS) + ["all"]:
        sub = subparsers.add_parser(name, help=f"regenerate {name}")
        sub.add_argument(
            "--scale",
            choices=sorted(_SCALES),
            default="quick",
            help="campaign scale (default: quick)",
        )
        sub.add_argument(
            "--output",
            default=None,
            help="optional file to write the rendered table to",
        )
        sub.add_argument(
            "--backend",
            choices=available_backends(),
            default=None,
            help=(
                "compute backend for every sweep/checksum (default: the "
                "REPRO_BACKEND environment variable, else 'fused')"
            ),
        )
        sub.add_argument(
            "--executor",
            choices=available_executors(),
            default=None,
            help=(
                "tile executor for parallel runs (default: the "
                "REPRO_EXECUTOR environment variable, else 'serial')"
            ),
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker count for thread/process executors (default: all cores)",
        )

    # table1 additionally offers the measured campaign-engine throughput
    # column (runs/second per tile).
    subparsers.choices["table1"].add_argument(
        "--measure-throughput",
        action="store_true",
        help="append the measured online-ABFT campaign throughput "
        "(runs/second on the campaign engine) per tile",
    )

    backends_cmd = subparsers.add_parser(
        "backends",
        help="list compute backends, including optional ones that are "
        "unavailable in this environment (e.g. numba without the package)",
    )
    backends_cmd.add_argument(
        "--kernels",
        action="store_true",
        help="also list the compiled-kernel cache of every compiling "
        "backend (spec/layout signature, codegen + warmup time, hits)",
    )
    backends_cmd.add_argument(
        "--json",
        action="store_true",
        help="with --kernels, dump the cache entries as JSON (full "
        "untruncated signatures, machine-readable)",
    )
    subparsers.add_parser(
        "executors", help="list the available tile executors"
    )

    dist = subparsers.add_parser(
        "distributed",
        help="run the simulated distributed (rank-decomposed) ABFT runner "
        "and report the gather checksum plus per-rank detection totals",
    )
    dist.add_argument(
        "--ranks", type=int, default=4, help="number of simulated ranks"
    )
    dist.add_argument(
        "--iters", type=int, default=50, help="distributed sweeps to run"
    )
    dist.add_argument(
        "--size", type=int, default=256, help="square domain edge length"
    )
    dist.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="compute backend driving every rank's fused step",
    )
    dist.add_argument(
        "--no-protect",
        action="store_true",
        help="disable the per-rank OnlineABFT protectors",
    )
    dist.add_argument(
        "--boundary",
        choices=("clamp", "periodic"),
        default="clamp",
        help="boundary condition of the global domain",
    )
    dist.add_argument(
        "--crash-rank", type=int, default=None, metavar="R",
        help="fail-stop rank R mid-run and recover it from its buddy "
        "checkpoint (default victim when only --crash-iter is given: "
        "rank 1)",
    )
    dist.add_argument(
        "--crash-iter", type=int, default=None, metavar="T",
        help="iteration at which the crashed rank stops responding, "
        "1..iters (default when only --crash-rank is given: iters // 2)",
    )
    dist.add_argument(
        "--checkpoint-period", type=int, default=None, metavar="P",
        help="buddy-checkpoint period in iterations (default: the ABFT "
        "detection period, 16)",
    )

    camp = subparsers.add_parser(
        "campaign",
        help="run one fault-injection campaign on the high-throughput "
        "campaign engine and report detection/timing statistics",
    )
    camp.add_argument(
        "--tile", type=int, nargs=3, default=[64, 64, 8],
        metavar=("NX", "NY", "NZ"), help="HotSpot3D tile size",
    )
    camp.add_argument(
        "--method", choices=("no-abft", "online-abft", "offline-abft"),
        default="online-abft", help="protection method",
    )
    camp.add_argument(
        "--scenario", choices=("error-free", "single-bit-flip"),
        default="single-bit-flip", help="fault scenario",
    )
    camp.add_argument(
        "--iterations", type=int, default=64, help="stencil sweeps per run"
    )
    camp.add_argument(
        "--repetitions", type=int, default=50, help="independent runs"
    )
    camp.add_argument("--seed", type=int, default=0, help="campaign base seed")
    camp.add_argument(
        "--fault-model", default=None, metavar="NAME",
        help="pluggable fault model for injected runs (see `repro.faults."
        "models`): bitflip (paper default), burst, mtbf, region, "
        "region-checksum, region-ghost, region-payload, rank-crash, "
        "rank-crash-mtbf (fail-stop runs execute on the distributed "
        "buddy-checkpoint recovery path)",
    )
    camp.add_argument(
        "--mtbf", type=float, default=64.0,
        help="mean iterations between faults for --fault-model mtbf "
        "(also the crash-arrival mean for rank-crash-mtbf)",
    )
    camp.add_argument(
        "--burst-size", type=int, default=3,
        help="flips per burst for --fault-model burst",
    )
    camp.add_argument(
        "--burst-spread", type=int, default=1,
        help="Chebyshev radius of the burst for --fault-model burst",
    )
    camp.add_argument(
        "--bit", type=int, default=None,
        help="pin the flipped bit position (default: uniform random)",
    )
    camp.add_argument(
        "--faults-per-run", type=int, default=1,
        help="independent faults per run for the bitflip model",
    )
    camp.add_argument(
        "--crash-ranks", type=int, default=4, metavar="N",
        help="simulated rank count for the rank-crash models",
    )
    camp.add_argument(
        "--crash-rank", type=int, default=None, metavar="R",
        help="pin the crash victim rank for rank-crash "
        "(default: uniform random)",
    )
    camp.add_argument(
        "--crash-iter", type=int, default=None, metavar="T",
        help="pin the crash iteration for rank-crash, 1..iterations "
        "(default: uniform random)",
    )
    camp.add_argument(
        "--crash-bitflips", type=int, default=0, metavar="K",
        help="extra uniform bit flips mixed into every rank-crash draw "
        "(combined fail-stop + silent-fault runs)",
    )
    camp.add_argument(
        "--period", type=int, default=16,
        help="offline detection/checkpoint period",
    )
    camp.add_argument(
        "--batch", type=int, default=None,
        help="runs per dispatched batch (default: automatic)",
    )
    camp.add_argument(
        "--strategy", choices=("auto", "stacked", "replay"), default="auto",
        help="run strategy: auto picks the fastest eligible path per "
        "batch, stacked demands the batched fast path (error when the "
        "campaign cannot take it), replay forces the per-run legacy path",
    )
    camp.add_argument(
        "--stacked-width", type=int, default=None, metavar="N",
        help="cap on the stacked batch width (default: "
        "REPRO_STACKED_WIDTH, else 32)",
    )
    camp.add_argument(
        "--backend", choices=available_backends(), default=None,
        help="compute backend for the sweeps",
    )
    camp.add_argument(
        "--executor", choices=available_executors(), default=None,
        help="campaign-engine executor (default: REPRO_EXECUTOR, else serial)",
    )
    camp.add_argument(
        "--workers", type=int, default=None,
        help="worker count for thread/process executors",
    )
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _check_crash_iter(crash_iter: int, iterations: int) -> None:
    """Reject a pinned crash iteration the run would never reach."""
    if not 1 <= crash_iter <= iterations:
        raise SystemExit(
            f"error: --crash-iter {crash_iter} out of range for a run of "
            f"{iterations} iterations (1..{iterations})"
        )


def _run_distributed(args) -> int:
    """``repro distributed``: drive the simulated rank-decomposed runner."""
    import numpy as np

    from repro.parallel.simmpi import DistributedStencilRunner, RecoveryError
    from repro.stencil.boundary import BoundaryCondition
    from repro.stencil.grid import Grid2D
    from repro.stencil.kernels import five_point_diffusion

    rng = np.random.default_rng(42)
    initial = (rng.random((args.size, args.size)) * 100.0).astype(np.float32)
    boundary = (
        BoundaryCondition.periodic()
        if args.boundary == "periodic"
        else BoundaryCondition.clamp()
    )
    grid = Grid2D(initial, five_point_diffusion(0.2), boundary)
    try:
        runner = DistributedStencilRunner(
            grid,
            n_ranks=args.ranks,
            protect=not args.no_protect,
            backend=args.backend,
            checkpoint_period=args.checkpoint_period,
        )
    except RecoveryError as exc:
        raise SystemExit(f"error: {exc}") from exc
    inject = None
    crash_requested = args.crash_rank is not None or args.crash_iter is not None
    if crash_requested:
        from repro.faults.injector import FaultPlan
        from repro.faults.models import DistributedFaultInjector

        victim = args.crash_rank if args.crash_rank is not None else 1 % args.ranks
        if not 0 <= victim < args.ranks:
            raise SystemExit(
                f"error: --crash-rank {victim} out of range for "
                f"{args.ranks} ranks"
            )
        crash_iter = (
            args.crash_iter
            if args.crash_iter is not None
            else max(1, args.iters // 2)
        )
        _check_crash_iter(crash_iter, args.iters)
        per_rank = [[] for _ in range(args.ranks)]
        per_rank[victim] = [
            FaultPlan(
                iteration=crash_iter, index=(), bit=0, target="crash",
                rank=victim,
            )
        ]
        inject = DistributedFaultInjector(runner, per_rank)
    runner.run(args.iters, inject=inject)

    gathered = runner.gather()
    checksum = float(gathered.sum(dtype=np.float64))
    print(
        f"distributed run: {args.size}x{args.size} five-point diffusion "
        f"({args.boundary}), {args.ranks} ranks, {args.iters} iterations "
        f"(backend {runner.backend.name})"
    )
    print(f"gather checksum : {checksum:.6f}")
    print(
        f"halo traffic    : {runner.channel.messages_sent} messages, "
        f"{runner.channel.bytes_sent} bytes"
    )
    by_tag = runner.channel.messages_by_tag
    ckpt_msgs = by_tag.get("ckpt", 0) + by_tag.get("ckpt_meta", 0)
    if ckpt_msgs:
        bytes_by_tag = runner.channel.bytes_by_tag
        ckpt_bytes = bytes_by_tag.get("ckpt", 0) + bytes_by_tag.get(
            "ckpt_meta", 0
        )
        stats = runner.recovery
        print(
            f"checkpointing   : period {runner.checkpoint_period}, "
            f"{stats.checkpoints_taken} checkpoints, "
            f"{ckpt_msgs} messages, {ckpt_bytes} bytes to buddies"
        )
    if runner.recovery.rank_failures:
        stats = runner.recovery
        print(
            f"recovery        : {stats.rank_failures} rank "
            f"failure{'s' if stats.rank_failures != 1 else ''}, "
            f"{stats.ranks_rebuilt} rebuilt from buddy, "
            f"{stats.rollbacks} rollback{'s' if stats.rollbacks != 1 else ''} "
            f"(max depth {stats.max_rollback_depth}), "
            f"{stats.replayed_iterations} iterations replayed"
        )
    for rank in runner.ranks:
        if rank.protector is None:
            print(f"rank {rank.rank}: shape {rank.shape}, unprotected")
        else:
            print(
                f"rank {rank.rank}: shape {rank.shape}, "
                f"detected {rank.protector.total_detections}, "
                f"corrected {rank.protector.total_corrections}"
            )
    if not args.no_protect:
        print(
            f"totals          : detected {runner.total_detected()}, "
            f"corrected {runner.total_corrected()}"
        )
    return 0


def _run_campaign_cli(args) -> int:
    """``repro campaign``: one campaign on the high-throughput engine."""
    import time

    from repro.experiments.common import make_hotspot_app, make_protector_factory
    from repro.experiments.report import format_seconds
    from repro.faults.campaign import CampaignConfig
    from repro.faults.engine import CampaignEngine
    from repro.faults.models import make_fault_model

    tile = tuple(args.tile)
    app = make_hotspot_app(tile)
    reference = app.reference_solution(args.iterations)
    factory = make_protector_factory(args.method, period=args.period)
    fault_model = None
    if args.fault_model is not None:
        params = {}
        if args.fault_model == "mtbf":
            params["mtbf"] = args.mtbf
        elif args.fault_model == "burst":
            params["burst_size"] = args.burst_size
            params["spread"] = args.burst_spread
        elif args.fault_model == "bitflip":
            params["faults_per_run"] = args.faults_per_run
        elif args.fault_model in ("rank-crash", "rank-crash-mtbf"):
            params["n_ranks"] = args.crash_ranks
            params["bitflips"] = args.crash_bitflips
            if args.crash_rank is not None:
                params["rank"] = args.crash_rank
            if args.fault_model == "rank-crash-mtbf":
                params["mtbf"] = args.mtbf
            elif args.crash_iter is not None:
                _check_crash_iter(args.crash_iter, args.iterations)
                params["at_iteration"] = args.crash_iter
        if args.bit is not None:
            params["bit"] = args.bit
        fault_model = make_fault_model(args.fault_model, **params)
    config = CampaignConfig(
        iterations=args.iterations,
        repetitions=args.repetitions,
        inject=(args.scenario == "single-bit-flip"),
        seed=args.seed,
        fault_model=fault_model,
        stacked_width=args.stacked_width,
    )
    with CampaignEngine(batch_size=args.batch) as engine:
        start = time.perf_counter()
        result = engine.run(
            app.build_grid, factory, config, reference=reference,
            strategy=args.strategy,
        )
        elapsed = time.perf_counter() - start
        executor = engine.executor

        model_name = getattr(config.resolved_fault_model(), "name", "bitflip")
        print(
            f"campaign: {tile[0]}x{tile[1]}x{tile[2]} HotSpot3D, "
            f"{args.method}, {args.scenario} (model {model_name}), "
            f"{args.iterations} iterations x "
            f"{args.repetitions} runs (seed {args.seed})"
        )
        print(
            f"engine   : executor {executor.kind} ({executor.workers} "
            f"worker{'s' if executor.workers != 1 else ''}), "
            f"batch {engine.batch_size or 'auto'}"
        )
        counts = result.strategy_counts()
        if counts:
            used = ", ".join(
                f"{name} ({n} run{'s' if n != 1 else ''})"
                for name, n in sorted(counts.items())
            )
            line = f"strategy : {used}"
            reasons = result.fallback_reasons()
            if reasons:
                line += f" — replay because: {'; '.join(reasons)}"
            print(line)
        if engine.chaos is not None or engine.worker_restarts:
            print(
                f"resilience: chaos {engine.chaos or 'off'}, "
                f"{engine.worker_restarts} worker-pool "
                f"restart{'s' if engine.worker_restarts != 1 else ''} "
                "(lost batches re-dispatched)"
            )
        print(
            f"throughput: {args.repetitions / elapsed:.1f} runs/s "
            f"({format_seconds(elapsed)} total)"
        )
    stats = result.time_stats()
    print(
        f"run time : mean {format_seconds(stats.mean)}, "
        f"median {format_seconds(stats.median)}, max {format_seconds(stats.maximum)}"
    )
    errors = result.error_stats()
    print(f"l2 error : mean {errors.mean:.3e}, max {errors.maximum:.3e}")
    cols = result.columns()
    if config.inject:
        print(
            f"faults   : detection rate {100 * result.detection_rate():.1f}%, "
            f"{int(cols.detected_counts.sum())} detected, "
            f"{int(cols.corrected.sum())} corrected, "
            f"{int(cols.uncorrected.sum())} uncorrected, "
            f"{result.total_rollbacks()} rollbacks"
        )
    else:
        print(
            f"faults   : none injected, false-positive rate "
            f"{100 * result.false_positive_rate():.1f}%"
        )
    rebuilt = sum(r.ranks_rebuilt for r in result.records)
    ck_bytes = sum(r.checkpoint_bytes for r in result.records)
    if rebuilt or ck_bytes:
        crashed_runs = sum(1 for r in result.records if r.ranks_rebuilt)
        print(
            f"recovery : {crashed_runs}/{len(result.records)} runs lost a "
            f"rank, {rebuilt} rank{'s' if rebuilt != 1 else ''} rebuilt "
            f"from buddy checkpoints ({ck_bytes} checkpoint bytes shipped)"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "backends":
        default = default_backend_name()
        seen = []
        for name in available_backends():
            backend = get_backend(name)
            marker = " (default)" if name == default else ""
            print(f"{name:12s} -> {type(backend).__name__}{marker}")
            if backend in seen:
                continue
            seen.append(backend)
            if not backend.compiles_kernels:
                continue
            for e in backend.compiled_kernels():
                if e["kind"] != "flat":
                    continue
                if e["reason"]:
                    print(f"{'':12s}    flat kernels interpreted: {e['reason']}")
                else:
                    print(
                        f"{'':12s}    flat kernels compiled: {e['path']} "
                        f"({e['compiler']})"
                    )
        for name, reason in unavailable_backends().items():
            print(f"{name:12s} -> unavailable ({reason})")
        if getattr(args, "kernels", False):
            compiling = [b for b in seen if b.compiles_kernels]
            if getattr(args, "json", False):
                import json

                payload = {
                    b.name: [dict(e) for e in b.compiled_kernels()]
                    for b in compiling
                }
                print(json.dumps(payload, indent=2, sort_keys=True))
                return 0
            if not compiling:
                print("\nno compiling backends registered")
            for backend in compiling:
                entries = backend.compiled_kernels()
                print(
                    f"\n{backend.name}: {len(entries)} compiled kernel "
                    f"module{'s' if len(entries) != 1 else ''}"
                )
                for e in entries:
                    if e.get("reason"):
                        print(f"  {e['kind']:6s} unavailable: {e['reason']}")
                        continue
                    cached = "disk" if e["from_disk"] else "fresh"
                    print(
                        f"  {e['digest']}  {e['kind']:6s} {cached:5s} "
                        f"codegen {e['codegen_ms']:.2f} ms  "
                        f"warmup {e['warmup_ms']:.2f} ms  "
                        f"hits {e['hits']}  misses {e['misses']}"
                    )
                    # Full signatures, never truncated: the digest above
                    # is only a 16-char hash prefix, so the complete
                    # cache-key identity (spec + layout) is spelled out
                    # per entry.
                    print(f"    spec   {e['spec']}")
                    if e["layout"]:
                        print(f"    layout {e['layout']}")
        return 0

    if args.command == "distributed":
        if args.backend is None:
            # Fail fast on a bad REPRO_BACKEND (exit 2, like every other
            # command) instead of crashing once the runner resolves it.
            try:
                get_backend()
            except KeyError as exc:
                parser.error(str(exc.args[0]))
        return _run_distributed(args)

    if args.command == "campaign":
        if args.executor is not None:
            set_default_executor(args.executor)
        if args.workers is not None:
            set_default_workers(args.workers)
        if args.backend is not None:
            set_default_backend(args.backend)
        else:
            try:
                get_backend()
            except KeyError as exc:
                parser.error(str(exc.args[0]))
        return _run_campaign_cli(args)

    if args.command == "executors":
        default = default_executor_kind()
        descriptions = {
            "serial": "tiles swept one after another in the calling thread",
            "threads": "thread pool (NumPy kernels release the GIL)",
            "process": "process pool over multiprocessing.shared_memory",
        }
        for kind in available_executors():
            marker = " (default)" if kind == default else ""
            print(f"{kind:12s} -> {descriptions[kind]}{marker}")
        print(f"workers default: {resolve_workers(None)} (os.cpu_count)")
        return 0

    if args.executor is not None:
        set_default_executor(args.executor)
    if args.workers is not None:
        set_default_workers(args.workers)
    if args.backend is not None:
        set_default_backend(args.backend)
    else:
        # Fail fast on a bad REPRO_BACKEND instead of crashing mid-run
        # (some experiments only resolve the backend at the first sweep).
        try:
            get_backend()
        except KeyError as exc:
            parser.error(str(exc.args[0]))
    scale = _SCALES[args.scale]()

    if args.command == "all":
        chunks = []
        for name, (run, fmt) in _EXPERIMENTS.items():
            chunks.append(fmt(run(scale)))
        _emit("\n\n".join(chunks), args.output)
        return 0

    run, fmt = _EXPERIMENTS[args.command]
    if args.command == "table1" and getattr(args, "measure_throughput", False):
        _emit(fmt(run(scale, measure_throughput=True)), args.output)
        return 0
    _emit(fmt(run(scale)), args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
