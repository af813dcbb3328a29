"""Command-line interface: ``python -m repro`` / ``repro-abft``.

Regenerates the paper's tables and figures from the command line::

    python -m repro table1
    python -m repro figure8 --scale quick
    python -m repro figure9
    python -m repro figure10
    python -m repro figure11
    python -m repro sensitivity
    python -m repro all --scale quick
    python -m repro backends --json
    python -m repro distributed --ranks 4 --iters 50
    python -m repro distributed --ranks 4 --crash-rank 1 --crash-iter 20
    python -m repro campaign --tile 64 64 8 --repetitions 50 --executor process

``--scale paper`` switches to the published campaign parameters
(hours of compute in pure NumPy); ``--scale smoke`` is the tiny
configuration used by the test suite. Every experiment accepts
``--backend`` to pick the compute backend (overriding the
``REPRO_BACKEND`` environment variable) and ``--executor``/``--workers``
to pick the campaign engine's executor (overriding
``REPRO_EXECUTOR``); ``backends`` and ``executors`` list what is
available. The same entry point is
installed as the ``repro`` (and ``repro-abft``) console script by
``pip install -e .``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence

from repro.backends import (
    available_backends,
    default_backend_name,
    get_backend,
    set_default_backend,
)
from repro.parallel.executor import (
    available_executors,
    default_executor_kind,
    make_executor,
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
from repro.faults.engine import CampaignEngine
from repro.faults.models import FaultModel, make_fault_model
from repro.version import __version__

__all__ = ["main", "build_parser"]

_SCALES: Dict[str, Callable[[], EvaluationScale]] = {
    "smoke": EvaluationScale.smoke,
    "quick": EvaluationScale.quick,
    "paper": EvaluationScale.paper,
}

#: ``repro campaign``'s fault-model flags: the model field each sets
#: (only when given, so the defaults are the model's own), its type and
#: its help.
_FAULT_MODEL_FLAGS = (
    ("--mtbf", "mtbf", float,
     "mean iterations between faults (mtbf) or crashes (rank-crash models)"),
    ("--burst-size", "burst_size", int, "flips per burst (burst)"),
    ("--burst-spread", "spread", int, "Chebyshev radius of the burst (burst)"),
    ("--bit", "bit", int,
     "pin the flipped bit position (every model; default: uniform random)"),
    ("--faults-per-run", "faults_per_run", int,
     "independent faults per run (bitflip)"),
    ("--crash-ranks", "n_ranks", int, "simulated rank count (rank-crash models)"),
    ("--crash-rank", "rank", int,
     "pin the crash victim rank (rank-crash models; default: uniform random)"),
    ("--crash-iter", "at_iteration", int,
     "pin the crash iteration, 1..iterations (rank-crash; default: uniform "
     "random)"),
    ("--crash-bitflips", "bitflips", int,
     "extra uniform bit flips mixed into every crash draw (rank-crash models)"),
)

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
                "executor of the experiment's campaign engine (default: "
                "the REPRO_EXECUTOR environment variable, else 'serial')"
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
        help="list compute backends and the compiled kernels each runs "
        "(or why they are not loaded)",
    )
    backends_cmd.add_argument(
        "--json",
        action="store_true",
        help="print {backend: [compiled-kernel entries]} as JSON instead",
    )
    subparsers.add_parser(
        "executors",
        help="list the available executors (tiles take serial or threads; "
        "campaigns take all three)",
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
        help="compute backend driving every rank's step and checksum",
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
        "--fault-model", default="bitflip", metavar="NAME",
        help="pluggable fault model for injected runs (see `repro.faults."
        "models`): bitflip (the paper's model, default), burst, mtbf, "
        "region, region-checksum, region-ghost, region-payload, "
        "rank-crash, rank-crash-mtbf (fail-stop runs execute on the "
        "distributed buddy-checkpoint recovery path). The flags below "
        "default to the model's own values; one the model does not "
        "take is an error",
    )
    for flag, field, kind, text in _FAULT_MODEL_FLAGS:
        camp.add_argument(flag, type=kind, dest=field, help=text)
    camp.add_argument(
        "--period", type=int, default=16,
        help="offline detection/checkpoint period",
    )
    camp.add_argument(
        "--batch", type=int, default=None,
        help="runs per dispatched batch, which is also the stacked width "
        "(default: automatic, at most 32)",
    )
    camp.add_argument(
        "--strategy", choices=("auto", "replay"), default="auto",
        help="run strategy: auto stacks every batch that can stack and "
        "reports why the others replay; replay forces the per-run path "
        "(per-run times instead of batch means)",
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


@contextmanager
def _usage_errors(parser: argparse.ArgumentParser) -> Iterator[None]:
    """Turn a bad setting into exit 2 with one line instead of a traceback."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        parser.error(str(exc.args[0]))


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


def _campaign_fault_model(args) -> FaultModel:
    """The model ``repro campaign`` draws from, built from the flags given.

    Only flags on the command line reach the model, so every other field
    keeps the model's own default; a flag whose field the model lacks
    raises ``ValueError`` naming the flag and the model.
    """
    name = args.fault_model
    fields = {f.name for f in dataclasses.fields(make_fault_model(name))}
    params = {
        field: getattr(args, field)
        for _, field, _, _ in _FAULT_MODEL_FLAGS
        if getattr(args, field) is not None
    }
    foreign = [f for f, field, _, _ in _FAULT_MODEL_FLAGS
               if field in params and field not in fields]
    if foreign:
        raise ValueError(f"fault model {name!r} does not take {', '.join(foreign)}")
    if "at_iteration" in params:
        _check_crash_iter(params["at_iteration"], args.iterations)
    try:
        return make_fault_model(name, **params)
    except ValueError as exc:
        raise ValueError(f"fault model {name!r}: {exc}") from None


def _run_campaign_cli(args, fault_model: FaultModel) -> int:
    """``repro campaign``: one campaign on the high-throughput engine."""
    import time

    from repro.experiments.common import make_hotspot_app, make_protector_factory
    from repro.experiments.report import format_seconds
    from repro.faults.campaign import CampaignConfig

    tile = tuple(args.tile)
    app = make_hotspot_app(tile)
    reference = app.reference_solution(args.iterations)
    factory = make_protector_factory(args.method, period=args.period)
    config = CampaignConfig(
        iterations=args.iterations,
        repetitions=args.repetitions,
        inject=(args.scenario == "single-bit-flip"),
        seed=args.seed,
        fault_model=fault_model,
    )
    with CampaignEngine(batch_size=args.batch) as engine:
        start = time.perf_counter()
        result = engine.run(
            app.build_grid, factory, config, reference=reference,
            strategy=args.strategy,
        )
        elapsed = time.perf_counter() - start
        executor = engine.executor

        print(
            f"campaign: {tile[0]}x{tile[1]}x{tile[2]} HotSpot3D, "
            f"{args.method}, {args.scenario} "
            f"(model {config.fault_model.name}), "
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
        if engine.worker_restarts:
            print(
                f"resilience: {engine.worker_restarts} worker-pool "
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


def _list_backends(as_json: bool) -> int:
    """``repro backends``: each backend and its compiled-kernel entries."""
    default = default_backend_name()
    kernels: Dict[str, list] = {}
    lines = []
    for name in available_backends():
        backend = get_backend(name)
        marker = " (default)" if name == default else ""
        lines.append(f"{name:12s} -> {type(backend).__name__}{marker}")
        kernels[name] = entries = [
            dict(e) for e in backend.compiled_kernels()
        ]
        for e in entries:
            if e["reason"]:
                state = f"interpreted: {e['reason']}"
            else:
                state = f"compiled: {e['path']} ({e['compiler']})"
            lines.append(f"{'':12s}    {e['kind']} kernels {state}")
    if as_json:
        import json

        print(json.dumps(kernels, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "backends":
        return _list_backends(args.json)

    if args.command == "distributed":
        with _usage_errors(parser):
            get_backend(args.backend)
        return _run_distributed(args)

    if args.command == "executors":
        default = default_executor_kind()
        descriptions = {
            "serial": "tiles swept one after another in the calling thread",
            "threads": "thread pool (NumPy and compiled kernels release the GIL)",
            "process": "process pool for campaign batches (tiles refuse it)",
        }
        for kind in available_executors():
            marker = " (default)" if kind == default else ""
            print(f"{kind:12s} -> {descriptions[kind]}{marker}")
        print(f"workers default: {resolve_workers(None)} (os.cpu_count)")
        return 0

    # The campaign command and every experiment.  Each setting a run
    # reads is resolved before any work starts: most are otherwise first
    # read deep inside the run, where a bad value ends in a traceback.
    with _usage_errors(parser):
        if args.executor is not None:
            set_default_executor(args.executor)
        if args.workers is not None:
            set_default_workers(args.workers)
        if args.backend is not None:
            set_default_backend(args.backend)
        get_backend()
        CampaignEngine()  # REPRO_WORKER_TIMEOUT
        make_executor().shutdown()  # REPRO_EXECUTOR, REPRO_WORKERS for a pool
    if args.command == "campaign":
        with _usage_errors(parser):
            fault_model = _campaign_fault_model(args)
        return _run_campaign_cli(args, fault_model)
    scale = _SCALES[args.scale]()

    if args.command == "all":
        chunks = []
        figure8 = None
        for name, (run, fmt) in _EXPERIMENTS.items():
            if name == "figure9":
                # Figure 9 reads the errors of the campaigns Figure 8 timed.
                result = run(scale, campaigns=figure8.campaigns)
            else:
                result = run(scale)
            if name == "figure8":
                figure8 = result
            chunks.append(fmt(result))
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
