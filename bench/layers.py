"""What the traced run wraps, and the per-layer metrics it reports.

Layers are the ``repro`` packages.  Each span names ``<layer>.<entry>``
and lists the entry points it covers; ``EXPECTED_SPANS`` names the
spans that must fire on each workload, so a wrapper that silently
misses its path (an override, a call-time import, a renamed method)
fails the traced run instead of reporting zero.
"""

from __future__ import annotations

import inspect
import statistics
from typing import Dict

import numpy as np

from bench.trace import Function, Method, Tracer
from repro.backends import get_backend


def _backend_class() -> type:
    return type(get_backend())


SPANS = {
    "stencil.refresh_ghosts": [Function("repro.stencil.shift", "refresh_ghosts")],
    "stencil.grid.step": [
        Method("repro.stencil.grid:GridBase",
               ("step", "step_with_checksums", "multi_step", "multi_step_with_checksums")),
        Method("repro.stencil.doublebuffer:DoubleBufferedGrid", ("step", "multi_step")),
    ],
    "backends.step_into": [
        Method(_backend_class, ("step_into", "step_into_with_checksums",
                                "multi_step_into", "multi_step_into_with_checksums")),
    ],
    "backends.sweep_into": [
        Method(_backend_class, ("sweep_into", "sweep_into_with_checksums",
                                "sweep_padded", "sweep_with_checksums")),
    ],
    "backends.batch_step_into": [
        Method(_backend_class, ("batch_step_into", "batch_step_into_with_checksums")),
    ],
    "backends.checksum": [Method(_backend_class, ("checksum",))],
    "core.step": [
        Method("repro.core.online:OnlineABFT", ("step",)),
        Method("repro.core.offline:OfflineABFT", ("step",)),
    ],
    "core.process": [Method("repro.core.online:OnlineABFT", ("process",))],
    "core.interpolate": [
        Function("repro.core.interpolation", "interpolate_checksum_padded"),
        Function("repro.core.interpolation", "interpolate_checksum_reduced"),
        Function("repro.core.interpolation", "extract_delta_strips"),
    ],
    "core.detect": [
        Function("repro.core.detection", "detect_errors"),
        Function("repro.core.detection", "relative_discrepancy"),
    ],
    "core.correct": [
        Function("repro.core.correction", "match_detections"),
        Function("repro.core.correction", "correct_errors"),
    ],
    "checkpoint.save": [Method("repro.stencil.grid:GridBase", ("snapshot",))],
    "checkpoint.rollback": [Function("repro.checkpoint.recovery", "rollback_and_recompute")],
    "parallel.runner.step": [
        Method("repro.parallel.simmpi:DistributedStencilRunner", ("run", "step")),
    ],
    "parallel.recover": [
        Method("repro.parallel.simmpi:DistributedStencilRunner", ("_recover",)),
    ],
    "parallel.channel.send": [Method("repro.parallel.simmpi:SimChannel", ("send",))],
    "parallel.channel.recv": [Method("repro.parallel.simmpi:SimChannel", ("recv",))],
    "parallel.halo.ingest": [
        Function("repro.parallel.halo", "ingest_halo"),
        Function("repro.parallel.halo", "synthesize_ghost_into"),
    ],
    "parallel.halo.strip": [Function("repro.parallel.halo", "boundary_strip")],
    "parallel.snapshot": [
        Method("repro.stencil.doublebuffer:DoubleBufferedGrid", ("snapshot_interior",)),
        Method("repro.core.online:OnlineABFT", ("state_snapshot",)),
    ],
    "faults.engine.run": [Method("repro.faults.engine:CampaignEngine", ("run",))],
    "faults.inject": [Function("repro.faults.bitflip", "flip_bit_in_array")],
}

#: Spans each workload exists to exercise; a traced run fails without them.
EXPECTED_SPANS = {
    "hotspot3d": (
        "stencil.grid.step", "stencil.refresh_ghosts", "backends.step_into",
        "backends.sweep_into", "backends.checksum", "core.step", "core.process",
        "core.interpolate", "core.detect", "checkpoint.save",
    ),
    "ranks4": (
        "parallel.runner.step", "parallel.channel.send", "parallel.channel.recv",
        "parallel.halo.ingest", "parallel.halo.strip", "parallel.snapshot",
        "backends.step_into", "backends.sweep_into", "backends.checksum",
        "core.process", "core.interpolate", "core.detect",
    ),
    "campaign": (
        "faults.engine.run", "backends.batch_step_into", "backends.sweep_into",
        "core.step", "core.interpolate", "core.detect", "core.process",
        "core.correct", "checkpoint.save", "checkpoint.rollback", "faults.inject",
    ),
    "crash": (
        "parallel.runner.step", "parallel.recover", "parallel.snapshot",
        "parallel.channel.send", "parallel.channel.recv", "core.process",
        "faults.inject",
    ),
}


class SweepWork:
    """Flops and bytes a sweep call carries, computed from its arguments.

    Per interior point a ``k``-point stencil does ``k`` multiplies and
    ``k - 1`` adds (one more add with a constant term) and touches ``k``
    source values, one output value and, if present, one constant value.
    Bytes are computed from array sizes, not measured: they ignore cache
    reuse and misses.
    """

    def __init__(self) -> None:
        self.flops = 0
        self.bytes = 0
        self._params: Dict[object, list] = {}

    def __call__(self, fn, args, kwargs) -> None:
        names = self._params.get(fn)
        if names is None:
            names = self._params[fn] = list(inspect.signature(fn).parameters)
        bound = dict(zip(names, args))
        bound.update(kwargs)
        source = bound["src_padded"] if "src_padded" in bound else bound["padded"]
        points = int(np.prod(bound["interior_shape"]))
        k = sum(1 for _ in bound["spec"])
        extra = bound.get("constant") is not None
        self.flops += points * (2 * k - 1 + extra)
        self.bytes += points * source.dtype.itemsize * (k + 1 + extra)


def make_tracer() -> Tracer:
    return Tracer(SPANS, on_enter={"backends.sweep_into": SweepWork()})


def missing_spans(workload: str, tracer: Tracer):
    """Expected spans that never fired on ``workload``."""
    return [s for s in EXPECTED_SPANS[workload] if not tracer.calls.get(s)]


def per_layer_metrics(result, tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    Span calls are per round; span self time is a share of the time of
    all traced operations, which, unlike milliseconds, does not move
    with the speed of the machine.
    """
    rounds = max(1, result.traced_rounds)
    roots = [f"leg.{role}" for role in result.traced]
    traced_s = sum(tracer.total_time.get(root, 0.0) for root in roots)
    metrics: Dict[str, float] = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = tracer.calls.get(span, 0) / rounds
        metrics[f"{span}.self_pct"] = (
            100.0 * tracer.self_time.get(span, 0.0) / traced_s if traced_s else 0.0
        )

    work = tracer.on_enter["backends.sweep_into"]
    sweep_s = tracer.self_time.get("backends.sweep_into", 0.0)
    metrics["backends.sweep.flops_per_s"] = work.flops / sweep_s if sweep_s else 0.0
    metrics["backends.sweep.bytes_computed"] = work.bytes / rounds

    # Counters cover every round of the run, the warm-up round included.
    counters = result.counters
    all_rounds = result.rounds + 1

    def per_round(name: str) -> float:
        return counters.get(name, 0.0) / all_rounds

    def ratio(num: str, den: str, empty: float) -> float:
        d = counters.get(den, 0.0)
        return counters.get(num, 0.0) / d if d else empty

    metrics["core.detections"] = per_round("core.detections")
    metrics["core.false_positives"] = per_round("core.false_positives")
    metrics["core.correction_precision"] = ratio(
        "core.precise_corrections", "core.corrections", 1.0
    )
    metrics["checkpoint.recomputed_iterations"] = per_round(
        "checkpoint.recomputed_iterations"
    )
    metrics["parallel.bytes_per_iter.halo"] = ratio(
        "parallel.bytes.halo", "parallel.iterations", 0.0
    )
    metrics["parallel.bytes_per_iter.ckpt"] = ratio(
        "parallel.bytes.ckpt", "parallel.iterations", 0.0
    )
    metrics["parallel.messages_per_iter"] = ratio(
        "parallel.messages", "parallel.iterations", 0.0
    )
    metrics["parallel.retransmits"] = per_round("parallel.retransmits")
    metrics["parallel.replayed_iterations"] = per_round("parallel.replayed_iterations")
    metrics["faults.batches.stacked_share"] = ratio(
        "faults.batches.stacked", "faults.batches", 0.0
    )
    metrics["faults.engine.worker_restarts"] = per_round("faults.engine.worker_restarts")

    # The root span of each operation is named after its leg; its self
    # time is what no traced entry point accounts for.
    op_total = tracer.total_time.get("leg.op", 0.0)
    metrics["trace.coverage_pct"] = (
        100.0 * (1.0 - tracer.self_time.get("leg.op", 0.0) / op_total) if op_total else 0.0
    )
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(result.traced["op"]) / statistics.median(result.samples["op"])
        - 1.0
    )
    return metrics
