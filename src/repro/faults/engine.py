"""High-throughput campaign engine: persistent workers, in-place resets.

:func:`repro.faults.campaign.run_campaign` is the reference serial loop:
every run allocates a fresh grid and a fresh protector and steps them
one at a time.  Monte Carlo campaigns repeat the *same* configuration up
to 1,000 times (Table 1 of the paper), so almost all of that per-run
setup — buffer allocation, protector construction, epsilon/constant
checksum precomputation — is redundant.  :class:`CampaignEngine` removes
it:

* **Batched dispatch.**  Runs are split into contiguous batches and
  dispatched through the executor machinery of
  :mod:`repro.parallel.executor` (``serial`` / ``threads`` / ``process``,
  selected exactly like the tile executors: explicit kind, else the
  process-wide default, else ``REPRO_EXECUTOR``, else serial).  Only the
  campaign payload travels out once per batch and only compact per-run
  record tuples travel back.

* **Persistent per-worker state, reset in place.**  Each worker builds
  the campaign state once (grid, protector, float64 reference scratch)
  and reuses it for every subsequent batch of the same campaign: the
  shared initial domain is copied back into the grid's persistent front
  buffer (:meth:`~repro.stencil.grid.GridBase.restore`), the protector's
  statistics are cleared (:meth:`~repro.core.protector.Protector.reset`)
  and the next run starts — no per-run grid or protector allocation.

* **Pre-drawn fault plans.**  The parent draws every run's fault plans
  up front with the exact ``seed + run_index`` generator sequence of the
  legacy loop, so the injected faults — and therefore every detection,
  correction and arithmetic-error record — are bitwise-identical to
  :func:`run_campaign` regardless of executor kind, worker count or
  batch size.

Two run strategies share that lifecycle:

``replay``
    The universal strategy: the persistent protector drives the
    persistent grid through ``Protector.run`` exactly as the legacy loop
    does, stepping through the backend-owned fused
    ``step_into_with_checksums`` path — so a compiled backend (numba)
    accelerates campaigns the same way it accelerates single runs.
    Bitwise-identical to the legacy loop by construction (same code
    path).  Used for the offline protector (checkpoint/rollback state),
    custom protectors, custom inject hooks, and non-domain fault
    targets (checksum/ghost/payload strikes must replay the exact
    machinery they attack; fail-stop crash plans additionally route to
    the distributed runner's buddy-checkpoint recovery path).

``stacked``
    The batched fast path: the whole batch of runs is laid out as one
    extra trailing axis of a single persistent padded buffer pair, and
    each campaign iteration drives the backend-owned
    :meth:`~repro.backends.base.Backend.batch_step_into_with_checksums`
    primitive — one vectorised NumPy pass on the interpreted backends,
    one generated ``bstep_cs`` kernel call (outer ``prange`` over runs)
    on the compiled numba backend — followed by one stacked Theorem-1
    interpolation and detection screen for all runs at once.  Every
    backend's batched step is per-slot bit-identical to its single-run
    step, and the per-run checksum *chains* are selected to match what
    replay would have fed the protector (fault-carrying runs recompute
    ``np.sum`` checksums after injection, exactly like the hook-driven
    replay path; clean runs trust the fused kernel checksums), so every
    run's numbers are identical to its serial execution.  The rare
    steps on which the vectorised detection screen flags a run are
    delegated, for that run only, to the ordinary
    :meth:`OnlineABFT.process` on per-run views — corrections reuse the
    library implementation verbatim.  Eligibility is checked per
    campaign (:func:`stacked_support_reason`, which names the fallback
    reason the records report); anything else replays.  Stacked versus
    replay is a pure throughput choice — records are bitwise-identical
    either way.

The engine powers every experiment harness
(:mod:`repro.experiments.campaign_runner`, figures 10/11, sensitivity)
and the ``repro campaign`` CLI subcommand;
``benchmarks/bench_campaign.py`` gates the record equivalence, the
zero-allocation property and the throughput gain in CI.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import pickle
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection, Protector
from repro.faults.bitflip import flip_bit_in_array
from repro.faults.campaign import (
    BatchStrategy,
    CampaignConfig,
    CampaignResult,
    GridFactory,
    ProtectorFactory,
    RunRecord,
    compute_reference,
    crash_run_counters,
    resolve_run_counters,
    run_with_crashes,
)
from repro.faults.injector import FaultPlan
from repro.faults.models import make_injector
from repro.parallel.executor import make_executor
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.doublebuffer import DoubleBufferedGrid
from repro.stencil.grid import GridBase
from repro.stencil.shift import interior_view

__all__ = [
    "CampaignEngine",
    "STACKED_WIDTH_ENV_VAR",
    "draw_fault_plans",
    "resolve_stacked_width",
    "stacked_support_reason",
    "stacked_supported",
]

#: Environment variable arming chaos injection into the engine's own
#: worker pool (``worker-kill`` | ``worker-hang``): one pool worker is
#: sacrificed mid-campaign to exercise the detect/restart/re-dispatch
#: path.  Only ever honoured on the process executor.
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Environment variable setting the per-dispatch worker timeout (seconds).
WORKER_TIMEOUT_ENV_VAR = "REPRO_WORKER_TIMEOUT"

#: Chaos modes the engine understands.
_CHAOS_MODES = ("worker-kill", "worker-hang")

#: Timeout armed automatically when a hang is being injected and the
#: caller set none — a hung worker must not stall the campaign forever.
_DEFAULT_CHAOS_TIMEOUT = 30.0

#: Per-worker campaign states kept alive between batches (the whole
#: point of the engine).  Bounded so a long-lived pool sweeping many
#: campaign configurations does not accumulate stacked buffer pairs.
_STATE_CACHE_MAX = 4

#: Environment variable overriding the stacked batch-width cap (lowest
#: precedence is the built-in default; ``CampaignConfig.stacked_width``
#: wins over both).
STACKED_WIDTH_ENV_VAR = "REPRO_STACKED_WIDTH"

#: Default cap on the stacked batch width.  Wider batches amortise the
#: per-call/per-kernel-launch overhead further but grow the persistent
#: buffer pair linearly; 32 runs of the paper's 64x64x8 tile keep the
#: pair ~11 MB.
_DEFAULT_STACKED_WIDTH = 32

#: Signature of a per-run hook factory (sensitivity-style experiments):
#: called in the parent, in run order, so stateful RNG draws match the
#: equivalent serial loop.
HookFactory = Callable[[int], Callable]


def draw_fault_plans(
    config: CampaignConfig, shape: Sequence[int], dtype
) -> List[List[FaultPlan]]:
    """Pre-draw every run's fault plans with the legacy ``seed + i`` scheme.

    Returns one (possibly empty) plan list per run, drawn from the
    campaign's resolved :class:`~repro.faults.models.FaultModel`.  The
    draws replicate :func:`repro.faults.campaign.run_campaign` exactly —
    one fresh ``default_rng(seed + run_index)`` per run, the model's
    plans from it — so engine campaigns inject bit-for-bit the same
    faults as the legacy loop (for the default single-bit-flip model
    this is byte-identical to the historical ``random_fault_plan``
    loop).
    """
    if not config.inject:
        return [[] for _ in range(config.repetitions)]
    fault_model = config.resolved_fault_model()
    plans: List[List[FaultPlan]] = []
    for run_index in range(config.repetitions):
        rng = np.random.default_rng(config.seed + run_index)
        plans.append(
            fault_model.draw(rng, shape, config.iterations, dtype=dtype)
        )
    return plans


def resolve_stacked_width(config: Optional[CampaignConfig] = None) -> int:
    """Resolve the stacked batch-width cap.

    Precedence: ``config.stacked_width`` (when set) over the
    ``REPRO_STACKED_WIDTH`` environment variable over the built-in
    default of 32.  The width is a pure throughput knob — records are
    bitwise-independent of it.
    """
    if config is not None and config.stacked_width is not None:
        return int(config.stacked_width)
    env = os.environ.get(STACKED_WIDTH_ENV_VAR)
    if env:
        try:
            width = int(env)
        except ValueError:
            raise ValueError(
                f"{STACKED_WIDTH_ENV_VAR} must be an integer, got {env!r}"
            ) from None
        if width < 1:
            raise ValueError(
                f"{STACKED_WIDTH_ENV_VAR} must be >= 1, got {width}"
            )
        return width
    return _DEFAULT_STACKED_WIDTH


def _resolved_backend(grid: GridBase, protector: Protector):
    """The backend the protector's sweeps will actually run through."""
    backend = getattr(protector, "backend", None)
    return backend if backend is not None else grid.backend


def stacked_support_reason(
    grid: GridBase, protector: Protector
) -> Optional[str]:
    """Why a campaign cannot take the stacked fast path (``None`` = it can).

    The stacked strategy drives the backend-owned batched step
    primitive, which every backend guarantees per-slot bit-identical to
    its single-run step — so backend choice no longer matters.  What
    still forces replay is *protocol* the batched loop does not
    re-implement: grid subclasses with their own stepping, protectors
    other than the default online one or the unprotected baseline, and
    the online protector's eager row-checksum mode (a second paired
    checksum chain per step).  The returned string is the fallback
    reason campaigns report per batch.
    """
    if not isinstance(grid, GridBase) or grid.ndim not in (2, 3):
        return "grid is not a standard 2D/3D double-buffered grid"
    # A subclass that reimplements stepping owns semantics the stacked
    # sweep would silently bypass.
    if (
        type(grid).step is not GridBase.step
        or type(grid).step_with_checksums is not GridBase.step_with_checksums
    ):
        return "grid subclass overrides stepping"
    if isinstance(protector, NoProtection):
        return None
    if isinstance(protector, OnlineABFT):
        if protector.eager_row_checksum:
            return "online protector pairs row checksums eagerly"
        return None
    name = getattr(protector, "name", type(protector).__name__)
    return f"protector {name!r} has no stacked implementation"


def stacked_supported(grid: GridBase, protector: Protector) -> bool:
    """Whether a campaign qualifies for the stacked batched fast path."""
    return stacked_support_reason(grid, protector) is None


# ---------------------------------------------------------------------------
# Worker-side campaign state
# ---------------------------------------------------------------------------
@dataclass
class _CampaignMeta:
    """Engine-side cache entry for one (grid, protector) factory pair.

    Holding the factories keeps them (and therefore the identity/value
    keys referring to them) alive for the cache's lifetime.
    """

    key_prefix: str
    shape: Tuple[int, ...]
    dtype: np.dtype
    protector_name: str
    grid_factory: GridFactory
    protector_factory: ProtectorFactory
    #: Why this factory pair cannot stack (``None`` = it can) — used to
    #: fail fast, in the parent, when ``strategy="stacked"`` is forced.
    stacked_reason: Optional[str] = None


@dataclass
class _CampaignPayload:
    """Everything a worker needs to (re)build one campaign's state."""

    grid_factory: GridFactory
    protector_factory: ProtectorFactory
    config: CampaignConfig
    reference: np.ndarray


@dataclass
class _BatchTask:
    """One contiguous batch of runs of one campaign.

    The payload rides along with every task (any pool worker may receive
    any batch); workers cache the built state under ``key`` so only the
    first batch a worker sees pays the construction cost.
    """

    key: str
    payload: _CampaignPayload
    start: int
    plans: Tuple[Tuple[FaultPlan, ...], ...]
    hooks: Optional[Tuple] = None
    #: The campaign's full batch width.  A worker may receive the
    #: (smaller) final batch first, so the stacked state is sized from
    #: this hint rather than from the batch that happens to build it.
    width_hint: int = 1
    #: Caller requested the replay strategy even where stacking is
    #: eligible (per-run timing fidelity; see ``CampaignEngine.run``).
    force_replay: bool = False
    #: Chaos marker (``worker-kill`` | ``worker-hang``): the worker that
    #: picks this batch up sabotages itself before running it, so the
    #: engine's failure detection and re-dispatch can be exercised end
    #: to end.  Only ever set by the engine on the process executor, and
    #: stripped when the lost batch is re-dispatched.
    chaos: Optional[str] = None


class _StackedBatch:
    """Persistent stacked buffer pair executing whole batches of runs.

    The batch of runs is one trailing axis of a single padded
    :class:`DoubleBufferedGrid` pair.  Per campaign iteration: one
    backend-owned batched step
    (:meth:`~repro.backends.base.Backend.batch_step_into_with_checksums`
    — fused ghost refresh, sweep and checksum fold for every run in one
    vectorised pass or one compiled ``prange``-over-runs kernel), one
    Theorem-1 interpolation and one detection screen — each acting on
    every run of the batch at once.  All buffers are allocated once and
    reset in place between batches.
    """

    def __init__(
        self,
        grid: GridBase,
        protector: Protector,
        width: int,
        initial: np.ndarray,
    ) -> None:
        self.width = int(width)
        self.base_shape = grid.shape
        self.base_radius = grid.radius
        self.dtype = grid.dtype
        self.spec = grid.spec
        self.backend = _resolved_backend(grid, protector)
        # Domain-axis boundary: the backend's batched step treats the
        # trailing run axis itself (ghost width 0, never refreshed).
        self.base_boundary = BoundarySpec.from_any(
            grid.boundary, len(self.base_shape)
        )
        shape = self.base_shape + (self.width,)
        radius = tuple(self.base_radius) + (0,)
        boundary = BoundarySpec(
            tuple(self.base_boundary) + (BoundaryCondition.clamp(),)
        )
        self.shape = shape
        self.radius = radius
        self.boundary = boundary
        # The campaign's shared initial domain — passed explicitly (the
        # worker grid may hold the final state of an earlier replay run).
        self.initial = np.ascontiguousarray(initial)[..., None]
        self.pair = DoubleBufferedGrid(
            np.broadcast_to(self.initial, shape), radius, boundary,
            dtype=self.dtype,
        )
        self.constant = grid.constant
        # Batch-extended (offset, weight) pairs for the stacked Theorem-1
        # interpolation: the batch axis never shifts.
        self.spec_ext = tuple((tuple(o) + (0,), w) for o, w in self.spec)

        self.protector: Optional[OnlineABFT] = None
        if isinstance(protector, OnlineABFT):
            self.protector = protector
            self.verify_axis = protector.verify_axis
            self.cs_dtype = protector.checksum_dtype
            self.epsilon = protector.epsilon
            cs = protector._constant_sums[self.verify_axis]
            self.constant_sum = None if cs is None else cs[..., None]

    def run_batch(
        self,
        plans: Sequence[Sequence[FaultPlan]],
        config: CampaignConfig,
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Execute one batch of runs; returns (counters, finals, elapsed).

        ``counters`` has shape ``(batch, 3)`` — detections, corrections,
        uncorrected — ``finals`` is the stacked final interiors (a view
        into the pair, valid until the next batch), and ``elapsed`` is
        the wall-clock time of the iteration loop only (resets and error
        norms excluded, matching what the legacy loop times).
        """
        width = len(plans)
        if width > self.width:
            raise ValueError(
                f"batch of {width} runs exceeds stacked width {self.width}"
            )
        iterations = config.iterations
        # In-place reset: every slot restarts from the shared initial
        # domain; no allocation.
        interior_view(self.pair.front, self.radius)[..., :width] = self.initial

        by_iteration: Dict[int, List[Tuple[int, FaultPlan]]] = {}
        for slot, run_plans in enumerate(plans):
            for plan in run_plans:
                by_iteration.setdefault(plan.iteration, []).append((slot, plan))

        counters = np.zeros((width, 3), dtype=np.int64)
        protector = self.protector
        verify = self.verify_axis if protector is not None else 0
        # Which slots carry fault plans decides each slot's checksum
        # *chain*: the replay strategy computes ``np.sum`` checksums on
        # every step of a hook-driven (fault-carrying) run but trusts
        # the fused kernel checksums on clean runs, so the stacked loop
        # reproduces both chains — that keeps records bitwise-identical
        # to replay on every backend, compiled ones included.
        fault_slots = np.array(
            [bool(run_plans) for run_plans in plans], dtype=bool
        )
        any_fault = bool(fault_slots.any())
        all_fault = bool(fault_slots.all())
        backend = self.backend

        start = time.perf_counter()
        interior = interior_view(self.pair.front, self.radius)[..., :width]
        if protector is not None:
            # Step t=0 data assumed correct (Theorem 2), as in
            # OnlineABFT.step's first-iteration checksum seed.
            prev_cs = np.sum(interior, axis=verify, dtype=self.cs_dtype)
        for t in range(1, iterations + 1):
            src = self.pair.front[..., :width]
            dst = self.pair.back[..., :width]
            if protector is None or all_fault:
                # No clean slot wants kernel checksums: take the plain
                # batched step and reduce after injection (below).
                backend.batch_step_into(
                    src, dst, self.spec, self.base_radius, self.base_shape,
                    self.base_boundary, constant=self.constant,
                )
                cs = None
            else:
                _, cs_map = backend.batch_step_into_with_checksums(
                    src, dst, self.spec, self.base_radius, self.base_shape,
                    self.base_boundary, (verify,), constant=self.constant,
                    checksum_dtype=self.cs_dtype,
                )
                cs = cs_map[verify]
            self.pair.swap()
            interior = interior_view(self.pair.front, self.radius)[..., :width]
            fired = by_iteration.get(t)
            if fired is not None:
                for slot, plan in fired:
                    flip_bit_in_array(interior[..., slot], plan.index, plan.bit)
            if protector is None:
                continue
            if any_fault:
                # Post-injection ``np.sum`` chain for fault-carrying
                # slots, exactly like replay's hook-driven path.
                post = np.sum(interior, axis=verify, dtype=self.cs_dtype)
                if cs is None:
                    cs = post
                else:
                    cs[..., fault_slots] = post[..., fault_slots]
            predicted = _interpolate_stacked(
                prev_cs,
                self.pair.back[..., :width],
                self.spec_ext,
                self.radius,
                self.base_shape + (width,),
                verify,
                self.constant_sum,
            )
            flagged = _detection_screen(cs, predicted, self.epsilon)
            if flagged is not None:
                for slot in flagged:
                    # Delegate the rare detection step to the library
                    # protector on per-run views: the checksum recompute,
                    # interpolation, localisation and correction are the
                    # exact legacy code (bitwise-equal inputs, so the
                    # same decision the screen made), and corrections
                    # write back into the stacked pair through the view.
                    protector.reset()
                    # Route through the protector's store helper so its
                    # duplicated-checksum self-check state stays
                    # consistent with the seeded checksum.
                    protector._store_prev_cs(
                        verify, np.ascontiguousarray(prev_cs[..., slot])
                    )
                    report = protector.process(
                        interior[..., slot], self.pair.back[..., slot], t
                    )
                    counters[slot, 0] += report.errors_detected
                    counters[slot, 1] += report.errors_corrected
                    counters[slot, 2] += report.errors_uncorrected
                    cs[..., slot] = protector._prev_cs[verify]
            prev_cs = cs
        elapsed = time.perf_counter() - start
        if protector is not None:
            protector.reset()
        return counters, interior, elapsed


def _interpolate_stacked(
    prev_cs: np.ndarray,
    padded_prev: np.ndarray,
    spec_ext,
    radius,
    shape,
    verify: int,
    constant_sum: Optional[np.ndarray],
) -> np.ndarray:
    """Theorem-1 interpolation of the whole batch in one call.

    ``interpolate_checksum_padded`` is dimension-generic and only
    iterates ``(offset, weight)`` pairs from its ``spec`` argument, so
    handing it the batch-extended offsets (batch axis shift 0, ghost
    radius 0) interpolates every run's checksum at once; the boundary
    strips it reduces are per-run independent, keeping the result
    bitwise equal to the per-run calls of the serial protector.
    """
    from repro.core.interpolation import interpolate_checksum_padded

    return interpolate_checksum_padded(
        prev_cs, padded_prev, spec_ext, radius, shape, verify,
        constant_sum=constant_sum,
    )


def _detection_screen(
    computed: np.ndarray, predicted: np.ndarray, epsilon: float
) -> Optional[np.ndarray]:
    """Batch slots whose checksums mismatch, or ``None`` when all clean.

    Replicates :func:`repro.core.detection.relative_discrepancy`
    elementwise over the stacked checksums, so a slot is flagged exactly
    when the serial protector's ``detect_errors`` would have flagged the
    run — the flagged slots then re-run the full detection on their own
    views.
    """
    from repro.core.detection import relative_discrepancy

    rel = relative_discrepancy(computed, predicted)
    flagged = rel > epsilon
    if not flagged.any():
        return None
    return np.unique(np.argwhere(flagged)[:, -1])


class _WorkerCampaign:
    """One worker's persistent state for one campaign configuration."""

    def __init__(self, payload: _CampaignPayload, batch_width: int) -> None:
        self.config = payload.config
        self.batch_width = max(1, int(batch_width))
        self.grid = payload.grid_factory()
        self.protector = payload.protector_factory(self.grid)
        self.snapshot0 = self.grid.snapshot()
        # Float64 reference + scratch for the allocation-free l2 error
        # (bitwise-identical to repro.metrics.accuracy.l2_error).
        self.reference64 = np.asarray(payload.reference, dtype=np.float64)
        self._diff64 = np.empty(self.reference64.shape, dtype=np.float64)
        self._final32 = np.empty(self.grid.shape, dtype=self.grid.dtype)
        self.stacked: Optional[_StackedBatch] = None
        self.stacked_reason = stacked_support_reason(self.grid, self.protector)
        self.use_stacked = self.stacked_reason is None
        # One short warm-up pays the one-off costs (lazy imports, scratch
        # growth, JIT cache loads) outside the timed runs, mirroring the
        # legacy loop's untimed warm-up run.
        self.protector.reset()
        self.protector.run(self.grid, min(3, self.config.iterations))
        self.grid.restore(self.snapshot0)
        self.protector.reset()
        if self.use_stacked:
            # Warm the backend's batched layout too (a no-op on the
            # interpreted backends; the numba backend compiles — or
            # loads from its disk cache — the bstep/bstep_cs kernels
            # for both the contiguous full batch and the strided final
            # partial batch), so no timed stacked batch pays JIT cost.
            _resolved_backend(self.grid, self.protector).warmup(
                self.grid.spec,
                boundary=self.grid.boundary,
                dtype=self.grid.dtype,
                checksum_dtype=getattr(
                    self.protector, "checksum_dtype", np.float64
                ),
                radius=self.grid.radius,
                batch_width=3,
            )

    def _ensure_stacked(self, width: int) -> _StackedBatch:
        # Built lazily (hook-driven campaigns replay and never need the
        # stacked pair) and regrown if a wider batch ever arrives.  The
        # snapshot — never the grid, which an earlier replay batch may
        # have left at its final state — seeds every stacked slot.
        if self.stacked is None or self.stacked.width < width:
            self.stacked = _StackedBatch(
                self.grid,
                self.protector,
                max(width, self.batch_width),
                self.snapshot0.interior,
            )
        return self.stacked

    def _l2_error(self, u: np.ndarray) -> float:
        """``l2_error(reference, u)`` without the full-domain temporaries."""
        np.subtract(self.reference64, u, out=self._diff64)
        np.multiply(self._diff64, self._diff64, out=self._diff64)
        return float(np.sqrt(np.sum(self._diff64)))

    def execute(self, task: _BatchTask) -> Tuple[str, Optional[str], List[Tuple]]:
        """Run one batch; returns ``(strategy, fallback_reason, rows)``.

        ``strategy`` is the strategy actually used (``"stacked"`` |
        ``"replay"``); ``fallback_reason`` names why replay was chosen
        when it was (``None`` under stacked).
        """
        # The stacked fast path only knows how to flip domain values;
        # checksum/ghost/payload-targeted plans replay through the full
        # protector machinery they attack.
        only_domain = all(
            p.target == "domain" for run_plans in task.plans for p in run_plans
        )
        if task.force_replay:
            reason: Optional[str] = "replay strategy requested"
        elif task.hooks is not None:
            reason = "opaque inject hook replaces the plan injector"
        elif not only_domain:
            reason = "non-domain fault target"
        else:
            reason = self.stacked_reason
        if reason is None:
            return "stacked", None, self._execute_stacked(task)
        return "replay", reason, self._execute_replay(task)

    def _execute_stacked(self, task: _BatchTask) -> List[Tuple]:
        stacked = self._ensure_stacked(len(task.plans))
        counters, finals, elapsed = stacked.run_batch(task.plans, self.config)
        width = len(task.plans)
        per_run = elapsed / max(1, width)
        results: List[Tuple] = []
        for slot in range(width):
            # Contiguous copy first: the error norm then reduces exactly
            # the arrays the serial loop reduces.
            self._final32[...] = finals[..., slot]
            error = self._l2_error(self._final32)
            det, cor, unc = (int(v) for v in counters[slot])
            results.append(
                (task.start + slot, per_run, error, det, cor, unc, 0, 0, 0, 0)
            )
        return results

    def _execute_replay(self, task: _BatchTask) -> List[Tuple]:
        results: List[Tuple] = []
        for slot, run_plans in enumerate(task.plans):
            if any(p.target == "crash" for p in run_plans):
                results.append(self._execute_crash(task.start + slot, run_plans))
                continue
            self.grid.restore(self.snapshot0)
            self.protector.reset()
            if task.hooks is not None:
                hook = task.hooks[slot]
            else:
                hook = make_injector(list(run_plans), self.protector)
            start = time.perf_counter()
            report = self.protector.run(
                self.grid, self.config.iterations, inject=hook
            )
            elapsed = time.perf_counter() - start
            det, cor, unc, rb, rec = resolve_run_counters(self.protector, report)
            error = self._l2_error(self.grid.u)
            results.append(
                (task.start + slot, elapsed, error, det, cor, unc, rb, rec, 0, 0)
            )
        return results

    def _execute_crash(self, run_index: int, run_plans) -> Tuple:
        """One fail-stop run on the distributed recovery path.

        The persistent grid is restored to the shared initial state and
        handed to :func:`run_with_crashes` exactly as the legacy loop
        hands it a fresh factory grid — the runner scatters a copy, so
        the worker's persistent buffers survive untouched for the next
        slot.  Counters and recovery accounting come from the same
        :func:`crash_run_counters` helper, keeping engine records
        bitwise-identical to the serial loop.
        """
        self.grid.restore(self.snapshot0)
        self.protector.reset()
        elapsed, runner = run_with_crashes(
            self.grid,
            self.protector,
            list(run_plans),
            self.config.iterations,
            self.config.resolved_fault_model(),
        )
        det, cor, unc, rb, rec, rebuilt, ck_bytes = crash_run_counters(runner)
        self._final32[...] = runner.gather()
        error = self._l2_error(self._final32)
        return (
            run_index, elapsed, error, int(det), int(cor), int(unc),
            int(rb), int(rec), int(rebuilt), int(ck_bytes),
        )


_WORKER_LOCAL = threading.local()


def _trigger_chaos(mode: str) -> None:
    """Sabotage this worker process (chaos testing of the dispatch loop).

    Only ever reached inside a process-pool worker — the engine refuses
    to set chaos markers on the serial/thread executors, where an
    ``os._exit`` would take the parent (or the whole test process) down
    with it.
    """
    if mode == "worker-kill":
        os._exit(43)
    if mode == "worker-hang":
        time.sleep(3600)
        return
    raise ValueError(f"unknown chaos mode {mode!r}; expected {_CHAOS_MODES}")


def _execute_batch(task: _BatchTask) -> Tuple[str, Optional[str], List[Tuple]]:
    """Worker entry point: resolve (or build) the cached state, run one batch.

    Module-level so process pools can import it by reference; the state
    cache is thread-local so the thread executor's workers never share
    mutable campaign state.
    """
    if task.chaos is not None:
        _trigger_chaos(task.chaos)
    cache: Dict[str, _WorkerCampaign] = getattr(_WORKER_LOCAL, "cache", None)
    if cache is None:
        cache = _WORKER_LOCAL.cache = {}
    state = cache.get(task.key)
    if state is None:
        if len(cache) >= _STATE_CACHE_MAX:
            cache.clear()
        state = cache[task.key] = _WorkerCampaign(task.payload, task.width_hint)
    return state.execute(task)


def _execute_batch_group(
    tasks: Sequence[_BatchTask],
) -> List[Tuple[str, Optional[str], List[Tuple]]]:
    """Run a contiguous group of batches in one pool task.

    The process executor dispatches one group per worker: all batches of
    a group travel in a single pickle graph, where the shared campaign
    payload (reference array, factories) is memoised and serialised
    once — instead of once per batch — keeping the pipe traffic at
    "payload once per worker plus compact record tuples".
    """
    return [_execute_batch(task) for task in tasks]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class CampaignEngine:
    """Throughput-oriented campaign harness over a persistent worker pool.

    Parameters
    ----------
    executor:
        Executor kind (``"serial"``, ``"threads"``, ``"process"``) or
        ``None`` to follow the process-wide default chain (what
        ``--executor`` / ``REPRO_EXECUTOR`` select), exactly like
        :func:`repro.parallel.executor.make_executor`.
    workers:
        Worker count for the pool executors (``None`` →
        :func:`resolve_workers`' default chain).
    batch_size:
        Runs per dispatched batch (``None`` → automatic: bounded by 32
        and by an even split across the workers).  Batch size affects
        scheduling and the stacked width only — records are
        bitwise-independent of it.
    worker_timeout:
        Seconds to wait for each dispatched wave of batches on the
        process executor before declaring the stragglers hung,
        restarting the pool and re-dispatching them (``None`` → wait
        forever, unless a hang is being chaos-injected, in which case a
        default timeout is armed; also settable via
        ``REPRO_WORKER_TIMEOUT``).  Timeouts never change records: a
        re-dispatched batch replays the same pre-drawn plans.
    max_dispatch_attempts:
        Upper bound on dispatch waves for one campaign (first attempt
        included) before the engine gives up with a ``RuntimeError`` —
        the guard against a factory that crashes every worker it
        touches.
    chaos:
        Chaos-testing mode (``"worker-kill"`` | ``"worker-hang"``;
        also settable via ``REPRO_CHAOS``): one batch per campaign is
        marked so the pool worker that picks it up kills or hangs
        itself, exercising the detect/restart/re-dispatch path.
        Honoured on the process executor only — records must stay
        bitwise-identical to an undisturbed run, which
        :attr:`worker_restarts` (incremented per pool restart) makes
        observable.

    Notes
    -----
    Results are identical to :func:`run_campaign` for every field except
    ``elapsed_seconds`` (a measurement, not a result; under the stacked
    strategy each run of a batch reports the batch mean).  The engine is
    reusable and cheap to keep around: worker-side campaign state is
    cached between :meth:`run` calls with the same factories, which is
    what makes chunked benchmark loops and multi-scenario experiment
    sweeps fast.  Use as a context manager (or call :meth:`shutdown`) to
    release pool workers deterministically.
    """

    def __init__(
        self,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        worker_timeout: Optional[float] = None,
        max_dispatch_attempts: int = 3,
        chaos: Optional[str] = None,
    ) -> None:
        self._kind = executor
        self._workers = workers
        self.batch_size = None if batch_size is None else max(1, int(batch_size))
        if worker_timeout is None:
            env = os.environ.get(WORKER_TIMEOUT_ENV_VAR)
            if env:
                worker_timeout = float(env)
        if worker_timeout is not None and worker_timeout <= 0:
            raise ValueError("worker_timeout must be > 0 seconds")
        self.worker_timeout = worker_timeout
        self.max_dispatch_attempts = max(1, int(max_dispatch_attempts))
        if chaos is None:
            chaos = os.environ.get(CHAOS_ENV_VAR) or None
        if chaos is not None and str(chaos).lower() in ("off", "none", "0"):
            # Explicit disable: lets a caller pin an undisturbed engine
            # even when REPRO_CHAOS is set in the environment (the chaos
            # smoke benchmark compares exactly such a pair).
            chaos = None
        if chaos is not None and chaos not in _CHAOS_MODES:
            raise ValueError(
                f"unknown chaos mode {chaos!r}; expected one of {_CHAOS_MODES}"
            )
        self.chaos = chaos
        #: Pool restarts performed after a worker death/hang (cumulative
        #: across :meth:`run` calls) — the observable proof that a chaos
        #: run actually lost and re-dispatched a batch.
        self.worker_restarts = 0
        self._executor = None
        # Campaign metadata keyed by the factory pair *by value* (bound
        # methods and the experiment factory dataclasses hash/compare by
        # content, so repeated ``engine.run(app.build_grid, factory)``
        # calls — the chunked-benchmark and figure-sweep pattern — hit
        # the same entry and reuse the worker-side state).  Unhashable
        # factories fall back to identity keys.
        self._campaigns: Dict[object, "_CampaignMeta"] = {}
        self._key_serial = 0
        self._token = f"{id(self):x}-{time.monotonic_ns():x}"

    # -- executor lifecycle -------------------------------------------------
    @property
    def executor(self):
        """The lazily built executor running this engine's batches."""
        if self._executor is None:
            self._executor = make_executor(self._kind, self._workers)
        return self._executor

    def shutdown(self) -> None:
        """Release the worker pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    @classmethod
    @contextmanager
    def shared(
        cls, engine: Optional["CampaignEngine"] = None, **kwargs
    ) -> Iterator["CampaignEngine"]:
        """Yield ``engine`` as-is, or a private one shut down on exit.

        The experiment harnesses all take an optional engine so a caller
        can keep one worker pool alive across figures; this is the one
        place the create-if-absent/shutdown-if-owned lifecycle lives.
        """
        if engine is not None:
            yield engine
            return
        own = cls(**kwargs)
        try:
            yield own
        finally:
            own.shutdown()

    # -- dispatch ------------------------------------------------------------
    def _campaign_meta(
        self, grid_factory, protector_factory
    ) -> "_CampaignMeta":
        """Per-campaign metadata, resolved once per factory pair.

        Besides the worker-cache key prefix, the entry caches the sample
        grid's shape/dtype and the protector name, so repeated
        :meth:`run` calls (chunked benchmarks, figure sweeps) skip the
        sample-grid construction entirely.  The key deliberately
        excludes ``seed`` and ``repetitions``, which do not enter the
        persistent worker state.
        """
        try:
            ident: object = (grid_factory, protector_factory)
            meta = self._campaigns.get(ident)
        except TypeError:  # unhashable factory
            ident = (id(grid_factory), id(protector_factory))
            meta = self._campaigns.get(ident)
        if meta is None:
            if len(self._campaigns) >= 64:
                self._campaigns.clear()
            self._key_serial += 1
            sample = grid_factory()
            sample_protector = protector_factory(sample)
            meta = _CampaignMeta(
                key_prefix=f"engine-{self._token}-{self._key_serial}",
                shape=sample.shape,
                dtype=sample.dtype,
                protector_name=getattr(sample_protector, "name", "protector"),
                grid_factory=grid_factory,
                protector_factory=protector_factory,
                stacked_reason=stacked_support_reason(
                    sample, sample_protector
                ),
            )
            self._campaigns[ident] = meta
        return meta

    @staticmethod
    def _campaign_key(
        meta: "_CampaignMeta", config: CampaignConfig, reference: np.ndarray
    ) -> str:
        """Worker-cache key: factory pair + iterations + reference digest.

        The digest guards against a caller handing a different baseline
        for the same factories — a stale error scratch would silently
        skew every arithmetic-error record.
        """
        digest = hashlib.sha1(
            np.ascontiguousarray(reference).tobytes()
        ).hexdigest()[:12]
        return f"{meta.key_prefix}-i{config.iterations}-r{digest}"

    def _auto_batch(self, repetitions: int, config: CampaignConfig) -> int:
        if self.batch_size is not None:
            return min(self.batch_size, repetitions)
        workers = getattr(self.executor, "workers", 1) or 1
        spread = -(-repetitions // workers)  # ceil
        return max(1, min(resolve_stacked_width(config), spread))

    def run(
        self,
        grid_factory: GridFactory,
        protector_factory: ProtectorFactory,
        config: CampaignConfig,
        reference: Optional[np.ndarray] = None,
        hook_factory: Optional[HookFactory] = None,
        strategy: Optional[str] = None,
    ) -> CampaignResult:
        """Execute a campaign; same contract as :func:`run_campaign`.

        Parameters
        ----------
        grid_factory, protector_factory, config, reference:
            As for :func:`repro.faults.campaign.run_campaign`.  With the
            process executor both factories must be picklable (the
            experiment factories are; ad-hoc closures are not — use the
            serial or thread executor for those).
        hook_factory:
            Optional per-run inject-hook factory, called in the parent
            in run order (so factories drawing from a shared RNG see the
            same sequence as an explicit serial loop).  Hooks force the
            replay strategy and *replace* the fault-plan injector, so
            they are only valid on campaigns with ``inject=False`` — a
            record must never carry fault plans that did not fire.
            Hooks must be picklable under the process executor.
        strategy:
            ``None``/``"auto"`` picks the fastest eligible strategy per
            campaign; ``"replay"`` forces the per-run replay even where
            stacking is eligible; ``"stacked"`` demands the stacked fast
            path and raises ``ValueError`` (naming the fallback reason)
            when the campaign cannot take it.  Use ``"replay"`` when the
            *per-run time distribution* is the experiment's measurand
            (Figure 8): the stacked strategy executes a whole batch
            together and can only report the batch-mean elapsed per run.
            The strategy each batch actually used is reported in
            :attr:`CampaignResult.batch_strategies`.
        """
        if hook_factory is not None and config.inject:
            raise ValueError(
                "hook_factory replaces the fault-plan injector; use "
                "inject=False (records would otherwise carry fault plans "
                "that never fired)"
            )
        if strategy not in (None, "auto", "stacked", "replay"):
            raise ValueError(
                f"unknown strategy {strategy!r}; expected 'auto', "
                f"'stacked' or 'replay'"
            )
        force_replay = strategy == "replay"
        if reference is None:
            reference = compute_reference(grid_factory, config.iterations)
        meta = self._campaign_meta(grid_factory, protector_factory)
        plans = draw_fault_plans(config, meta.shape, meta.dtype)
        if strategy == "stacked":
            # Fail fast in the parent: every blocker a worker would hit
            # is decidable here from the meta sample and the pre-drawn
            # plans, so a forced-stacked campaign never silently replays.
            if hook_factory is not None:
                raise ValueError(
                    "strategy 'stacked' is unavailable: opaque inject "
                    "hooks replace the plan injector and force replay"
                )
            if meta.stacked_reason is not None:
                raise ValueError(
                    f"strategy 'stacked' is unavailable: "
                    f"{meta.stacked_reason}"
                )
            bad_targets = sorted(
                {
                    p.target
                    for run_plans in plans
                    for p in run_plans
                    if p.target != "domain"
                }
            )
            if bad_targets:
                raise ValueError(
                    f"strategy 'stacked' is unavailable: non-domain "
                    f"fault target(s) {bad_targets} replay the "
                    f"protector machinery they attack"
                )
        hooks = None
        if hook_factory is not None:
            hooks = [hook_factory(i) for i in range(config.repetitions)]

        payload = _CampaignPayload(
            grid_factory=grid_factory,
            protector_factory=protector_factory,
            config=config,
            reference=np.asarray(reference),
        )
        key = self._campaign_key(meta, config, payload.reference)
        batch = self._auto_batch(config.repetitions, config)
        tasks: List[_BatchTask] = []
        for start in range(0, config.repetitions, batch):
            stop = min(start + batch, config.repetitions)
            tasks.append(
                _BatchTask(
                    key=key,
                    payload=payload,
                    start=start,
                    plans=tuple(tuple(p) for p in plans[start:stop]),
                    hooks=None if hooks is None else tuple(hooks[start:stop]),
                    width_hint=batch,
                    force_replay=force_replay,
                )
            )

        executor = self.executor
        if executor.kind == "process":
            self._check_picklable(tasks[0])
            rows_by_task = self._dispatch_process(executor, tasks)
            batches = [rows_by_task[i] for i in range(len(tasks))]
        else:
            batches = executor.map(_execute_batch, tasks)

        result = CampaignResult(
            config=config, protector_name=meta.protector_name
        )
        for task, (used, reason, rows) in zip(tasks, batches):
            result.batch_strategies.append(
                BatchStrategy(
                    start=task.start,
                    width=len(task.plans),
                    strategy=used,
                    reason=reason,
                )
            )
            for row in rows:
                (
                    run_index, elapsed, error, det, cor, unc, rb, rec,
                    rebuilt, ck_bytes,
                ) = row
                run_plans = list(plans[run_index])
                result.records.append(
                    RunRecord(
                        run_index=run_index,
                        elapsed_seconds=float(elapsed),
                        arithmetic_error=float(error),
                        fault=run_plans[0] if run_plans else None,
                        errors_detected=int(det),
                        errors_corrected=int(cor),
                        errors_uncorrected=int(unc),
                        rollbacks=int(rb),
                        recomputed_iterations=int(rec),
                        faults=run_plans,
                        ranks_rebuilt=int(rebuilt),
                        checkpoint_bytes=int(ck_bytes),
                    )
                )
        return result

    def _dispatch_process(
        self, executor, tasks: Sequence[_BatchTask]
    ) -> Dict[int, Tuple[str, Optional[str], List[Tuple]]]:
        """Supervised dispatch to the process pool, resilient to worker loss.

        Each wave submits the still-pending batches as one contiguous
        task group per worker (the shared campaign payload pickles once
        per group) and supervises the futures directly: results of
        groups that completed are banked even when a sibling group's
        worker died (a dead worker breaks the whole
        ``ProcessPoolExecutor``, failing every outstanding future) or
        hung past ``worker_timeout``.  The pool is then restarted and
        only the lost batches are re-dispatched — with any chaos marker
        stripped, so an injected failure strikes exactly once.  Only a
        dead worker (``BrokenProcessPool``) or a hang counts as a lost
        batch: any other exception raised inside a worker is re-raised
        at once, chained, naming the batch's first run and width.  Records
        are bitwise-independent of all of this: batches carry their
        pre-drawn plans, and a re-run of a batch is deterministic.
        """
        pending: Dict[int, _BatchTask] = dict(enumerate(tasks))
        if self.chaos is not None and pending:
            victim = len(tasks) // 2
            pending[victim] = replace(pending[victim], chaos=self.chaos)
        results: Dict[int, Tuple[str, Optional[str], List[Tuple]]] = {}
        attempts = 0
        while pending:
            attempts += 1
            if attempts > self.max_dispatch_attempts:
                raise RuntimeError(
                    f"{len(pending)} campaign batches still undone after "
                    f"{self.max_dispatch_attempts} dispatch attempts "
                    f"({self.worker_restarts} pool restarts so far): the "
                    f"worker pool keeps dying or hanging — check that the "
                    f"campaign factories are sound before raising "
                    f"max_dispatch_attempts"
                )
            indices = sorted(pending)
            workers = max(1, getattr(executor, "workers", 1) or 1)
            n_groups = min(workers, len(indices))
            base, extra = divmod(len(indices), n_groups)
            groups: List[List[int]] = []
            start_idx = 0
            for g in range(n_groups):
                size = base + (1 if g < extra else 0)
                groups.append(indices[start_idx:start_idx + size])
                start_idx += size
            timeout = self.worker_timeout
            if timeout is None and any(
                t.chaos == "worker-hang" for t in pending.values()
            ):
                timeout = _DEFAULT_CHAOS_TIMEOUT
            futures = {
                executor.submit(
                    _execute_batch_group, [pending[i] for i in group]
                ): group
                for group in groups
            }
            done, not_done = concurrent.futures.wait(futures, timeout=timeout)
            wave_failed = bool(not_done)
            for future in done:
                group = futures[future]
                try:
                    group_rows = future.result()
                except BrokenProcessPool:
                    # This group's worker (or a sibling's) died; its
                    # batches stay pending for the next wave.
                    wave_failed = True
                    continue
                except Exception as exc:
                    # The worker survived but the batch code raised: a
                    # restart would only repeat it, so surface the cause.
                    start = pending[group[0]].start
                    width = sum(len(pending[i].plans) for i in group)
                    raise RuntimeError(
                        f"campaign batch starting at run {start} (width "
                        f"{width}) raised inside a worker process: {exc!r}"
                    ) from exc
                for task_index, rows in zip(group, group_rows):
                    results[task_index] = rows
                    pending.pop(task_index, None)
            if pending and wave_failed:
                self.worker_restarts += 1
                restart = getattr(executor, "restart", None)
                if restart is not None:
                    restart()
                # The injected failure already struck (its worker died or
                # hung with the marked batch in hand); the re-dispatched
                # batches must run clean.
                pending = {
                    i: replace(t, chaos=None) if t.chaos is not None else t
                    for i, t in pending.items()
                }
        return results

    @staticmethod
    def _check_picklable(task: _BatchTask) -> None:
        try:
            pickle.dumps(task)
        except Exception as exc:
            raise ValueError(
                "the process executor requires picklable campaign "
                "factories (module-level callables or factory objects; "
                "see repro.experiments.common.make_protector_factory) — "
                f"pickling the first batch failed with: {exc!r}"
            ) from None
