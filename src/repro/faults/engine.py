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
  campaign payload travels out once per batch and only the batch's
  :class:`~repro.faults.campaign.RunRecord` list travels back.

* **Persistent per-worker state, reset in place.**  Each worker builds
  the campaign state once (grid, protector, float64 reference scratch)
  and reuses it for every subsequent batch of the same campaign: the
  shared initial domain is copied back into the grid's persistent front
  buffer (:meth:`~repro.stencil.grid.GridBase.restore`), the protector's
  statistics are cleared (:meth:`~repro.core.protector.Protector.reset`)
  and the next run starts — no per-run grid or protector allocation.

* **Pre-drawn fault plans.**  The parent draws every run's fault plans
  up front with :func:`~repro.faults.campaign.draw_fault_plans`, the draw
  the legacy loop makes, so the injected faults — and therefore every
  detection, correction and arithmetic-error record — are
  bitwise-identical to :func:`run_campaign` regardless of executor kind,
  worker count or batch size.

* **Supervised process dispatch.**  On the process executor a worker
  that dies, or hangs past ``worker_timeout``, loses only its own
  batches: the engine banks the batches that finished, restarts the
  pool and re-dispatches the rest, for at most three waves per
  campaign.  A re-dispatched batch replays its pre-drawn plans, so the
  records do not change.

Two run strategies share that lifecycle:

``replay``
    The universal strategy: each run restores the persistent grid in
    place and calls :func:`~repro.faults.campaign.run_one`, the per-run
    function the legacy loop calls on its fresh grid — so replay is
    bitwise-identical to the legacy loop by construction, and whatever
    speeds up a single run speeds up campaigns the same way.  Used for
    custom protectors and subclasses of the library ones (whose own
    methods the stacked loop would skip), the online protector's eager
    row checksums, custom inject hooks, and non-domain fault targets
    (stored-checksum strikes must replay the exact machinery they
    attack; fail-stop crash plans take ``run_one``'s branch onto the
    distributed runner's buddy-checkpoint recovery path).

``stacked``
    The batched fast path: the whole batch of runs is laid out as one
    extra trailing axis of a single persistent padded buffer pair, and
    each campaign iteration drives the backend-owned
    :meth:`~repro.backends.base.Backend.batch_step_into` primitive —
    one vectorised pass over the whole batch — then applies that
    iteration's bit flips (each through
    :func:`~repro.faults.injector.flip_plan`, the rule every plan flip
    follows), reduces every run's checksum with the
    protector's ``Backend.checksum`` (one call over a full-width batch's
    column checksums, one call per run otherwise) and runs one stacked
    Theorem-1 interpolation (given the pair's boundary, as a replayed
    run's step gives its grid's) and detection screen for all runs at
    once.
    The backend's batched step is per-slot bit-identical to its
    single-run step, and each run's checksum is the reduction replay's
    protector makes, taken after the run's flips as replay takes it
    after its inject hook, so every run's numbers are identical to its
    serial execution.  The rare steps on which the
    vectorised detection screen flags a run are delegated, for that run
    only, to the ordinary
    :meth:`OnlineABFT.process` on per-run views — corrections reuse the
    library implementation verbatim.  The offline protector stacks by
    window: each iteration records every run's boundary strips with one
    :func:`~repro.core.interpolation.extract_delta_strips` over the
    stacked pair, and each window end (every Δ iterations and the last)
    compares the batch's checksum with one checksum-space replay of the
    window from the batch's checkpoint; a flagged run's window is re-run
    from its checkpoint by :meth:`OfflineABFT.step` on the worker's
    grid, rollbacks included.  Each worker decides per batch
    (:func:`stacked_support_reason` and the batch's plan targets and
    hooks name the fallback reason the result reports); anything else
    replays.  Stacked versus replay is a pure throughput choice —
    records are bitwise-identical either way.

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
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.backends import FoldPlan, StepPlan, batch_arguments, get_backend
from repro.checkpoint.snapshot import Snapshot
from repro.core.detection import detect_errors
from repro.core.interpolation import (
    InterpolationPlan,
    extract_delta_strips,
    interpolate_checksum_padded,
    interpolate_checksum_reduced,
    interpolation_plan,
    reduced_plan,
)
from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection, Protector
from repro.faults.campaign import (
    BatchStrategy,
    CampaignConfig,
    CampaignResult,
    GridFactory,
    ProtectorFactory,
    RunRecord,
    check_plans,
    compute_reference,
    draw_fault_plans,
    resolve_run_counters,
    run_one,
)
from repro.faults.injector import FaultInjector, FaultPlan, flip_plan
from repro.parallel.executor import make_executor
from repro.stencil.boundary import BoundarySpec
from repro.stencil.doublebuffer import DoubleBufferedGrid
from repro.stencil.grid import GridBase
from repro.stencil.shift import interior_view
from repro.stencil.spec import BatchOperator

__all__ = [
    "CampaignEngine",
    "stacked_support_reason",
]

#: Environment variable setting the per-dispatch worker timeout (seconds).
WORKER_TIMEOUT_ENV_VAR = "REPRO_WORKER_TIMEOUT"

#: Dispatch waves for one campaign (first attempt included) before the
#: engine gives up with a ``RuntimeError``: the guard against a factory
#: that crashes every worker it touches.
_MAX_DISPATCH_ATTEMPTS = 3

#: Per-worker campaign states kept alive between batches (the whole
#: point of the engine).  Bounded so a long-lived pool sweeping many
#: campaign configurations does not accumulate stacked buffer pairs.
_STATE_CACHE_MAX = 4

#: Cap on the automatic batch width, and so on the stacked width
#: (``batch_size`` / ``--batch`` set it outright).  Wider batches
#: amortise the per-call overhead further but grow the persistent
#: buffer pair linearly; 32 runs of the paper's 64x64x8 tile keep the
#: pair ~11 MB.
_AUTO_BATCH_CAP = 32

#: Signature of a per-run hook factory (sensitivity-style experiments):
#: called in the parent, in run order, so stateful RNG draws match the
#: equivalent serial loop.
HookFactory = Callable[[int], Callable]


def stacked_support_reason(
    grid: GridBase, protector: Protector
) -> Optional[str]:
    """Why a campaign cannot take the stacked fast path (``None`` = it can).

    The stacked strategy drives the backend-owned batched step
    primitive, which is per-slot bit-identical to the single-run step,
    and re-implements around it the protocol of exactly three
    protectors: the unprotected baseline, the online protector (except
    its eager row-checksum mode, a second paired checksum chain per
    step) and the offline protector.  What forces replay is protocol
    the batched loop does not re-implement: grid subclasses with their
    own stepping, any other protector, and any subclass of those three,
    whose own methods the batched loop would skip.  The returned string
    is the fallback reason campaigns report per batch.
    """
    if not isinstance(grid, GridBase) or grid.ndim not in (2, 3):
        return "grid is not a standard 2D/3D double-buffered grid"
    # A subclass that reimplements stepping owns semantics the stacked
    # sweep would silently bypass.
    if type(grid).step is not GridBase.step:
        return "grid subclass overrides stepping"
    kind = type(protector)
    if kind is NoProtection or kind is OfflineABFT:
        return None
    if kind is OnlineABFT:
        if protector.eager_row_checksum:
            return "online protector pairs row checksums eagerly"
        return None
    if isinstance(protector, (NoProtection, OnlineABFT, OfflineABFT)):
        return (
            f"protector subclass {kind.__name__} may override what the "
            f"stacked batch runs in its place"
        )
    name = getattr(protector, "name", kind.__name__)
    return f"protector {name!r} has no stacked implementation"


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
    #: The sample protector: its name labels the result, and
    #: :func:`~repro.faults.campaign.check_plans` reads its kind.
    protector: Protector
    grid_factory: GridFactory
    protector_factory: ProtectorFactory


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


class _BatchLayout(NamedTuple):
    """A batch width's views of the stacked pair and their bound plans."""

    #: Views of the pair's two buffers, in the order they were allocated.
    views: Tuple[np.ndarray, np.ndarray]
    step: StepPlan
    #: The batch's Theorem-1 interpolation from the padded domain: the
    #: online protector's, or the offline protector's strips (``None``
    #: unprotected, or offline without strips).
    interpolation: Optional[InterpolationPlan]
    #: The offline window's checksum-space replay
    #: (:func:`~repro.core.interpolation.reduced_plan`; ``None`` otherwise).
    replay: Optional[tuple]
    #: The full width's interiors, as its steps return them, each with
    #: its view merging the last axis and the run axis, and the fold of
    #: those views (see :meth:`_StackedBatch._checksums`); empty and
    #: ``None`` for a narrower or unprotected batch.
    merged: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    fold: Optional[FoldPlan]


class _StackedBatch:
    """Persistent stacked buffer pair executing whole batches of runs.

    The batch of runs is one trailing axis of a single padded
    :class:`DoubleBufferedGrid` pair.  Per campaign iteration: one
    backend-owned batched step
    (:meth:`~repro.backends.base.Backend.batch_step_into` — ghost
    refresh and sweep for every run in one vectorised pass), the
    iteration's bit flips, then the protector's work for every run of
    the batch at once:

    * online: the batch's checksums, one Theorem-1 interpolation and
      one detection screen (:meth:`_verify`); a flagged slot's step goes
      to :meth:`~repro.core.online.OnlineABFT.process` on its views;
    * offline: one :func:`~repro.core.interpolation.extract_delta_strips`
      of every run's strips, and at each window end (every Δ iterations
      and the last) one checksum of the batch, one checksum-space
      replay of the window and one screen (:meth:`_close_window`); a
      flagged slot's window is re-run by the library protector
      (:meth:`_rerun_window`).

    All buffers are allocated once and reset in place between batches.

    Every checksum goes through ``Backend.checksum`` with the
    protector's dtype, the call a replayed run's protector makes on its
    own interior, so each slot's checksum equals replay's bit for bit
    (see :meth:`_checksums`).  The online interpolation takes the pair's
    boundary, as a replayed run's ``OnlineABFT.step`` takes its grid's,
    so closed borders come from the checksums
    (:func:`_interpolate_stacked`); the screen is the protector's
    :func:`~repro.core.detection.detect_errors` over the whole batch,
    and a flagged slot's delegated
    :meth:`~repro.core.online.OnlineABFT.process` gets the base grid's
    boundary.  On a full-width batch, whose pair is contiguous, both
    take the compiled kernels of :mod:`repro.backends.native`.  The
    offline strips and replay act on each run's lanes alone, operation
    for operation as a replayed run's protector on its own vectors.

    The pair is built with the batch operator (:attr:`spec_ext`) and the
    constant broadcast over the runs, so its
    :class:`~repro.backends.base.StepPlan` is the full-width batched
    step's; a narrower batch (a campaign's last) gets a plan over views
    of the pair's first ``width`` runs the first time it runs.  The
    interpolations of each width are bound once too
    (:func:`~repro.core.interpolation.interpolation_plan`: its plan,
    dtype, cast constant sum and the addresses of the pair's buffers;
    :func:`~repro.core.interpolation.reduced_plan`); and so is the full
    width's checksum, a :class:`~repro.backends.fused.FoldPlan` of the
    pair's two merged interiors.
    """

    def __init__(
        self,
        grid: GridBase,
        protector: Protector,
        width: int,
        initial: np.ndarray,
    ) -> None:
        self.width = int(width)
        # The worker's grid, on which a flagged offline window re-runs.
        self.grid = grid
        self.base_shape = grid.shape
        self.base_radius = grid.radius
        self.dtype = grid.dtype
        self.spec = grid.spec
        # Domain-axis boundary, which a flagged slot's delegated
        # ``process`` gets.
        self.base_boundary = BoundarySpec.from_any(
            grid.boundary, len(self.base_shape)
        )
        # The campaign's shared initial domain — passed explicitly (the
        # worker grid may hold the final state of an earlier replay run).
        self.initial = np.ascontiguousarray(initial, dtype=self.dtype)[..., None]
        self.constant = grid.constant
        # The batched step's arguments, which the stacked Theorem-1
        # interpolation takes too: the batch operator (the run axis
        # never shifts), ghost width 0 and a placeholder boundary on the
        # run axis, the constant broadcast over the runs.
        self.spec_ext, self.radius, self.shape, self.boundary, constant = (
            batch_arguments(
                self.spec, self.base_radius, self.base_shape,
                self.base_boundary, self.constant, self.width,
            )
        )
        self.pair = DoubleBufferedGrid(
            np.broadcast_to(self.initial, self.shape), self.radius, self.boundary,
            spec=self.spec_ext, constant=constant,
        )
        self._buffers = (self.pair.front, self.pair.back)

        self.protector: Optional[Protector] = None
        self.offline = isinstance(protector, OfflineABFT)
        if self.offline or isinstance(protector, OnlineABFT):
            self.protector = protector
            self.epsilon = protector.epsilon
            if self.offline:
                self.period = protector.period
                constant_sum = protector._constant_sum
                # Every run's state at its last verified window end, the
                # checkpoint a flagged run's window restarts from.
                self._checkpoint = np.empty(self.shape, dtype=self.dtype)
            else:
                constant_sum = protector._constant_sums[0]
            self.constant_sum = (
                None if constant_sum is None else constant_sum[..., None]
            )
            self._cs_dtype = protector.checksum_dtype or self.dtype
        self._layouts: Dict[int, _BatchLayout] = {}
        self._layout(self.width)

    def _layout(self, width: int) -> _BatchLayout:
        """The pair's views and plans for a batch of ``width`` runs."""
        layout = self._layouts.get(width)
        if layout is not None:
            return layout
        shape = self.base_shape + (width,)
        if width == self.width:
            views, step = self._buffers, self.pair.plan
        else:
            views = tuple(b[..., :width] for b in self._buffers)
            step = StepPlan(
                *views,
                *batch_arguments(
                    self.spec, self.base_radius, self.base_shape,
                    self.base_boundary, self.constant, width,
                ),
            )
        interpolation = replay = fold = None
        merged = ()
        protector = self.protector
        if self.offline:
            if protector.track_strips:
                interpolation = interpolation_plan(
                    self.spec_ext, self.radius, shape, 0, self.dtype, self.dtype,
                    buffers=views,
                )
            replay = reduced_plan(
                self.spec_ext, self.boundary, 0, self.base_shape[0], shape[1:],
                self._cs_dtype,
            )
        elif protector is not None:
            interpolation = interpolation_plan(
                self.spec_ext, self.radius, shape, 0, self._cs_dtype, self.dtype,
                constant_sum=self.constant_sum, boundary=self.boundary,
                buffers=views,
            )
        if protector is not None and width == self.width:
            interiors = (step.interior(views[0]), step.interior(views[1]))
            merged = tuple(
                (i, m) for i, m in zip(interiors, map(_merge_runs, interiors))
                if m is not None
            )
            fold = FoldPlan([m for _, m in merged], protector.checksum_dtype)
        layout = self._layouts[width] = _BatchLayout(
            views, step, interpolation, replay, merged, fold
        )
        return layout

    def run_batch(
        self,
        plans: Sequence[Sequence[FaultPlan]],
        config: CampaignConfig,
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Execute one batch of runs; returns (counters, finals, elapsed).

        ``counters`` has shape ``(batch, 5)`` — detections, corrections,
        uncorrected, rollbacks and recomputed iterations, a record's
        five counters — ``finals`` is the stacked final interiors (a view
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

        counters = np.zeros((width, 5), dtype=np.int64)
        protector = self.protector
        backend = get_backend()
        layout = self._layout(width)
        src, dst = layout.views
        if self.pair.front is not self._buffers[0]:
            src, dst = dst, src

        start = time.perf_counter()
        interior = interior_view(self.pair.front, self.radius)[..., :width]
        if protector is not None:
            # Step t=0 data assumed correct (Theorem 2), as in
            # OnlineABFT.step's first-iteration checksum seed.
            prev_cs = self._checksums(interior)
        if self.offline:
            # The t=0 checkpoint, which OfflineABFT.step takes before
            # its first sweep, and the window's strips.
            checkpoint = Snapshot(0, self._checkpoint[..., :width])
            checkpoint.interior[...] = interior
            checkpoint.seal(prev_cs)
            window: List[Optional[Dict[int, np.ndarray]]] = []
        for t in range(1, iterations + 1):
            interior = backend.batch_step_into(src, dst, layout.step)
            self.pair.swap()
            src, dst = dst, src
            fired = by_iteration.get(t)
            if fired is not None:
                for slot, plan in fired:
                    flip_plan(interior[..., slot], plan)
            if protector is None:
                continue
            if self.offline:
                # The strips of the step that read ``dst``, as a replayed
                # run's protector records them after its inject hook.
                window.append(
                    None if layout.interpolation is None
                    else extract_delta_strips(
                        dst, self.spec_ext, self.radius, layout.step.interior_shape,
                        0, plan=layout.interpolation,
                    )
                )
                if len(window) == self.period or t == iterations:
                    self._close_window(checkpoint, window, interior, plans, counters)
                    window = []
                continue
            # Every run's checksum is reduced after its flips, as a
            # replayed run's protector reduces after its inject hook.
            cs, flagged = self._verify(prev_cs, interior, dst)
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
                        0, np.ascontiguousarray(prev_cs[..., slot])
                    )
                    report = protector.process(
                        interior[..., slot], self.pair.back[..., slot], t,
                        boundary=self.base_boundary,
                    )
                    counters[slot, 0] += report.errors_detected
                    counters[slot, 1] += report.errors_corrected
                    counters[slot, 2] += report.errors_uncorrected
                    cs[..., slot] = protector._prev_cs[0]
            prev_cs = cs
        elapsed = time.perf_counter() - start
        if protector is not None:
            protector.reset()
        return counters, interior, elapsed

    def _verify(
        self, prev_cs: np.ndarray, interior: np.ndarray, padded_prev: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One iteration's online protection of the batch in ``interior``.

        Returns every slot's checksum (:meth:`_checksums`) and the slots
        whose checksum mismatches its Theorem-1 prediction from
        ``prev_cs`` and ``padded_prev``, the pair's buffer the step read
        (one stacked interpolation and one screen), or ``None`` when
        none does.
        """
        width = interior.shape[-1]
        cs = self._checksums(interior)
        predicted = _interpolate_stacked(
            prev_cs,
            padded_prev,
            self.spec_ext,
            self.radius,
            self.base_shape + (width,),
            self.constant_sum,
            self.boundary,
            self._layout(width).interpolation,
        )
        return cs, _detection_screen(cs, predicted, self.epsilon)

    def _close_window(
        self,
        checkpoint: Snapshot,
        window: Sequence[Optional[Dict[int, np.ndarray]]],
        interior: np.ndarray,
        plans: Sequence[Sequence[FaultPlan]],
        counters: np.ndarray,
    ) -> None:
        """Verify the offline window that ends at ``interior``.

        What a replayed run's protector does at the window's end, for
        every run at once: the batch's checksum, the checkpoint's
        checksum checked against its duplicate (the duplicate rule of
        :meth:`~repro.checkpoint.snapshot.Snapshot.verify`), one
        :func:`~repro.core.interpolation.interpolate_checksum_reduced`
        per step of ``window`` (its strips) from it, and one screen.  A
        flagged slot's window is re-run (:meth:`_rerun_window`), and its
        state and checksum written back.  The batch's state and checksum
        then seal the next ``checkpoint``.
        """
        cs = self._checksums(interior)
        checkpoint.verify(self._checksums, payload=False)
        replay = self._layout(interior.shape[-1]).replay
        predicted = checkpoint.checksum
        for strips in window:
            predicted = interpolate_checksum_reduced(
                predicted, self.spec_ext, self.boundary, 0, self.base_shape[0],
                deltas=strips, constant_sum=self.constant_sum, plan=replay,
            )
        stop = checkpoint.iteration + len(window)
        flagged = _detection_screen(cs, predicted, self.epsilon)
        if flagged is not None:
            for slot in flagged:
                counters[slot] += self._rerun_window(
                    slot, plans[slot], checkpoint, stop
                )
                interior[..., slot] = self.grid.u
                cs[..., slot] = self.protector.checkpoint.checksum
        checkpoint.iteration = stop
        checkpoint.interior[...] = interior
        checkpoint.seal(cs)

    def _rerun_window(
        self,
        slot: int,
        plans: Sequence[FaultPlan],
        checkpoint: Snapshot,
        stop: int,
    ) -> Tuple[int, ...]:
        """Re-run ``slot``'s flagged window on the worker's grid.

        The library protector, reset, restarts from the slot's part of
        ``checkpoint`` and runs the window's steps to ``stop`` with a
        fresh injector of the run's plans, which fires the window's
        flips again: the sweeps, strips, detection and rollbacks a
        replayed run's protector makes in that window (``finalize``
        verifies a short last window).  Returns the window's five
        counters; the grid holds the window's end state and the
        protector its new checkpoint.
        """
        protector, grid = self.protector, self.grid
        protector.reset()
        grid.restore(Snapshot(checkpoint.iteration, checkpoint.interior[..., slot]))
        report = protector.run(
            grid, stop - checkpoint.iteration,
            inject=FaultInjector(plans, protector),
        )
        return resolve_run_counters(protector, report)

    def _checksums(self, interior: np.ndarray) -> np.ndarray:
        """Every slot's column checksum, shaped ``(..., run)``.

        Each slot is reduced with ``Backend.checksum`` in the
        protector's checksum dtype, the call a replayed run's protector
        makes.  A full-width batch is one call
        instead: the base grid's last axis and the run axis merge into
        one contiguous axis, and each lane of the merged view still adds
        over x in order, as a slot's own column checksum does.  A
        narrower batch goes slot by slot: its run axis is a slice of the
        pair's, which does not merge with the last axis.  The interiors
        the full width's steps return have their merged views and fold
        bound (:meth:`_layout`).
        """
        dtype = self.protector.checksum_dtype
        checksum = get_backend().checksum
        width = interior.shape[-1]
        if width == self.width:
            layout = self._layout(width)
            for view, merged in layout.merged:
                if view is interior:
                    break
            else:
                merged = _merge_runs(interior)
            if merged is not None:
                return checksum(merged, 0, dtype=dtype, plan=layout.fold).reshape(
                    self.base_shape[1:] + (width,)
                )
        return np.stack(
            [checksum(interior[..., s], 0, dtype=dtype) for s in range(width)],
            axis=-1,
        )


def _merge_runs(interior: np.ndarray) -> Optional[np.ndarray]:
    """``interior`` with its last axis and run axis merged, or ``None``
    where that takes a copy instead of a view."""
    merged = interior.reshape(interior.shape[:-2] + (-1,))
    return merged if np.may_share_memory(merged, interior) else None


def _interpolate_stacked(
    prev_cs: np.ndarray,
    padded_prev: np.ndarray,
    spec_ext: BatchOperator,
    radius,
    shape,
    constant_sum: Optional[np.ndarray],
    boundary: BoundarySpec,
    plan: Optional[InterpolationPlan] = None,
) -> np.ndarray:
    """Theorem-1 column-checksum interpolation of the whole batch in one call.

    ``interpolate_checksum_padded`` is dimension-generic and only
    iterates ``(offset, weight)`` pairs from its ``spec`` argument, so
    handing it the batch-extended operator (batch axis shift 0, ghost
    radius 0) interpolates every run's checksum at once; the boundary
    strips it reduces are per-run independent.  ``boundary`` is the
    pair's, run axis included: ``batch_step_into`` refreshed every
    ghost of ``padded_prev`` from it after the last write to its
    interior, so by the closed-border rule of
    :mod:`repro.core.interpolation` closed axes' borders come from
    ``prev_cs``, as a replayed run's ``OnlineABFT.step`` takes them
    from its own checksum.  The run axis has no ghosts and adds no fill.
    ``plan`` is the batch width's bound interpolation
    (:meth:`_StackedBatch._layout`).
    """
    return interpolate_checksum_padded(
        prev_cs, padded_prev, spec_ext, radius, shape, 0,
        constant_sum=constant_sum, boundary=boundary, plan=plan,
    )


def _detection_screen(
    computed: np.ndarray, predicted: np.ndarray, epsilon: float
) -> Optional[np.ndarray]:
    """Batch slots whose checksums mismatch, or ``None`` when all clean.

    One :func:`~repro.core.detection.detect_errors` over the stacked
    checksums, the compare a replayed run's protector makes, so a slot
    is flagged exactly when that run would have been; the flagged slots
    then re-run the full detection on their own views.
    """
    detection = detect_errors(computed, predicted, epsilon)
    if not detection.detected:
        return None
    return np.unique(detection.mismatch_indices[:, -1])


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
        self.stacked: Optional[_StackedBatch] = None
        self.stacked_reason = stacked_support_reason(self.grid, self.protector)
        # One short warm-up pays the one-off costs (lazy imports, scratch
        # growth) outside the timed runs, mirroring the legacy loop's
        # untimed warm-up run.
        self.protector.reset()
        self.protector.run(self.grid, min(3, self.config.iterations))
        self.grid.restore(self.snapshot0)
        self.protector.reset()
        # Build or load the backend's compiled kernels here, outside
        # the timed runs, whichever strategy the batches take.
        get_backend().warmup()

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

    def execute(self, task: _BatchTask) -> Tuple[BatchStrategy, List[RunRecord]]:
        """Run one batch; returns the strategy it took and its records.

        The strategy is ``"stacked"`` unless something forces replay,
        whose reason the :class:`BatchStrategy` names.
        """
        # The stacked fast path only flips domain values; checksum and
        # crash plans replay through the machinery they attack.
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
            records = self._stacked(task)
        else:
            records = self._replay(task)
        strategy = BatchStrategy(
            start=task.start,
            width=len(task.plans),
            strategy="stacked" if reason is None else "replay",
            reason=reason,
        )
        return strategy, records

    def _stacked(self, task: _BatchTask) -> List[RunRecord]:
        width = len(task.plans)
        counters, finals, elapsed = self._ensure_stacked(width).run_batch(
            task.plans, self.config
        )
        return [
            RunRecord(
                task.start + slot,
                elapsed / width,
                self._l2_error(finals[..., slot]),
                *(int(c) for c in counters[slot]),
                faults=list(task.plans[slot]),
            )
            for slot in range(width)
        ]

    def _replay(self, task: _BatchTask) -> List[RunRecord]:
        records = []
        for slot, plans in enumerate(task.plans):
            self.grid.restore(self.snapshot0)
            records.append(
                run_one(
                    self.grid,
                    self.protector,
                    plans,
                    self.config,
                    task.start + slot,
                    self._l2_error,
                    inject=None if task.hooks is None else task.hooks[slot],
                )
            )
        return records


_WORKER_LOCAL = threading.local()


def _execute_batch(task: _BatchTask) -> Tuple[BatchStrategy, List[RunRecord]]:
    """Worker entry point: resolve (or build) the cached state, run one batch.

    Module-level so process pools can import it by reference; the state
    cache is thread-local so the thread executor's workers never share
    mutable campaign state.
    """
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
) -> List[Tuple[BatchStrategy, List[RunRecord]]]:
    """Run a contiguous group of batches in one pool task.

    The process executor dispatches one group per worker: all batches of
    a group travel in a single pickle graph, where the shared campaign
    payload (reference array, factories) is memoised and serialised
    once — instead of once per batch — keeping the pipe traffic at
    "payload once per worker plus the run records".
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
        and by an even split across the workers; below 1 raises
        ``ValueError``).  Batch size affects scheduling and the stacked
        width only — records are bitwise-independent of it.
    worker_timeout:
        Seconds to wait for each dispatched wave of batches on the
        process executor before declaring the stragglers hung,
        restarting the pool and re-dispatching them (``None`` → the
        ``REPRO_WORKER_TIMEOUT`` environment variable, else wait
        forever).  Timeouts never change records: a re-dispatched batch
        replays the same pre-drawn plans.  A campaign gives up with a
        ``RuntimeError`` after three waves that lose batches, and
        :attr:`worker_restarts` counts the pool restarts.

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
    ) -> None:
        self._kind = executor
        self._workers = workers
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = None if batch_size is None else int(batch_size)
        if worker_timeout is None:
            env = os.environ.get(WORKER_TIMEOUT_ENV_VAR)
            if env:
                try:
                    worker_timeout = float(env)
                except ValueError:
                    raise ValueError(
                        f"{WORKER_TIMEOUT_ENV_VAR} must be a number of "
                        f"seconds, got {env!r}"
                    ) from None
        if worker_timeout is not None and worker_timeout <= 0:
            raise ValueError("worker_timeout must be > 0 seconds")
        self.worker_timeout = worker_timeout
        #: Pool restarts performed after a worker death/hang (cumulative
        #: across :meth:`run` calls) — the observable proof that a
        #: campaign lost and re-dispatched a batch.
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

    # -- dispatch ------------------------------------------------------------
    def _campaign_meta(
        self, grid_factory, protector_factory
    ) -> "_CampaignMeta":
        """Per-campaign metadata, resolved once per factory pair.

        Besides the worker-cache key prefix, the entry caches the sample
        grid's shape/dtype and the sample protector, so repeated
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
                protector=sample_protector,
                grid_factory=grid_factory,
                protector_factory=protector_factory,
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

    def _auto_batch(self, repetitions: int) -> int:
        if self.batch_size is not None:
            return min(self.batch_size, repetitions)
        workers = getattr(self.executor, "workers", 1) or 1
        spread = -(-repetitions // workers)  # ceil
        return max(1, min(_AUTO_BATCH_CAP, spread))

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
            ``None``/``"auto"`` stacks every batch that can stack;
            ``"replay"`` forces the per-run replay even where stacking
            is eligible.  Use ``"replay"`` when the *per-run time
            distribution* is the experiment's measurand (Figures 8 and
            11): the stacked strategy executes a whole batch together
            and can only report the batch-mean elapsed per run.  The strategy
            each batch actually used, and why replay was chosen when it
            was, is reported in :attr:`CampaignResult.batch_strategies`.
        """
        if hook_factory is not None and config.inject:
            raise ValueError(
                "hook_factory replaces the fault-plan injector; use "
                "inject=False (records would otherwise carry fault plans "
                "that never fired)"
            )
        if strategy not in (None, "auto", "replay"):
            raise ValueError(
                f"unknown strategy {strategy!r}; expected 'auto' or 'replay'"
            )
        if reference is None:
            reference = compute_reference(grid_factory, config.iterations)
        meta = self._campaign_meta(grid_factory, protector_factory)
        plans = draw_fault_plans(config, meta.shape, meta.dtype)
        for run_plans in plans:
            check_plans(run_plans, meta.protector)
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
        batch = self._auto_batch(config.repetitions)
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
                    force_replay=strategy == "replay",
                )
            )

        executor = self.executor
        if executor.kind == "process":
            self._check_picklable(tasks[0])
            by_task = self._dispatch_process(executor, tasks)
            batches = [by_task[i] for i in range(len(tasks))]
        else:
            batches = executor.map(_execute_batch, tasks)

        result = CampaignResult(
            config=config,
            protector_name=getattr(meta.protector, "name", "protector"),
        )
        for strategy_used, records in batches:
            result.batch_strategies.append(strategy_used)
            result.records.extend(records)
        return result

    def _dispatch_process(
        self, executor, tasks: Sequence[_BatchTask]
    ) -> Dict[int, Tuple[BatchStrategy, List[RunRecord]]]:
        """Supervised dispatch to the process pool, resilient to worker loss.

        Each wave submits the still-pending batches as one contiguous
        task group per worker (the shared campaign payload pickles once
        per group) and supervises the futures directly: results of
        groups that completed are banked even when a sibling group's
        worker died (a dead worker breaks the whole
        ``ProcessPoolExecutor``, failing every outstanding future) or
        hung past ``worker_timeout``.  The pool is then restarted and
        only the lost batches are re-dispatched, for at most
        ``_MAX_DISPATCH_ATTEMPTS`` waves.  Only a dead worker
        (``BrokenProcessPool``) or a hang counts as a lost batch: any
        other exception raised inside a worker is re-raised at once,
        chained, naming the batch's first run and width.  Records are
        bitwise-independent of all of this: batches carry their
        pre-drawn plans, and a re-run of a batch is deterministic.
        """
        pending: Dict[int, _BatchTask] = dict(enumerate(tasks))
        results: Dict[int, Tuple[BatchStrategy, List[RunRecord]]] = {}
        attempts = 0
        while pending:
            attempts += 1
            if attempts > _MAX_DISPATCH_ATTEMPTS:
                raise RuntimeError(
                    f"{len(pending)} campaign batches still undone after "
                    f"{_MAX_DISPATCH_ATTEMPTS} dispatch attempts "
                    f"({self.worker_restarts} pool restarts so far): the "
                    f"worker pool keeps dying or hanging — check that the "
                    f"campaign factories are sound"
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
            futures = {
                executor.submit(
                    _execute_batch_group, [pending[i] for i in group]
                ): group
                for group in groups
            }
            done, not_done = concurrent.futures.wait(
                futures, timeout=self.worker_timeout
            )
            wave_failed = bool(not_done)
            for future in done:
                group = futures[future]
                try:
                    group_results = future.result()
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
                for task_index, batch_result in zip(group, group_results):
                    results[task_index] = batch_result
                    pending.pop(task_index, None)
            if pending and wave_failed:
                self.worker_restarts += 1
                restart = getattr(executor, "restart", None)
                if restart is not None:
                    restart()
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
