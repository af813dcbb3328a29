"""Online ABFT protector (Section 3 of the paper).

After every stencil sweep the online protector

1. computes **one** checksum vector of the new domain, the column
   checksum ``b``, as in the paper's Figure 2 listing,
2. interpolates the same checksum from the previous step's checksum
   using Theorem 1,
3. compares the two element-wise (Section 3.4); and, only if a mismatch
   is found,
4. lazily computes the row checksum pair ``a`` (from the still-alive
   previous domain and from the corrupted new domain), locates the
   corrupted point(s) from the row/column mismatch pattern and corrects
   them in place using Eq. 10 (Section 3.5), patching the checksums so
   that the next iteration starts from a consistent state.

The "only one checksum per iteration" recommendation of Section 3.2 is
the default; ``eager_row_checksum=True`` computes both every iteration
(the ablation benchmark compares the two).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.backends import FoldPlan, StepPlan, get_backend
from repro.checkpoint.snapshot import ProtectorState, same_checksums
from repro.core.checksums import constant_checksum
from repro.core.correction import correct_errors, match_detections
from repro.core.detection import detect_errors
from repro.core.interpolation import (
    InterpolationPlan,
    interpolate_checksum_padded,
    interpolation_plan,
)
from repro.core.protector import InjectHook, Protector, StepReport
from repro.core.thresholds import recommend_epsilon
from repro.stencil.boundary import BoundarySpec
from repro.stencil.grid import GridBase
from repro.stencil.spec import StencilSpec

__all__ = ["OnlineABFT"]

_ROW_AXIS = 1     # row checksum a reduces over y
_COLUMN_AXIS = 0  # column checksum b reduces over x


class _Binding(NamedTuple):
    """What :meth:`OnlineABFT.process` binds to one buffer pair, once."""

    #: The pair's step plan and the boundary the binding serves.
    pair: StepPlan
    boundary: Optional[BoundarySpec]
    #: The column checksum of the pair's two interiors.
    fold: FoldPlan
    #: The column-checksum interpolation over the pair's buffers.
    interpolation: InterpolationPlan


class OnlineABFT(Protector):
    """Detect and correct silent data corruptions after every sweep.

    Parameters
    ----------
    spec:
        The stencil operator of the protected computation.
    boundary:
        Boundary specification of the protected domain.
    shape:
        Domain shape (2D ``(nx, ny)`` or 3D ``(nx, ny, nz)``).
    dtype:
        Domain dtype.
    constant:
        Optional constant term ``C`` of the sweep (its checksums are
        pre-computed once, as in the proof of Theorem 1).
    epsilon:
        Detection threshold ε. Defaults to
        :func:`repro.core.thresholds.recommend_epsilon` for the given
        configuration (1e-5 for paper-scale float32 domains).
    correction_strategy:
        ``"average"`` (paper default), ``"row"`` or ``"column"``.
    eager_row_checksum:
        Compute both checksums every iteration instead of lazily on
        detection (ablation switch).
    checksum_dtype:
        Accumulation dtype for checksums. Defaults to ``numpy.float64``:
        accumulating the float32 domain in double precision keeps the
        round-off discrepancy between the computed and the interpolated
        checksum orders of magnitude below the paper's ε = 1e-5, which
        removes the false-positive risk the paper manages by tuning tile
        sizes (Section 5.1). Pass ``None`` to accumulate in the domain
        dtype exactly as the paper's fused float32 kernel does (the
        ablation benchmark compares the two).
    Notes
    -----
    The protector guards its own state against corruption: every stored
    previous-step checksum is kept twice; before it is used for
    interpolation the two copies are compared, and on mismatch the
    checksum is recomputed from the still-alive previous domain instead
    of being trusted. Without this, a bit flip striking the *stored
    checksum* (rather than the domain) triggers a one-sided detection
    and a bogus correction of healthy data. Repairs are counted in
    ``total_metadata_repairs``.

    :meth:`step` has one path, hook or not: the grid's step (ghost
    refresh and sweep), then the ``inject`` hook if one is set, then
    :meth:`process`, which reduces the verified checksum from the new
    domain.  The checksum is therefore always taken after the hook, as
    the paper's injection semantics require ("after the stencil point
    ... has been updated").

    The verified checksum reflects the grid's buffer contents at
    verification time, and corrections write back through ``grid.u``
    into the same buffer the next sweep's ghost refresh re-reads.
    """

    name = "online-abft"

    def __init__(
        self,
        spec: StencilSpec,
        boundary: BoundarySpec,
        shape,
        dtype=np.float32,
        constant: Optional[np.ndarray] = None,
        epsilon: Optional[float] = None,
        correction_strategy: str = "average",
        eager_row_checksum: bool = False,
        checksum_dtype=np.float64,
    ) -> None:
        self.spec = spec
        self.boundary = BoundarySpec.from_any(boundary, spec.ndim)
        self.shape = tuple(int(n) for n in shape)
        if len(self.shape) != spec.ndim:
            raise ValueError(
                f"shape {self.shape} does not match stencil dimensionality {spec.ndim}"
            )
        self.dtype = np.dtype(dtype)
        self.checksum_dtype = None if checksum_dtype is None else np.dtype(checksum_dtype)
        self.correction_strategy = correction_strategy
        self.eager_row_checksum = bool(eager_row_checksum)
        self.radius = spec.radius()
        if epsilon is None:
            # The detection margin is governed by the *domain* dtype (the
            # sweep rounds every point in that precision); the checksum
            # accumulation dtype only tightens it further.
            epsilon = recommend_epsilon(self.shape, _COLUMN_AXIS, self.dtype, spec)
        self.epsilon = float(epsilon)
        cs_dtype = self.checksum_dtype or self.dtype
        self._constant_sums = {
            axis: constant_checksum(constant, axis, self.shape, cs_dtype)
            for axis in (0, 1)
        }
        self._prev_cs = {0: None, 1: None}
        self._prev_cs_dup = {0: None, 1: None}
        self._binding: Optional[_Binding] = None
        # Statistics exposed for the experiments.
        self.total_detections = 0
        self.total_corrections = 0
        self.total_uncorrected = 0
        self.total_metadata_repairs = 0

    # -- construction helpers -------------------------------------------------
    @classmethod
    def for_grid(cls, grid: GridBase, **kwargs) -> "OnlineABFT":
        """Build a protector matching a grid's operator, boundary and shape."""
        return cls(
            grid.spec,
            grid.boundary,
            grid.shape,
            dtype=grid.dtype,
            constant=grid.constant,
            **kwargs,
        )

    # -- protector interface ---------------------------------------------------
    def reset(self) -> None:
        self._prev_cs = {0: None, 1: None}
        self._prev_cs_dup = {0: None, 1: None}
        self.total_detections = 0
        self.total_corrections = 0
        self.total_uncorrected = 0
        self.total_metadata_repairs = 0

    def state_snapshot(self) -> ProtectorState:
        """Checkpointable protector state (buddy checkpointing).

        Captures the stored previous-step checksum vectors and the four
        running counters — everything :meth:`state_restore` needs to
        resume verification bit-for-bit from a rolled-back domain.  The
        self-check duplicates are not shipped: restore re-derives them
        through :meth:`_store_prev_cs`, so a checkpointed protector is
        always internally consistent.
        """
        return ProtectorState(
            prev_cs={
                axis: (None if cs is None else cs.copy())
                for axis, cs in self._prev_cs.items()
            },
            counters=(
                self.total_detections,
                self.total_corrections,
                self.total_uncorrected,
                self.total_metadata_repairs,
            ),
        )

    def state_restore(self, state: ProtectorState) -> None:
        """Restore :meth:`state_snapshot` state (rollback recovery)."""
        for axis in (0, 1):
            cs = state.prev_cs.get(axis)
            self._store_prev_cs(axis, None if cs is None else cs.copy())
        (
            self.total_detections,
            self.total_corrections,
            self.total_uncorrected,
            self.total_metadata_repairs,
        ) = (int(c) for c in state.counters)

    def _checksum(self, u: np.ndarray, axis: int, plan=None) -> np.ndarray:
        return get_backend().checksum(u, axis, dtype=self.checksum_dtype, plan=plan)

    def _store_prev_cs(self, axis: int, cs: Optional[np.ndarray]) -> None:
        """Store a previous-step checksum (plus its self-check duplicate).

        Every write to the stored checksum state must go through here —
        the duplicate is what lets :meth:`_checked_prev_cs` notice that a
        fault struck the metadata itself.
        """
        self._prev_cs[axis] = cs
        self._prev_cs_dup[axis] = None if cs is None else cs.copy()

    def _checked_prev_cs(self, axis: int, padded_prev: np.ndarray) -> np.ndarray:
        """The stored previous-step checksum, validated against its duplicate.

        On mismatch (a fault hit the stored metadata, not the domain) the
        checksum is recomputed from the still-alive previous domain (the
        interior of ``padded_prev``) and re-stored, so a corrupted
        checksum never drives a bogus detection/correction of healthy
        data.
        """
        cs = self._prev_cs[axis]
        if cs is not None and not same_checksums(cs, self._prev_cs_dup[axis]):
            self.total_metadata_repairs += 1
            cs = self._checksum(self._previous(padded_prev), axis)
            self._store_prev_cs(axis, cs)
        return cs

    def _previous(self, padded_prev: np.ndarray) -> np.ndarray:
        """The previous domain: the interior of ``padded_prev``."""
        from repro.stencil.shift import interior_view

        return interior_view(padded_prev, self.radius)

    def _bind(self, plan: StepPlan, boundary: Optional[BoundarySpec]) -> _Binding:
        """The :class:`_Binding` of ``plan``'s pair and ``boundary``.

        Kept until a call brings another pair or boundary object.
        """
        binding = self._binding
        if (
            binding is None
            or binding.pair is not plan
            or binding.boundary is not boundary
        ):
            buffers = plan.buffers
            binding = self._binding = _Binding(
                plan,
                boundary,
                FoldPlan([plan.interior(b) for b in buffers], self.checksum_dtype),
                interpolation_plan(
                    self.spec, self.radius, self.shape, _COLUMN_AXIS,
                    self.checksum_dtype or buffers[0].dtype, buffers[0].dtype,
                    constant_sum=self._constant_sums[_COLUMN_AXIS],
                    boundary=boundary, buffers=buffers,
                ),
            )
        return binding

    def __getstate__(self):
        # The binding holds addresses of one pair's buffers: a copy of
        # the protector binds again on its first call.
        state = self.__dict__.copy()
        state["_binding"] = None
        return state

    def step(self, grid: GridBase, inject: Optional[InjectHook] = None) -> StepReport:
        if grid.shape != self.shape:
            raise ValueError(
                f"grid shape {grid.shape} does not match protector shape {self.shape}"
            )
        # Initial checksums (step t=0 data assumed correct, as in Theorem 2).
        if self._prev_cs[_COLUMN_AXIS] is None:
            self._store_prev_cs(_COLUMN_AXIS, self._checksum(grid.u, _COLUMN_AXIS))
            if self.eager_row_checksum:
                self._store_prev_cs(_ROW_AXIS, self._checksum(grid.u, _ROW_AXIS))

        grid.step()
        if inject is not None:
            inject(grid, grid.iteration)
        return self.process(
            grid.u, grid.previous_padded, grid.iteration, boundary=grid.boundary,
            plan=grid.buffers.plan,
        )

    def process(
        self,
        u_new: np.ndarray,
        padded_prev: np.ndarray,
        iteration: int,
        boundary: Optional[BoundarySpec] = None,
        plan: Optional[StepPlan] = None,
    ) -> StepReport:
        """Verify (and correct) a freshly swept domain.

        This is the grid-independent core of the protector: ``u_new`` is
        the interior produced by the sweep, ``padded_prev`` is the
        ghost-padded step-``t`` domain the sweep read (its ghost cells may
        come from a closed boundary condition *or* from halo exchange with
        neighbouring tiles/ranks — the interpolation handles both
        identically).  The parallel tile runner calls this directly, one
        call per tile, and so does the distributed runner, one call per
        rank with the rank's pre-swap front buffer as ``padded_prev``.

        ``boundary`` is the :class:`~repro.stencil.boundary.BoundarySpec`
        every ghost of ``padded_prev`` was refreshed from, passed by
        callers that own their buffer pair (:meth:`step` passes its
        grid's).  It lets the interpolation rebuild closed-boundary
        border sums from the stored checksum instead of re-reading the
        domain (:func:`~repro.core.interpolation.interpolate_checksum_padded`).
        The stacked campaign batch passes its base grid's boundary for
        the slots it delegates here.  The default ``None`` reads every
        border from the domain, as tiles and ranks, whose ghosts may
        carry halo data, need.

        With the double-buffered grids both arguments are live views into
        the persistent buffer pair: ``u_new`` into the front buffer the
        sweep just filled, ``padded_prev`` into the buffer the *next*
        sweep will overwrite.  They therefore must be read (and ``u_new``
        corrected) before the next step — which is exactly when the
        protectors run — and must never alias each other; the guard below
        rejects a caller that hands the same buffer for both.

        ``plan`` is the :class:`~repro.backends.base.StepPlan` of the
        buffer pair both arrays live in (:meth:`step` passes its grid's).
        The protector binds to the pair once (:meth:`_bind`): the column
        checksum of its two interiors
        (:class:`~repro.backends.fused.FoldPlan`) and the interpolation
        of ``boundary`` over its buffers
        (:func:`~repro.core.interpolation.interpolation_plan`), each
        serving only the arrays it was bound to.  The result is bitwise
        the same with or without it.
        """
        if np.may_share_memory(u_new, padded_prev):
            raise ValueError(
                "u_new aliases padded_prev: the new step must live in a "
                "different buffer than the padded previous step (did the "
                "double-buffer swap go missing?)"
            )
        fold = interpolation = None
        if plan is not None:
            fold, interpolation = self._bind(plan, boundary)[2:]
        if self._prev_cs[_COLUMN_AXIS] is None:
            prev_u = self._previous(padded_prev)
            self._store_prev_cs(_COLUMN_AXIS, self._checksum(prev_u, _COLUMN_AXIS))
            if self.eager_row_checksum:
                self._store_prev_cs(_ROW_AXIS, self._checksum(prev_u, _ROW_AXIS))

        b_comp = self._checksum(u_new, _COLUMN_AXIS, fold)
        b_interp = interpolate_checksum_padded(
            self._checked_prev_cs(_COLUMN_AXIS, padded_prev),
            padded_prev,
            self.spec,
            self.radius,
            self.shape,
            _COLUMN_AXIS,
            constant_sum=self._constant_sums[_COLUMN_AXIS],
            boundary=boundary,
            plan=interpolation,
        )
        det_b = detect_errors(b_comp, b_interp, self.epsilon)

        report = StepReport(
            iteration=iteration,
            detection_performed=True,
            errors_detected=det_b.n_errors,
            max_relative_error=det_b.max_relative_error,
        )

        a_comp = (
            self._checksum(u_new, _ROW_AXIS) if self.eager_row_checksum else None
        )

        if det_b.detected:
            self.total_detections += det_b.n_errors
            # Lazily build the row checksum pair: previous-step checksum
            # from the still-alive previous domain, current from the new one.
            a_prev = (
                self._checked_prev_cs(_ROW_AXIS, padded_prev)
                if self._prev_cs[_ROW_AXIS] is not None
                else None
            )
            if a_prev is None:
                a_prev = self._checksum(self._previous(padded_prev), _ROW_AXIS)
            if a_comp is None:
                a_comp = self._checksum(u_new, _ROW_AXIS)
            a_interp = interpolate_checksum_padded(
                a_prev,
                padded_prev,
                self.spec,
                self.radius,
                self.shape,
                _ROW_AXIS,
                constant_sum=self._constant_sums[_ROW_AXIS],
                boundary=boundary,
            )
            det_a = detect_errors(a_comp, a_interp, self.epsilon)

            locations, unresolved = match_detections(
                det_a, det_b, a_comp, a_interp, b_comp, b_interp, u_new.ndim
            )
            records = correct_errors(
                u_new,
                locations,
                a_comp,
                a_interp,
                b_comp,
                b_interp,
                strategy=self.correction_strategy,
            )
            # A location whose estimate is not finite stays uncorrected.
            unresolved += len(locations) - len(records)
            report.errors_corrected = len(records)
            report.errors_uncorrected = unresolved
            report.corrections = records
            self.total_corrections += len(records)
            self.total_uncorrected += unresolved
            # correct_errors patched a_comp/b_comp in place, so both are
            # already consistent with the repaired domain.
            if records:
                self._refresh_entries(u_new, records, a_comp, b_comp)

        self._store_prev_cs(_COLUMN_AXIS, b_comp)
        self._store_prev_cs(_ROW_AXIS, a_comp if self.eager_row_checksum else None)
        return report

    def _refresh_entries(self, u: np.ndarray, records, a_comp, b_comp) -> None:
        """Recompute the checksum entries touched by corrections from ``u``.

        The paper's Figure 6 only patches them; patching a checksum that
        briefly held a huge corrupted value leaves a large cancellation
        residue in float32, which can trigger spurious detections on
        later iterations.  The refresh costs one row/column sum per
        corrected point.

        Each entry is summed in the order the checksum reduction adds its
        lane, so it is bitwise equal to ``backend.checksum(u, axis)`` at
        that index: NumPy adds a lane along the innermost non-singleton
        axis pairwise (``sum``) and a lane along an outer axis in order
        (``cumsum``).
        """
        for rec in records:
            x, y, *layer = rec.index
            a_comp[(x, *layer)] = self._lane_sum(u, 1, u[(x, slice(None), *layer)])
            b_comp[(y, *layer)] = self._lane_sum(u, 0, u[(slice(None), y, *layer)])

    def _lane_sum(self, u: np.ndarray, axis: int, lane: np.ndarray):
        if all(n == 1 for n in u.shape[axis + 1:]):
            return lane.sum(dtype=self.checksum_dtype)
        return np.cumsum(lane, dtype=self.checksum_dtype)[-1]
