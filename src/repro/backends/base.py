"""The layout-independent half of the compute backend.

:class:`Backend` holds what the one backend,
:class:`~repro.backends.fused.FusedBackend`, does the same way for every
view; ``FusedBackend`` adds ``sweep_padded`` and its flat, compiled and
lane-folded paths.  The primitives:

``sweep_padded``
    One stencil sweep over a ghost-padded array (Equation (1) of the
    paper) returning the updated interior.
``checksum``
    A checksum vector of a domain along one reduction axis
    (Equations (2)-(3)).  No step computes it: a protector steps, runs
    its fault-injection hook if one is set, and only then reduces the
    new domain, so the verified checksum always sees an injected fault.
``sweep_into``
    The *zero-copy* form used by the double-buffered grids: the sweep
    reads one persistent padded buffer and writes the new interior
    straight into the interior block of a second padded buffer, so no
    full-domain array is allocated per iteration.  The base class
    sweeps into a fresh array and copies it into the destination
    interior.
``step_into`` / ``batch_step_into``
    One whole *step* of a buffer pair, **including the ghost refresh**
    of the source buffer: refresh halo, then sweep into the destination
    interior; the batched form steps a batch of independent runs laid
    out along a trailing run axis.  Both run one body,
    ``_refresh_and_sweep``: here :func:`repro.stencil.shift.refresh_ghosts`
    followed by ``sweep_into``; ``FusedBackend`` overrides it to fill
    the last ghost axis inside its compiled sweep, so refresh and sweep
    are one traversal.  Either way the source buffer's halo holds the
    boundary condition afterwards, because the ABFT protectors read it
    for the Theorem-1 α/β terms.

A pair is stepped only through its :class:`StepPlan`, which it builds
once over its two buffers (:func:`batch_arguments` gives a batched
pair's arguments): ``step_into(src, dst, plan)``,
``batch_step_into(src, dst, plan)`` and ``sweep_into(..., plan=plan)``
take the radius, boundary, refresh ops, views and operator from it,
and refuse buffers it was not built over.  A plan holds geometry only,
so the base-class routes take it too.

Every sweep is bitwise equal to
:func:`repro.stencil.reference.reference_sweep_padded`, compiled or
not: ``tests/test_backends.py`` and ``tests/test_step_contract.py``
check both paths against it, and these base-class routes too, on a
subclass whose only sweep is the reference.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import (
    interior_view,
    normalize_radius,
    padded_shape,
    refresh_ghosts,
    refresh_plan,
)
from repro.stencil.spec import BatchOperator, StencilSpec

__all__ = ["Backend", "StepPlan", "batch_arguments"]


class Backend:
    """Validation, the copy-based sweep, the step and the batched step."""

    @staticmethod
    def _normalize_sweep_args(
        padded: np.ndarray,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray],
        out: Optional[np.ndarray],
    ):
        """Shared ``sweep_padded`` precondition checks.

        Returns the coerced ``(interior_shape, radius)`` pair; raises
        ``ValueError`` on shape mismatches. Every sweep path calls this
        first so validation behaviour cannot drift between them.
        """
        interior_shape = tuple(int(n) for n in interior_shape)
        radius = normalize_radius(radius, padded.ndim)
        if out is not None and out.shape != interior_shape:
            raise ValueError(
                f"out has shape {out.shape}, expected {interior_shape}"
            )
        if constant is not None and constant.shape != interior_shape:
            raise ValueError(
                f"constant has shape {constant.shape}, expected {interior_shape}"
            )
        return interior_shape, radius

    def checksum(
        self,
        u: np.ndarray,
        axis: int,
        dtype: Optional[np.dtype] = None,
        plan=None,
    ) -> np.ndarray:
        """Checksum vector of ``u`` along ``axis`` (Eqs. 2-3).

        ``axis`` is 0 for the column checksum ``b`` and 1 for the row
        checksum ``a``; ``dtype`` selects the accumulation precision
        (``None`` accumulates in the domain dtype, the paper's float32
        behaviour).  ``plan`` is a
        :class:`~repro.backends.fused.FoldPlan`, which only the lane
        fold reads: this reduction ignores it.
        """
        from repro.core.checksums import checksum as _checksum

        return _checksum(u, axis, dtype=dtype)

    def sweep_into(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
        plan: Optional[StepPlan] = None,
    ) -> np.ndarray:
        """One sweep from ``src_padded`` into the interior of ``dst_padded``.

        This is the zero-copy primitive of the double-buffered pipeline:
        the new step is materialised inside the destination padded buffer
        (whose ghost cells are refreshed separately, before the *next*
        sweep reads it), so stepping allocates no full-domain array.

        ``plan`` is the pair's :class:`StepPlan` and is required: a call
        without it, or on buffers it was not built over, raises
        ``ValueError``.  The sweep runs on what the plan records;
        ``spec``, ``radius``, ``interior_shape`` and ``constant`` are
        the plan's (every step passes them so), which keeps each call's
        work readable from its arguments.  This base form sweeps into a
        fresh array with ``sweep_padded`` and copies the result into the
        destination interior.

        **Ghost-overwrite rule.**  ``src_padded`` is never written,
        except by the backend's own step: the ``fused`` step's call
        fills the source ghost lanes the step left to it (see
        ``_refresh_and_sweep``).  In
        ``dst_padded``, the ghost cells of axes >= 1 that lie inside the
        interior's axis-0 extent may be overwritten with meaningless
        values (the flat-stride sweep computes through them); its
        axis-0 ghost slabs and all memory outside
        ``dst_padded`` are left alone.  Every in-tree caller refreshes
        or ingests those ghosts before it reads them:

        * :meth:`~repro.stencil.doublebuffer.DoubleBufferedGrid.step` —
          the written buffer becomes the front buffer, refreshed at the
          start of the next step;
        * the distributed runner — halo ingestion fills the distributed
          axis, the partial-axis refresh of the step the remaining ones;
        * the batched step (``batch_step_into``) — the same refresh
          over the run-extended buffer pair.

        Returns the destination interior view.
        """
        interior = _direction(plan, src_padded, dst_padded).interior
        interior[...] = self.sweep_padded(
            src_padded, plan.spec, plan.radius, plan.interior_shape,
            constant=plan.constant,
        )
        return interior

    # -- backend-owned full steps (ghost refresh + sweep) --------------------
    def step_into(
        self, src_padded: np.ndarray, dst_padded: np.ndarray, plan: StepPlan
    ) -> np.ndarray:
        """One full step of ``plan``'s pair: ghost refresh + sweep.

        Unlike ``sweep_into``, the source halo is *not* assumed valid on
        entry: it is (re)filled from the plan's boundary as part of the
        step.  On return the source halo is consistent with its
        interior — the protectors rely on that when interpolating
        checksums from the previous padded step — whether it was filled
        before the sweep or, as the ``fused`` backend fills the last
        ghost axis, inside it.

        The plan's refresh axes restrict the ghost refresh to a subset
        of axes.  This is the distributed-runner hook: a rank buffer's
        halo slabs along the distributed axis are ingested from
        neighbour messages *before* the step, so only the remaining
        axes' ghosts are (re)built from the boundary condition — see
        :func:`repro.stencil.shift.refresh_ghosts`.

        ``plan`` is the :class:`StepPlan` the pair was built with (what
        a :class:`~repro.stencil.doublebuffer.DoubleBufferedGrid` builds
        once); buffers it was not built over raise ``ValueError``
        before anything is written.  Returns the destination interior
        view.
        """
        _direction(plan, src_padded, dst_padded)
        return self._refresh_and_sweep(src_padded, dst_padded, plan)

    def batch_step_into(
        self, src_padded: np.ndarray, dst_padded: np.ndarray, plan: StepPlan
    ) -> np.ndarray:
        """One full step of a whole *batch* of independent runs.

        ``src_padded``/``dst_padded`` carry a trailing run axis ``b``
        (shape ``padded_shape + (nb,)``), and ``plan`` is the
        :class:`StepPlan` of that run-extended pair, built with
        :func:`batch_arguments` as a stacked campaign batch builds it.
        Slot ``b`` of the batch is stepped exactly like
        :meth:`step_into` on ``[..., b]`` views — ghost refresh
        included, constant shared across runs — and comes out
        bit-identical to that single-run step.  This is the campaign
        engine's stacked fast path.

        The batch is one (ndim+1)-dimensional domain whose run axis has
        ghost width 0, so the one step body covers every run.  Per-slot
        bit-identity holds because every constituent is elementwise: the
        slab fills copy slot-by-slot and the sweep's multiply/add
        sequence is the single-run order on each slot.  The batch's
        pair is two whole buffers of its own width, as every plan's
        pair is, so it takes the flat-stride sweep.  As for
        :meth:`step_into`, buffers the plan was not built over raise
        ``ValueError``.

        Returns the batched destination interior view
        (``interior_shape + (nb,)``).
        """
        _direction(plan, src_padded, dst_padded)
        return self._refresh_and_sweep(src_padded, dst_padded, plan)

    def _refresh_and_sweep(
        self, src_padded: np.ndarray, dst_padded: np.ndarray, plan: StepPlan
    ) -> np.ndarray:
        """The body of every step: refresh the source's ghosts, then sweep.

        :func:`~repro.stencil.shift.refresh_ghosts` with the plan's
        refresh, followed by :meth:`sweep_into`; returns the destination
        interior view.  ``step_into`` and the batched step both run it,
        so ``FusedBackend``, which fills ghosts inside its sweep,
        overrides only this.
        """
        refresh_ghosts(
            src_padded, plan.radius, plan.boundary, axes=plan.refresh_axes,
            plan=plan.refresh,
        )
        return self.sweep_into(
            src_padded, dst_padded, plan.spec, plan.radius, plan.interior_shape,
            constant=plan.constant, plan=plan,
        )


def batch_arguments(
    spec,
    radius,
    interior_shape: Sequence[int],
    boundary,
    constant: Optional[np.ndarray],
    runs: int,
) -> Tuple:
    """A step's arguments extended over a trailing axis of ``runs`` runs.

    The operator, radius, interior shape, boundary and constant, in
    that order, of a :class:`StepPlan` over a batched pair (each buffer the padded
    single-run buffer with one trailing run axis appended): the
    :class:`~repro.stencil.spec.BatchOperator` of ``spec``, ghost width
    0 on the run axis, whose boundary condition is therefore never
    applied (clamp is a well-formed placeholder), and the per-domain
    ``constant`` broadcast over the runs.
    """
    interior_shape = tuple(int(n) for n in interior_shape)
    ndim = len(interior_shape)
    shape = interior_shape + (int(runs),)
    if constant is not None and constant.shape != interior_shape:
        raise ValueError(
            f"constant has shape {constant.shape}, expected "
            f"{interior_shape} (the constant is per-domain, not per-run)"
        )
    return (
        BatchOperator(spec),
        normalize_radius(radius, ndim) + (0,),
        shape,
        BoundarySpec(
            tuple(BoundarySpec.from_any(boundary, ndim))
            + (BoundaryCondition.clamp(),)
        ),
        None if constant is None else np.broadcast_to(constant[..., None], shape),
    )


def _direction(plan, src_padded: np.ndarray, dst_padded: np.ndarray) -> "_Direction":
    """``plan``'s step from ``src_padded`` into ``dst_padded``, or
    ``ValueError`` for a call without a plan."""
    if plan is None:
        raise ValueError("a step or sweep needs the StepPlan of its buffer pair")
    return plan.direction(src_padded, dst_padded)


class _Direction(NamedTuple):
    """A step of a :class:`StepPlan`'s pair from one buffer into the other."""

    #: Addresses of the source and the destination buffer.
    src: int
    dst: int
    #: The destination's interior view, what the step returns.
    interior: np.ndarray


class StepPlan:
    """What every step of one buffer pair derives from its layout, once.

    Built over the pair's two padded buffers and the operator, radius,
    interior shape, boundary, constant and refresh axes of its steps
    (:func:`batch_arguments` extends them over a batch of runs), it is
    the one record of the pair's layout and the only way to step the
    pair (:meth:`Backend.step_into`, :meth:`Backend.batch_step_into`,
    :meth:`Backend.sweep_into`):

    * the resolved ``radius``, ``boundary`` and ``refresh_axes``, and
      the arguments as given (``spec``, ``interior_shape``,
      ``constant``);
    * the ghost refresh (:func:`~repro.stencil.shift.refresh_plan`):
      the whole refresh in ``refresh``, and for a step that fills the
      last ghost axis inside its sweep, that axis's ``lanes`` and the
      refresh of the other axes in ``head``;
    * each buffer's address and interior view (:meth:`interior`), per
      step direction.

    ``sweep`` is left to the backend that sweeps the pair: the ``fused``
    backend keeps there, made on its first flat sweep, the flat-sweep
    geometry and the padded constant with its address.  The plan holds
    every array whose address it hands to compiled code (the buffers,
    the lanes and what ``sweep`` keeps), so clearing a cache never
    frees one.

    The plan is geometry only: a step still asks
    :func:`~repro.backends.get_backend` for the backend and
    :func:`~repro.backends.native.library` for the kernels, so a grid
    built earlier follows a swapped backend or a library marked
    unavailable.  It serves its own two buffers, in either order; a
    step or sweep of any other pair raises ``ValueError``
    (:meth:`direction`).  The pair is two whole C-contiguous buffers
    of one dtype, which every owner allocates (a grid, a rank, a
    stacked campaign batch of one width): a strided or overlapping
    buffer, or two dtypes, are refused at construction, naming the
    cause.
    """

    __slots__ = (
        "spec", "radius", "interior_shape", "boundary", "refresh_axes",
        "constant", "refresh", "head", "lanes", "sweep", "buffers",
        "_directions",
    )

    def __init__(
        self,
        front: np.ndarray,
        back: np.ndarray,
        spec,
        radius,
        interior_shape: Sequence[int],
        boundary,
        constant: Optional[np.ndarray] = None,
        refresh_axes: Optional[Sequence[int]] = None,
    ) -> None:
        interior_shape, radius = Backend._normalize_sweep_args(
            front, radius, interior_shape, constant, None
        )
        expected = padded_shape(interior_shape, radius)
        if np.may_share_memory(front, back):
            raise ValueError("the two buffers of a step plan overlap")
        for name, buffer in (("front", front), ("back", back)):
            if buffer.shape != expected:
                raise ValueError(
                    f"the {name} buffer has shape {buffer.shape}, expected "
                    f"{expected} (interior {interior_shape}, radius {radius})"
                )
            if not buffer.flags.c_contiguous:
                raise ValueError(
                    f"the {name} buffer is not C-contiguous: a step plan "
                    f"spans two whole buffers"
                )
        if front.dtype != back.dtype:
            raise ValueError(
                f"the buffers of a step plan differ in dtype ({front.dtype} "
                f"and {back.dtype})"
            )
        interiors = tuple(interior_view(b, radius) for b in (front, back))
        self.spec = spec
        self.radius = radius
        self.interior_shape = interior_shape
        self.boundary = BoundarySpec.from_any(boundary, front.ndim)
        self.refresh_axes = (
            None if refresh_axes is None else tuple(int(a) for a in refresh_axes)
        )
        self.constant = constant
        self.refresh = refresh_plan(
            front.shape, radius, self.boundary, self.refresh_axes
        )
        self.lanes = self.refresh.lanes
        self.head = None if self.lanes is None else refresh_plan(
            front.shape, radius, self.boundary, self.lanes.head
        )
        self.sweep: Optional[Tuple] = None
        #: The pair's two buffers, in the order given.
        self.buffers = (front, back)
        addresses = (front.ctypes.data, back.ctypes.data)
        self._directions = (
            _Direction(addresses[0], addresses[1], interiors[1]),
            _Direction(addresses[1], addresses[0], interiors[0]),
        )

    def __reduce__(self):
        # A copied or unpickled plan is built again over the copied
        # buffers: the addresses it holds belong to the originals.
        return type(self), (
            *self.buffers, self.spec, self.radius, self.interior_shape,
            self.boundary, self.constant, self.refresh_axes,
        )

    def interior(self, buffer: np.ndarray) -> Optional[np.ndarray]:
        """The interior view of one of the pair's buffers (else ``None``)."""
        a, b = self.buffers
        if buffer is a:
            return self._directions[1].interior
        if buffer is b:
            return self._directions[0].interior
        return None

    def direction(self, src: np.ndarray, dst: np.ndarray) -> _Direction:
        """The step from ``src`` into ``dst``; other buffers raise
        ``ValueError``."""
        a, b = self.buffers
        if src is a and dst is b:
            return self._directions[0]
        if src is b and dst is a:
            return self._directions[1]
        raise ValueError(
            "src_padded and dst_padded are not the two buffers the step "
            "plan was built over"
        )
