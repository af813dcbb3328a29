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
    full-domain array is allocated per iteration.  The base class holds
    the copy-based route (sweep to a fresh array, then copy into the
    destination interior) an overlapping buffer pair takes.
``step_into`` / ``batch_step_into``
    One whole *step* of a buffer pair, **including the ghost refresh**
    of the source buffer: refresh halo, then sweep into the destination
    interior; the batched form steps a batch of independent runs laid
    out along a trailing run axis.  Both run one private helper,
    ``_refresh_and_sweep``: here :func:`repro.stencil.shift.refresh_ghosts`
    followed by ``sweep_into``; ``FusedBackend`` overrides it to fill
    the last ghost axis inside its compiled sweep, so refresh and sweep
    are one traversal.  Either way the source buffer's halo holds the
    boundary condition afterwards, because the ABFT protectors read it
    for the Theorem-1 α/β terms.

``sweep_into``, ``step_into`` and ``batch_step_into`` take an optional
``plan``: the :class:`StepPlan` a double-buffered pair builds once over
its two buffers.  For those buffers the radius, boundary, refresh ops
and views come from it; any other call validates its arguments and
looks its plans up in their caches.  A plan holds geometry only, so the
base-class routes take it too.

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
from repro.stencil.shift import refresh_plan
from repro.stencil.spec import BatchOperator, StencilSpec

__all__ = ["Backend", "StepPlan"]


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
        from repro.stencil.shift import normalize_radius

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

    @staticmethod
    def _dst_interior(
        dst_padded: np.ndarray, radius, interior_shape: Sequence[int]
    ) -> np.ndarray:
        """Validated interior view of the destination padded buffer."""
        from repro.stencil.shift import interior_view, normalize_radius

        radius = normalize_radius(radius, dst_padded.ndim)
        interior_shape = tuple(int(n) for n in interior_shape)
        expected = tuple(
            n + 2 * r for n, r in zip(interior_shape, radius)
        )
        if dst_padded.shape != expected:
            raise ValueError(
                f"dst_padded has shape {dst_padded.shape}, expected {expected} "
                f"(interior {interior_shape}, radius {radius})"
            )
        return interior_view(dst_padded, radius)

    def sweep_into(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
        plan=None,
    ) -> np.ndarray:
        """One sweep from ``src_padded`` into the interior of ``dst_padded``.

        This is the zero-copy primitive of the double-buffered pipeline:
        the new step is materialised inside the destination padded buffer
        (whose ghost cells are refreshed separately, before the *next*
        sweep reads it), so stepping allocates no full-domain array.

        This base form is the **copy-based route**: it runs
        ``sweep_padded`` into a fresh array and copies the result into
        the destination interior, which is safe when ``src_padded`` and
        ``dst_padded`` overlap.  ``FusedBackend.sweep_into`` takes it
        for such a pair and writes in place otherwise.

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
        * the tiled runner — its tiles sweep through ``sweep_padded``
          into interior views and write no ghost; an axis-0 slab tile
          swept through this method would touch only its own rows'
          ghost columns, which the next ``padded_current()`` refresh
          rebuilds;
        * the distributed runner — halo ingestion fills the distributed
          axis, the partial-axis refresh of the step the remaining ones;
        * the batched step (``batch_step_into``) — the same refresh
          over the run-extended buffer pair.

        ``plan`` is the pair's :class:`StepPlan`, built from these
        arguments: for its own buffers the destination interior comes
        from it.

        Returns the destination interior view.
        """
        direction = None if plan is None else plan.direction(src_padded, dst_padded)
        if direction is None:
            interior = self._dst_interior(dst_padded, radius, interior_shape)
        else:
            interior = direction.interior
        interior[...] = self.sweep_padded(
            src_padded, spec, radius, interior_shape, constant=constant
        )
        return interior

    # -- backend-owned full steps (ghost refresh + sweep) --------------------
    @staticmethod
    def _check_pair(src_padded: np.ndarray, dst_padded: np.ndarray) -> None:
        """A step's source must be laid out like its destination.

        ``sweep_into`` validates the destination's shape, but the step
        refreshes the source's ghosts first: a wider or narrower source
        would be refreshed and swept through the wrong cells.
        """
        if src_padded.shape != dst_padded.shape:
            raise ValueError(
                f"src_padded has shape {src_padded.shape}, expected the "
                f"dst_padded shape {dst_padded.shape}"
            )

    def step_into(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        boundary,
        constant: Optional[np.ndarray] = None,
        refresh_axes: Optional[Sequence[int]] = None,
        plan=None,
    ) -> np.ndarray:
        """One full step of a buffer pair: ghost refresh + sweep.

        Unlike ``sweep_into``, the source halo is *not* assumed valid on
        entry: it is (re)filled from ``boundary`` as part of the step.
        On return the source halo is consistent with its interior — the
        protectors rely on that when interpolating checksums from the
        previous padded step — whether it was filled before the sweep
        or, as the ``fused`` backend fills the last ghost axis, inside
        it.  Callers with externally filled halos (tile views carrying
        neighbour data) must keep using ``sweep_into``.

        ``refresh_axes`` restricts the ghost refresh to a subset of axes
        (``None`` → all).  This is the distributed-runner hook: a rank
        buffer's halo slabs along the distributed axis are ingested from
        neighbour messages *before* the step, so only the remaining
        axes' ghosts are (re)built from the boundary condition — see
        :func:`repro.stencil.shift.refresh_ghosts`.

        ``plan`` is a :class:`StepPlan` (what a
        :class:`~repro.stencil.doublebuffer.DoubleBufferedGrid` builds
        once over its pair).  When it holds ``src_padded`` and
        ``dst_padded``, the step runs on the arguments it was built from
        and takes its refresh, geometry and views from it, skipping the
        per-call checks and cached lookups; a step of any other pair
        runs as without one.

        Returns the destination interior view.
        """
        if plan is not None and plan.direction(src_padded, dst_padded) is not None:
            return self._planned_step(src_padded, dst_padded, plan)
        self._check_pair(src_padded, dst_padded)
        return self._refresh_and_sweep(
            src_padded, dst_padded, spec, radius, interior_shape, boundary,
            constant, refresh_axes,
        )

    def _planned_step(self, src_padded, dst_padded, plan) -> np.ndarray:
        """A step of ``plan``'s pair, on the arguments it was built from."""
        return self._refresh_and_sweep(
            src_padded, dst_padded, plan.spec, plan.radius, plan.interior_shape,
            plan.boundary, plan.constant, plan.refresh_axes, plan,
        )

    def _refresh_and_sweep(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        boundary,
        constant: Optional[np.ndarray],
        refresh_axes: Optional[Sequence[int]],
        plan=None,
    ) -> np.ndarray:
        """The body of every step: refresh the source's ghosts, then sweep.

        :func:`~repro.stencil.shift.refresh_ghosts` followed by
        :meth:`sweep_into`, each given the step's plan (or ``None``);
        returns the destination interior view.  ``step_into`` and the
        batched step both run it, so ``FusedBackend``, which fills
        ghosts inside its sweep, overrides only this.
        """
        from repro.stencil.shift import refresh_ghosts

        refresh_ghosts(
            src_padded, radius, boundary, axes=refresh_axes,
            plan=None if plan is None else plan.refresh,
        )
        return self.sweep_into(
            src_padded, dst_padded, spec, radius, interior_shape,
            constant=constant, plan=plan,
        )

    # -- batched campaign steps: trailing run axis ---------------------------
    @staticmethod
    def _batch_geometry(
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray],
    ):
        """``batch_step_into``'s validation.

        Batched buffers are the padded single-run buffers with one
        trailing run axis appended: shape ``padded_shape + (nb,)``.
        Returns the coerced ``(radius, interior_shape, nb)``.
        """
        from repro.stencil.shift import normalize_radius, padded_shape

        interior_shape = tuple(int(n) for n in interior_shape)
        radius = normalize_radius(radius, len(interior_shape))
        expected = padded_shape(interior_shape, radius)
        if (
            src_padded.ndim != len(interior_shape) + 1
            or src_padded.shape[:-1] != tuple(expected)
        ):
            raise ValueError(
                f"batched src_padded has shape {src_padded.shape}, expected "
                f"{tuple(expected)} + (runs,) (interior {interior_shape}, "
                f"radius {radius})"
            )
        if dst_padded.shape != src_padded.shape:
            raise ValueError(
                f"batched dst_padded has shape {dst_padded.shape}, "
                f"expected {src_padded.shape}"
            )
        nb = int(src_padded.shape[-1])
        if nb < 1:
            raise ValueError(f"batch width must be >= 1, got {nb}")
        if constant is not None and constant.shape != interior_shape:
            raise ValueError(
                f"constant has shape {constant.shape}, expected "
                f"{interior_shape} (the constant is per-domain, not per-run)"
            )
        return radius, interior_shape, nb

    def batch_step_into(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        boundary,
        constant: Optional[np.ndarray] = None,
        refresh_axes: Optional[Sequence[int]] = None,
        plan=None,
    ) -> np.ndarray:
        """One full step of a whole *batch* of independent runs.

        ``src_padded``/``dst_padded`` carry a trailing run axis ``b``
        (shape ``padded_shape + (nb,)``); slot ``b`` of the batch is
        stepped exactly like :meth:`step_into` on ``[..., b]`` views —
        ghost refresh from ``boundary`` included, constant shared across
        runs — and comes out bit-identical to that single-run call.
        This is the campaign engine's stacked fast path.

        The batch is treated as one (ndim+1)-dimensional domain whose
        run axis has ghost width 0, so a single ``_refresh_and_sweep``
        covers every run.  Per-slot bit-identity holds because every
        constituent is elementwise: the slab fills copy slot-by-slot and
        the sweep's multiply/add sequence is the single-run order on
        each slot.  A full-width batch pair is contiguous and takes the
        flat-stride sweep; a narrower slice of the pair is strided and
        takes the staged route.

        ``plan`` is the :class:`StepPlan` of the run-extended pair (built
        over it with the :class:`BatchOperator` of ``spec``,
        ``radius + (0,)``, ``interior_shape + (nb,)``, the boundary with
        one more axis and the constant broadcast over the runs, as a
        stacked campaign batch builds its pair): as for
        :meth:`step_into`, it serves only the buffers it was built over.

        Returns the batched destination interior view
        (``interior_shape + (nb,)``).
        """
        if plan is not None and plan.direction(src_padded, dst_padded) is not None:
            return self._planned_step(src_padded, dst_padded, plan)
        radius, interior_shape, nb = self._batch_geometry(
            src_padded, dst_padded, radius, interior_shape, constant
        )
        ndim = len(interior_shape)
        ext_radius = radius + (0,)
        ext_shape = interior_shape + (nb,)
        bspec = BoundarySpec.from_any(boundary, ndim)
        # The run axis has zero ghost width, so its boundary condition
        # is never applied; clamp is just a well-formed placeholder.
        ext_boundary = tuple(bspec) + (BoundaryCondition.clamp(),)
        ext_const = (
            None
            if constant is None
            else np.broadcast_to(constant[..., None], ext_shape)
        )
        return self._refresh_and_sweep(
            src_padded, dst_padded, BatchOperator(spec), ext_radius,
            ext_shape, ext_boundary, ext_const, refresh_axes,
        )


class _Direction(NamedTuple):
    """A step of a :class:`StepPlan`'s pair from one buffer into the other."""

    #: Addresses of the source and the destination buffer.
    src: int
    dst: int
    #: The destination's interior view, what the step returns.
    interior: np.ndarray


class StepPlan:
    """What every step of one buffer pair derives from its layout, once.

    Built over the pair's two padded buffers and the arguments of its
    steps (those of :meth:`Backend.step_into`), validated as a step
    validates them, it is the one record of the pair's layout:

    * the resolved ``radius``, ``boundary`` and ``refresh_axes``, and
      the arguments as given (``spec``, ``interior_shape``,
      ``constant``);
    * the ghost refresh (:func:`~repro.stencil.shift.refresh_plan`):
      the whole refresh in ``refresh``, and for a step that fills the
      last ghost axis inside its sweep, that axis's ``lanes`` and the
      refresh of the other axes in ``head``;
    * whether the pair is two whole C-contiguous buffers of one dtype
      (``contiguous``), and each buffer's address and interior view
      (:meth:`interior`), per step direction.

    ``sweep`` is left to the backend that sweeps the pair: the ``fused``
    backend keeps there, made on its first flat sweep through its
    caches, the flat-sweep geometry and the padded constant with its
    address.  The plan holds every array whose address it hands to
    compiled code (the buffers, the lanes and what ``sweep`` keeps), so
    clearing a plan cache never frees one.

    The plan is geometry only: a step still asks
    :func:`~repro.backends.get_backend` for the backend and
    :func:`~repro.backends.native.library` for the kernels, so a grid
    built earlier follows a swapped backend or a library marked
    unavailable.  It serves its own two buffers, in either order; a
    step of any other pair ignores it (:meth:`direction`).
    """

    __slots__ = (
        "spec", "radius", "interior_shape", "boundary", "refresh_axes",
        "constant", "refresh", "head", "lanes", "contiguous", "sweep",
        "buffers", "_directions",
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
        Backend._check_pair(front, back)
        if np.may_share_memory(front, back):
            raise ValueError("the two buffers of a step plan overlap")
        interiors = tuple(
            Backend._dst_interior(b, radius, interior_shape) for b in (front, back)
        )
        interior_shape, radius = Backend._normalize_sweep_args(
            front, radius, interior_shape, constant, None
        )
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
        self.contiguous = (
            front.flags.c_contiguous and back.flags.c_contiguous
            and front.dtype == back.dtype
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

    def direction(self, src: np.ndarray, dst: np.ndarray) -> Optional[_Direction]:
        """The step from ``src`` into ``dst``, or ``None`` for another pair."""
        a, b = self.buffers
        if src is a and dst is b:
            return self._directions[0]
        if src is b and dst is a:
            return self._directions[1]
        return None
