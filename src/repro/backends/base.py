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

Every sweep is bitwise equal to
:func:`repro.stencil.reference.reference_sweep_padded`, compiled or
not: ``tests/test_backends.py`` and ``tests/test_step_contract.py``
check both paths against it, and these base-class routes too, on a
subclass whose only sweep is the reference.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.stencil.spec import StencilSpec

__all__ = ["Backend"]


class _BatchedSpecView:
    """Duck-typed view of a spec with a trailing zero offset appended.

    :class:`~repro.stencil.spec.StencilSpec` only models 2D/3D
    operators, but the sweeps consume nothing beyond the
    ``(offset, weight)`` iteration — so the batched step extends each
    offset with ``0`` along the run axis through this shim instead of
    constructing an (impossible) higher-dimensional spec.
    """

    __slots__ = ("_points", "ndim")

    def __init__(self, spec: StencilSpec) -> None:
        self._points = tuple(
            (tuple(offset) + (0,), weight) for offset, weight in spec
        )
        self.ndim = spec.ndim + 1

    def __iter__(self):
        return iter(self._points)


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
        self, u: np.ndarray, axis: int, dtype: Optional[np.dtype] = None
    ) -> np.ndarray:
        """Checksum vector of ``u`` along ``axis`` (Eqs. 2-3).

        ``axis`` is 0 for the column checksum ``b`` and 1 for the row
        checksum ``a``; ``dtype`` selects the accumulation precision
        (``None`` accumulates in the domain dtype, the paper's float32
        behaviour).
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

        Returns the destination interior view.
        """
        interior = self._dst_interior(dst_padded, radius, interior_shape)
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

        Returns the destination interior view.
        """
        self._check_pair(src_padded, dst_padded)
        return self._refresh_and_sweep(
            src_padded, dst_padded, spec, radius, interior_shape, boundary,
            constant, refresh_axes,
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
    ) -> np.ndarray:
        """The body of every step: refresh the source's ghosts, then sweep.

        :func:`~repro.stencil.shift.refresh_ghosts` followed by
        :meth:`sweep_into`; returns the destination interior view.
        ``step_into`` and the batched step both run it, so
        ``FusedBackend``, which fills ghosts inside its sweep, overrides
        only this.
        """
        from repro.stencil.shift import refresh_ghosts

        refresh_ghosts(src_padded, radius, boundary, axes=refresh_axes)
        return self.sweep_into(
            src_padded, dst_padded, spec, radius, interior_shape, constant=constant
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

        Returns the batched destination interior view
        (``interior_shape + (nb,)``).
        """
        from repro.stencil.boundary import BoundaryCondition, BoundarySpec

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
            src_padded, dst_padded, _BatchedSpecView(spec), ext_radius,
            ext_shape, ext_boundary, ext_const, refresh_axes,
        )
