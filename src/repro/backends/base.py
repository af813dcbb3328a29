"""The compute-backend contract.

A *backend* owns the three numerical primitives every other layer of the
reproduction is built on:

``sweep_padded``
    One stencil sweep over a ghost-padded array (Equation (1) of the
    paper) returning the updated interior.
``checksum``
    A checksum vector of a domain along one reduction axis
    (Equations (2)-(3)).
``sweep_with_checksums``
    The *fused* primitive: one sweep that also produces the checksum
    vector(s) of the freshly computed interior, mirroring the paper's
    fused kernel where the checksum is accumulated by the sweep itself
    rather than by a separate post-hoc pass over the domain.
``sweep_into`` / ``sweep_into_with_checksums``
    The *zero-copy* forms used by the double-buffered grids: the sweep
    reads one persistent padded buffer and writes the new interior
    straight into the interior block of a second padded buffer, so no
    full-domain array is allocated per iteration.  The base class
    provides a copy-based fallback (sweep to a fresh array, then copy
    into the destination interior) so a third-party backend that only
    implements ``sweep_padded`` keeps working; the built-in backends
    override it to write in place.
``step_into`` / ``step_into_with_checksums``
    One whole protected *step* of a buffer pair, **including the ghost
    refresh** of the source buffer: refresh halo, sweep into the
    destination interior and (for the fused form) accumulate the
    row/column checksums.  The base implementation simply runs
    :func:`repro.stencil.shift.refresh_ghosts` followed by
    ``sweep_into*``; a backend that *owns* its ghost refresh — e.g. a
    JIT backend whose compiled kernel fills ghost values and checksums
    in the same traversal that sweeps — overrides these and advertises
    it through :meth:`supports_fused_step`.  Either way the source
    buffer's halo holds the boundary condition afterwards, because the
    ABFT protectors read it for the Theorem-1 α/β terms.

All backends must agree numerically with the ``numpy`` reference within
the detection threshold recommended by
:func:`repro.core.thresholds.recommend_epsilon` — otherwise swapping the
backend would shift the false-positive/detection trade-off the paper
calibrates.  The equivalence is enforced by ``tests/test_backends.py``
for every registered backend.

Backends are registered with :func:`repro.backends.register_backend` and
selected through :func:`repro.backends.get_backend` (programmatically),
the ``REPRO_BACKEND`` environment variable, or the ``--backend`` CLI
flag.  See ``README.md`` ("Adding a backend") for a walkthrough.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.stencil.spec import StencilSpec

__all__ = [
    "Backend",
    "ChecksumMap",
    "interpreted_step_counts",
    "reset_interpreted_step_counts",
]

#: ``{reduce_axis: checksum_vector}`` as produced by the fused sweep.
ChecksumMap = Dict[int, np.ndarray]

#: Per-backend count of steps that took the *interpreted* path — the
#: base ``step_into*`` implementations below (separate
#: ``refresh_ghosts`` pass + sweep) rather than a backend-owned fused
#: step.  CI uses this to assert that a compiled backend never silently
#: falls back: run the suite with ``REPRO_ASSERT_COMPILED_STEPS=numba``
#: and the session hook in ``tests/conftest.py`` fails if the named
#: backend recorded any interpreted step.
_INTERPRETED_STEPS: Dict[str, int] = {}


def interpreted_step_counts() -> Dict[str, int]:
    """Snapshot of ``{backend name: interpreted step count}``."""
    return dict(_INTERPRETED_STEPS)


def reset_interpreted_step_counts() -> None:
    """Clear the interpreted-step counters (test isolation)."""
    _INTERPRETED_STEPS.clear()


def _record_interpreted_step(backend: "Backend") -> None:
    name = getattr(backend, "name", "abstract")
    _INTERPRETED_STEPS[name] = _INTERPRETED_STEPS.get(name, 0) + 1


class _BatchedSpecView:
    """Duck-typed view of a spec with a trailing zero offset appended.

    :class:`~repro.stencil.spec.StencilSpec` only models 2D/3D
    operators, but the interpreted sweeps consume nothing beyond the
    ``(offset, weight)`` iteration — so the batched interpreted path
    extends each offset with ``0`` along the run axis through this shim
    instead of constructing an (impossible) higher-dimensional spec.
    """

    __slots__ = ("_points", "ndim")

    def __init__(self, spec: StencilSpec) -> None:
        self._points = tuple(
            (tuple(offset) + (0,), weight) for offset, weight in spec
        )
        self.ndim = spec.ndim + 1

    def __iter__(self):
        return iter(self._points)


class Backend(ABC):
    """Abstract compute backend: sweep, checksum and fused sweep+checksum."""

    #: Registry name (also accepted by ``get_backend`` / ``REPRO_BACKEND``).
    name: str = "abstract"

    @abstractmethod
    def sweep_padded(
        self,
        padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply one stencil sweep to a ghost-padded array.

        Parameters
        ----------
        padded:
            Domain surrounded by ghost cells (boundary condition or halo
            data already applied).
        spec:
            The stencil operator.
        radius:
            Ghost width of ``padded`` (scalar or per axis); must be at
            least the stencil radius on every axis.
        interior_shape:
            Shape of the interior domain to update.
        constant:
            Optional per-point constant term :math:`C` (same shape as
            the interior), e.g. a heat-source/power map.
        out:
            Optional pre-allocated output array (interior shape).

        Returns
        -------
        numpy.ndarray
            The updated interior domain at step ``t+1``.
        """

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
        ``ValueError`` on shape mismatches. Backends call this first so
        validation behaviour cannot drift between implementations.
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

    def sweep_with_checksums(
        self,
        padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        axes: Sequence[int],
        constant: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        checksum_dtype: Optional[np.dtype] = None,
    ) -> Tuple[np.ndarray, ChecksumMap]:
        """One sweep returning the new interior *and* its checksum(s).

        The base implementation is deliberately unfused — a full sweep
        followed by one independent checksum pass per axis — so that a
        minimal backend only has to provide ``sweep_padded``.  Optimised
        backends override this to produce the checksums from the same
        traversal that computes the interior.

        Parameters
        ----------
        axes:
            Reduction axes to checksum (subset of ``(0, 1)``).
        checksum_dtype:
            Accumulation dtype of the checksums (``None`` → domain
            dtype, as in the paper's fused float32 kernel).

        Returns
        -------
        (new_interior, {axis: checksum_vector})
        """
        new = self.sweep_padded(
            padded, spec, radius, interior_shape, constant=constant, out=out
        )
        checksums: ChecksumMap = {
            int(axis): self.checksum(new, int(axis), dtype=checksum_dtype)
            for axis in axes
        }
        return new, checksums

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

        The base implementation is the **copy-based fallback**: it runs
        ``sweep_padded`` into a fresh array and copies the result into
        the destination interior.  That is always safe — including when
        ``src_padded`` and ``dst_padded`` overlap — and keeps minimal
        third-party backends working unchanged.  Optimised backends
        override this to pass the destination interior as ``out``.

        **Ghost-overwrite rule.**  ``src_padded`` is never written.  In
        ``dst_padded``, the ghost cells of axes >= 1 that lie inside the
        interior's axis-0 extent may be overwritten with meaningless
        values (the ``fused`` backend's flat-stride sweep computes
        through them); its axis-0 ghost slabs and all memory outside
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
        * the batched step (``batch_step_into*``) — the same refresh
          over the run-extended buffer pair.

        Returns the destination interior view.
        """
        interior = self._dst_interior(dst_padded, radius, interior_shape)
        new = self.sweep_padded(
            src_padded, spec, radius, interior_shape, constant=constant
        )
        if new is not interior:
            interior[...] = new
        return interior

    def sweep_into_with_checksums(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        axes: Sequence[int],
        constant: Optional[np.ndarray] = None,
        checksum_dtype: Optional[np.dtype] = None,
    ) -> Tuple[np.ndarray, ChecksumMap]:
        """Fused form of :meth:`sweep_into`: also checksum the new interior.

        The checksums are reduced from the freshly written (cache-hot)
        destination interior, exactly as ``sweep_with_checksums`` does
        for the allocating path.
        """
        interior = self.sweep_into(
            src_padded, dst_padded, spec, radius, interior_shape, constant=constant
        )
        checksums: ChecksumMap = {
            int(axis): self.checksum(interior, int(axis), dtype=checksum_dtype)
            for axis in axes
        }
        return interior, checksums

    # -- backend-owned full steps (ghost refresh + sweep [+ checksums]) -----
    def supports_fused_step(
        self, spec: StencilSpec, boundary, radius, interior_shape: Sequence[int]
    ) -> bool:
        """Whether ``step_into*`` fuses the ghost refresh into the sweep.

        ``False`` (the default) means the base implementations below run
        the separate :func:`~repro.stencil.shift.refresh_ghosts` pass
        before sweeping — still correct, just not a single traversal.
        The answer is per configuration only so a backend can report
        what it *does* for a layout; the built-in compiled backend
        generates a kernel for every layout and always answers ``True``.
        """
        return False

    #: Whether this backend generates/compiles kernels (and therefore
    #: has something to report from :meth:`compiled_kernels`).
    compiles_kernels: bool = False

    def compiled_kernels(self) -> Tuple[Dict, ...]:
        """Stats for the backend's compiled-kernel cache entries.

        Interpreted backends have none and return an empty tuple; a
        compiling backend returns one dict per generated kernel module
        (signature, codegen/warmup time, hit counts...) — surfaced by
        ``repro backends --kernels`` and the backend benchmark.
        """
        return ()

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
        previous padded step.  Callers with externally filled halos
        (tile views carrying neighbour data) must keep using
        ``sweep_into``.

        ``refresh_axes`` restricts the ghost refresh to a subset of axes
        (``None`` → all).  This is the distributed-runner hook: a rank
        buffer's halo slabs along the distributed axis are ingested from
        neighbour messages *before* the step, so only the remaining
        axes' ghosts are (re)built from the boundary condition — see
        :func:`repro.stencil.shift.refresh_ghosts`.

        Returns the destination interior view.
        """
        from repro.stencil.shift import refresh_ghosts

        _record_interpreted_step(self)
        refresh_ghosts(src_padded, radius, boundary, axes=refresh_axes)
        return self.sweep_into(
            src_padded, dst_padded, spec, radius, interior_shape, constant=constant
        )

    def step_into_with_checksums(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        boundary,
        axes: Sequence[int],
        constant: Optional[np.ndarray] = None,
        checksum_dtype: Optional[np.dtype] = None,
        refresh_axes: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, ChecksumMap]:
        """Fused form of :meth:`step_into`: also checksum the new interior.

        This is the whole protected iteration as one backend-owned
        operation — the primitive a JIT backend compiles into a single
        traversal of the pair (ghost refresh, sweep and per-point
        checksum accumulation in one pass).  ``refresh_axes`` restricts
        the refresh exactly as in :meth:`step_into`.
        """
        from repro.stencil.shift import refresh_ghosts

        _record_interpreted_step(self)
        refresh_ghosts(src_padded, radius, boundary, axes=refresh_axes)
        return self.sweep_into_with_checksums(
            src_padded,
            dst_padded,
            spec,
            radius,
            interior_shape,
            axes,
            constant=constant,
            checksum_dtype=checksum_dtype,
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
        """Shared ``batch_step_into*`` validation.

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
        runs — and must come out bit-identical to that single-run call.
        This is the campaign engine's stacked fast path: compiled
        backends override it with one generated ``bstep`` traversal
        (outer ``prange`` over runs); the base implementation is the
        always-correct loop over slots.

        Returns the batched destination interior view
        (``interior_shape + (nb,)``).
        """
        from repro.stencil.shift import interior_view

        radius, interior_shape, nb = self._batch_geometry(
            src_padded, dst_padded, radius, interior_shape, constant
        )
        for b in range(nb):
            self.step_into(
                src_padded[..., b],
                dst_padded[..., b],
                spec,
                radius,
                interior_shape,
                boundary,
                constant=constant,
                refresh_axes=refresh_axes,
            )
        return interior_view(dst_padded, radius + (0,))

    def batch_step_into_with_checksums(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        boundary,
        axes: Sequence[int],
        constant: Optional[np.ndarray] = None,
        checksum_dtype: Optional[np.dtype] = None,
        refresh_axes: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, ChecksumMap]:
        """Fused form of :meth:`batch_step_into`: per-run checksums too.

        The checksum map's vectors gain a trailing run axis as well
        (axis 0 of a 2D domain → shape ``(n1, nb)``), with slot ``b``
        bit-identical to the single-run checksum of run ``b``.
        """
        from repro.stencil.shift import interior_view

        radius, interior_shape, nb = self._batch_geometry(
            src_padded, dst_padded, radius, interior_shape, constant
        )
        axes = tuple(int(a) for a in axes)
        per_axis = {a: [] for a in axes}
        for b in range(nb):
            _, cs = self.step_into_with_checksums(
                src_padded[..., b],
                dst_padded[..., b],
                spec,
                radius,
                interior_shape,
                boundary,
                axes,
                constant=constant,
                checksum_dtype=checksum_dtype,
            )
            for a in axes:
                per_axis[a].append(cs[a])
        checksums: ChecksumMap = {
            a: np.stack(vs, axis=-1) for a, vs in per_axis.items()
        }
        return interior_view(dst_padded, radius + (0,)), checksums

    def _batch_step_vectorized(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        boundary,
        constant: Optional[np.ndarray] = None,
        refresh_axes: Optional[Sequence[int]] = None,
        axes: Optional[Sequence[int]] = None,
        checksum_dtype: Optional[np.dtype] = None,
    ):
        """Whole-batch interpreted step in one vectorised pass.

        The interpreted backends' shared ``batch_step_into*`` body: the
        batch is treated as one (ndim+1)-dimensional domain whose run
        axis has ghost width 0, so a single ``refresh_ghosts`` +
        ``sweep_into`` covers every run.  Per-slot bit-identity with the
        single-run step holds because every constituent is elementwise
        or reduces a non-batch axis: the slab fills copy slot-by-slot,
        the sweep's multiply/add sequence is the single-run order on
        each slot, and the checksum reduction never crosses the run
        axis.  With ``axes`` the per-run checksums are returned as well
        (trailing run axis).
        """
        from repro.stencil.boundary import BoundaryCondition, BoundarySpec
        from repro.stencil.shift import refresh_ghosts

        radius, interior_shape, nb = self._batch_geometry(
            src_padded, dst_padded, radius, interior_shape, constant
        )
        _record_interpreted_step(self)
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
        refresh_ghosts(src_padded, ext_radius, ext_boundary, axes=refresh_axes)
        interior = self.sweep_into(
            src_padded,
            dst_padded,
            _BatchedSpecView(spec),
            ext_radius,
            ext_shape,
            constant=ext_const,
        )
        if axes is None:
            return interior
        checksums: ChecksumMap = {
            int(a): interior.sum(axis=int(a), dtype=checksum_dtype)
            for a in axes
        }
        return interior, checksums

    def warmup(
        self,
        spec: StencilSpec,
        boundary=None,
        dtype=np.float32,
        checksum_dtype=np.float64,
        radius=None,
        external_axes: Sequence[int] = (),
        batch_width: int = 0,
    ) -> None:
        """Prepare the backend for an operator before timing-sensitive work.

        A no-op by default.  JIT backends override this to trigger (or
        load from the on-disk cache) the compilation of every kernel the
        operator will need, so the one-off compile cost never lands
        inside a benchmark loop or a worker process mid-run.  ``radius``
        and ``external_axes`` describe the buffer layout the caller will
        step (ghost width beyond the stencil radius; distributed axes
        whose halo arrives from neighbours) so layout-specialized
        kernels can be prepared as well, and ``batch_width > 0`` the
        batched campaign kernels (``bstep``/``bstep_cs``) at that run-axis
        width.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
