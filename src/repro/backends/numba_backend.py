"""The ``numba`` backend: generated, JIT-compiled fused kernels.

The interpreted backends can only fuse at *call* granularity — the
``fused`` backend's docstring records that a per-stencil-point
incremental checksum was measured slower in NumPy, because each stencil
point would pay an extra full reduction pass.  Once the loop is
compiled that trade-off inverts: a single traversal of the buffer pair
can refresh the ghost cells, apply the stencil and accumulate both
checksum vectors *per point*, touching every domain value exactly once
per protected iteration.

This backend no longer ships hand-written kernels.  Every kernel it
runs is **generated** by the stencil kernel compiler
(:mod:`repro.backends.codegen`) from the spec's offset table plus the
grid layout — per-axis ghost width, boundary kind and external-axis
set.  Because the halo plan lowers each boundary kind into an explicit
index mapping (periodic as exact modular tiling, valid for degenerate
``r > n`` wraps too; external axes as "span me like interior"), there
is no layout this backend declines: arbitrary boundary mixes, every
external-axis ordering and degenerate periodic halos all run the
compiled path.  Aliasing buffer pairs are handled *inside* the backend
by staging through a cached scratch buffer — still the compiled kernel,
never an interpreted fallback.

* ``sweep_padded`` / ``sweep_into`` — generated sweeps (2D and 3D,
  offsets unrolled, weights as a pre-cast runtime vector, optional
  constant term), accumulating in the domain dtype in the same order as
  the ``numpy`` reference — the swept interior is bit-identical to it.
* ``sweep_with_checksums`` / ``sweep_into_with_checksums`` — the same
  traversal also folds each freshly computed value into its row and
  column partials (``cs1`` indexed by the parallel loop variable,
  ``cs0`` merged by a parfor array reduction over thread-private
  partials).
* ``step_into`` / ``step_into_with_checksums`` — the backend *owns the
  ghost refresh* (see :meth:`~repro.backends.base.Backend.supports_fused_step`):
  one compiled call re-fills the source halo (bit-identical to
  :func:`repro.stencil.shift.refresh_ghosts`, corners owned by the
  highest axis), sweeps into the back buffer and accumulates the
  checksums — the whole protected iteration without returning to the
  interpreter, for **every** layout.

Checksums are accumulated sequentially per row/column in the requested
dtype, whereas ``numpy.sum`` reduces pairwise — the results differ by a
few ULPs, orders of magnitude below ``recommend_epsilon``, which is the
contract every backend is held to (see ``tests/test_backends.py``).

The module is importable without ``numba``: :data:`NUMBA_AVAILABLE`
reports the import gate, and ``repro.backends`` registers the backend
only when the import succeeds (otherwise it is listed as unavailable —
the *only* reason this backend is ever absent).  Generated modules are
compiled with ``cache=True`` against real on-disk source files, so the
compilation cost is paid once per machine, not once per process —
worker processes of the
:class:`~repro.parallel.executor.ProcessPoolTileExecutor` load the
on-disk artifact instead of recompiling; :meth:`NumbaBackend.warmup`
triggers (or loads) every kernel an operator's layout needs up front so
no compile lands inside a timed loop.
"""

from __future__ import annotations

import importlib.util
import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend, ChecksumMap
from repro.backends.codegen import CompiledKernels, KernelCompiler, get_compiler
from repro.stencil.boundary import BoundarySpec
from repro.stencil.doublebuffer import GridLayout
from repro.stencil.shift import interior_view, padded_shape
from repro.stencil.spec import StencilSpec

__all__ = ["NUMBA_AVAILABLE", "UNAVAILABLE_REASON", "NumbaBackend"]

#: Whether the optional ``numba`` dependency is importable in this process.
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None

#: Why the backend is absent when :data:`NUMBA_AVAILABLE` is false.  The
#: import gate is the *only* availability condition: the generated
#: kernels accept every layout, so there is no runtime decline to report.
UNAVAILABLE_REASON = (
    "requires the optional 'numba' package (pip install numba)"
)

#: Per-spec weight-vector cache entries kept before the cache resets.
_MAX_CACHED_SPECS = 16

#: Staging-buffer cache entries (aliasing pairs) kept before resetting.
_MAX_CACHED_STAGING = 8


class NumbaBackend(Backend):
    """JIT backend: generated per-point fusion of refresh + sweep + checksums.

    Parameters
    ----------
    compiler:
        The :class:`~repro.backends.codegen.KernelCompiler` to obtain
        kernels from.  ``None`` (the default) uses the process-wide
        compiler and requires ``numba`` to be importable; tests inject a
        private ``jit=False`` compiler to execute the generated source
        as plain Python on machines without the dependency.
    """

    name = "numba"
    compiles_kernels = True

    def __init__(self, compiler: Optional[KernelCompiler] = None) -> None:
        if compiler is None and not NUMBA_AVAILABLE:
            raise RuntimeError(f"the numba backend {UNAVAILABLE_REASON}")
        self._compiler = compiler if compiler is not None else get_compiler()
        self._spec_cache: Dict = {}
        self._staging: Dict = {}

    # -- kernel / argument marshalling ---------------------------------------
    def _kernels(
        self,
        spec: StencilSpec,
        constant: Optional[np.ndarray],
        layout: Optional[GridLayout] = None,
        batch: bool = False,
    ) -> CompiledKernels:
        return self._compiler.kernels_for(
            spec,
            has_const=constant is not None,
            layout=layout,
            batch=batch,
        )

    def _weights_arg(self, spec: StencilSpec, dtype: np.dtype) -> np.ndarray:
        """The spec's weight vector pre-cast to the domain dtype.

        Pre-casting keeps the compiled accumulation in the domain dtype
        (numba would otherwise promote float32*float64 to float64,
        changing the rounding relative to the reference).
        """
        key = (spec, np.dtype(dtype).str)
        cached = self._spec_cache.get(key)
        if cached is None:
            if len(self._spec_cache) >= _MAX_CACHED_SPECS:
                self._spec_cache.clear()
            cached = self._spec_cache[key] = np.ascontiguousarray(
                spec.weights, dtype=dtype
            )
        return cached

    @staticmethod
    def _const_arg(
        constant: Optional[np.ndarray], dtype: np.dtype, ndim: int
    ) -> np.ndarray:
        """The constant-term argument (a dummy keeps signatures stable)."""
        if constant is None:
            return np.zeros((1,) * ndim, dtype=dtype)
        return np.asarray(constant, dtype=dtype)

    @staticmethod
    def _fills_arg(layout: GridLayout) -> np.ndarray:
        """Per-axis ghost fill values for the generated refresh."""
        return np.asarray(layout.fills, dtype=np.float64)

    @staticmethod
    def _checksum_like(checksum_dtype, dtype: np.dtype) -> np.ndarray:
        """Zero-length dtype carrier for the checksum accumulators."""
        cs_dtype = dtype if checksum_dtype is None else np.dtype(checksum_dtype)
        return np.empty(0, dtype=cs_dtype)

    @staticmethod
    def _select_axes(
        cs0: np.ndarray, cs1: np.ndarray, axes: Sequence[int]
    ) -> ChecksumMap:
        both = {0: cs0, 1: cs1}
        out: ChecksumMap = {}
        for axis in axes:
            axis = int(axis)
            if axis not in both:
                raise ValueError(
                    f"checksum axes must be a subset of (0, 1), got {axis}"
                )
            out[axis] = both[axis]
        return out

    def _staging_buffer(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Cached padded-shape scratch for aliasing ``step_into`` pairs."""
        key = (tuple(int(n) for n in shape), np.dtype(dtype).str)
        buf = self._staging.get(key)
        if buf is None:
            if len(self._staging) >= _MAX_CACHED_STAGING:
                self._staging.clear()
            buf = self._staging[key] = np.empty(key[0], dtype=dtype)
        return buf

    # -- sweeps over trusted ghosts -----------------------------------------
    def sweep_padded(
        self,
        padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        interior_shape, radius = self._normalize_sweep_args(
            padded, radius, interior_shape, constant, out
        )
        dtype = padded.dtype
        if out is None:
            out = np.empty(interior_shape, dtype=dtype)
        kernels = self._kernels(spec, constant)
        wts = self._weights_arg(spec, dtype)
        const = self._const_arg(constant, dtype, padded.ndim)
        kernels.sweep(
            padded, out, wts, *radius, *(0,) * padded.ndim,
            *interior_shape, const,
        )
        return out

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
        interior_shape, radius = self._normalize_sweep_args(
            padded, radius, interior_shape, constant, out
        )
        dtype = padded.dtype
        if out is None:
            out = np.empty(interior_shape, dtype=dtype)
        kernels = self._kernels(spec, constant)
        wts = self._weights_arg(spec, dtype)
        const = self._const_arg(constant, dtype, padded.ndim)
        cs_like = self._checksum_like(checksum_dtype, dtype)
        cs0, cs1 = kernels.sweep_cs(
            padded, out, wts, *radius, *(0,) * padded.ndim,
            *interior_shape, const, cs_like,
        )
        return out, self._select_axes(cs0, cs1, axes)

    # -- zero-copy forms -----------------------------------------------------
    def sweep_into(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        interior = self._dst_interior(dst_padded, radius, interior_shape)
        if np.may_share_memory(src_padded, dst_padded):
            # Writing the interior while the sweep still reads the source
            # would corrupt the result; run the compiled sweep into a
            # fresh buffer and copy it over afterwards.
            interior[...] = self.sweep_padded(
                src_padded, spec, radius, interior_shape, constant=constant
            )
            return interior
        return self.sweep_padded(
            src_padded, spec, radius, interior_shape, constant=constant,
            out=interior,
        )

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
        interior = self._dst_interior(dst_padded, radius, interior_shape)
        if np.may_share_memory(src_padded, dst_padded):
            new, checksums = self.sweep_with_checksums(
                src_padded, spec, radius, interior_shape, axes,
                constant=constant, checksum_dtype=checksum_dtype,
            )
            interior[...] = new
            return interior, checksums
        return self.sweep_with_checksums(
            src_padded, spec, radius, interior_shape, axes,
            constant=constant, out=interior, checksum_dtype=checksum_dtype,
        )

    # -- backend-owned fused steps -------------------------------------------
    def supports_fused_step(
        self, spec: StencilSpec, boundary, radius, interior_shape: Sequence[int]
    ) -> bool:
        """True for every layout: the halo plan compiles them all.

        Degenerate periodic halos lower to the modular-tiling index
        mapping, external axes to full-extent spans, and aliasing pairs
        stage through a scratch buffer — none of the former decline
        conditions exist anymore.
        """
        return spec.ndim == len(tuple(interior_shape))

    def _step_args(
        self, src_padded, dst_padded, spec, radius, interior_shape, boundary,
        constant, refresh_axes,
    ):
        """Marshalled arguments for the generated ``step`` kernels."""
        bspec = BoundarySpec.from_any(boundary, spec.ndim)
        interior_shape, radius = self._normalize_sweep_args(
            src_padded, radius, interior_shape, constant, None
        )
        expected = padded_shape(interior_shape, radius)
        if src_padded.shape != expected:
            raise ValueError(
                f"src_padded has shape {src_padded.shape}, expected "
                f"{expected} (interior {interior_shape}, radius {radius})"
            )
        interior = self._dst_interior(dst_padded, radius, interior_shape)
        layout = GridLayout.from_args(
            radius, bspec, spec.ndim, refresh_axes=refresh_axes
        )
        kernels = self._kernels(spec, constant, layout=layout)
        dtype = src_padded.dtype
        wts = self._weights_arg(spec, dtype)
        const = self._const_arg(constant, dtype, src_padded.ndim)
        fills = self._fills_arg(layout)
        return interior_shape, radius, interior, kernels, wts, const, fills

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
        shape, radius, interior, kernels, wts, const, fills = self._step_args(
            src_padded, dst_padded, spec, radius, interior_shape, boundary,
            constant, refresh_axes,
        )
        if np.may_share_memory(src_padded, dst_padded):
            # Aliasing pair: run the compiled step against a staging
            # destination, then copy the interior over (the refresh part
            # is in-place on the source either way).
            stage = self._staging_buffer(src_padded.shape, src_padded.dtype)
            kernels.step(src_padded, stage, wts, *shape, const, fills)
            interior[...] = interior_view(stage, radius)
            return interior
        kernels.step(src_padded, dst_padded, wts, *shape, const, fills)
        return interior

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
        shape, radius, interior, kernels, wts, const, fills = self._step_args(
            src_padded, dst_padded, spec, radius, interior_shape, boundary,
            constant, refresh_axes,
        )
        cs_like = self._checksum_like(checksum_dtype, src_padded.dtype)
        if np.may_share_memory(src_padded, dst_padded):
            stage = self._staging_buffer(src_padded.shape, src_padded.dtype)
            cs0, cs1 = kernels.step_cs(
                src_padded, stage, wts, *shape, const, fills, cs_like
            )
            interior[...] = interior_view(stage, radius)
            return interior, self._select_axes(cs0, cs1, axes)
        cs0, cs1 = kernels.step_cs(
            src_padded, dst_padded, wts, *shape, const, fills, cs_like
        )
        return interior, self._select_axes(cs0, cs1, axes)

    # -- batched campaign steps: compiled bstep kernels -----------------------
    def _batch_args(
        self, src_padded, dst_padded, spec, radius, interior_shape, boundary,
        constant, refresh_axes,
    ):
        """Marshalled arguments for the generated ``bstep`` kernels.

        The layout is the *domain* layout — the trailing run axis never
        appears in the plan; the kernels take the batch width ``nb`` as
        a runtime argument instead, so every batch width shares one
        compiled module per layout.
        """
        radius, interior_shape, nb = self._batch_geometry(
            src_padded, dst_padded, radius, interior_shape, constant
        )
        bspec = BoundarySpec.from_any(boundary, spec.ndim)
        layout = GridLayout.from_args(
            radius, bspec, spec.ndim, refresh_axes=refresh_axes
        )
        kernels = self._kernels(spec, constant, layout=layout, batch=True)
        dtype = src_padded.dtype
        wts = self._weights_arg(spec, dtype)
        const = self._const_arg(constant, dtype, spec.ndim)
        fills = self._fills_arg(layout)
        return interior_shape, radius, nb, kernels, wts, const, fills

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
        if np.may_share_memory(src_padded, dst_padded):
            # Aliasing batched pair: the base loop-over-slots delegates
            # to this backend's own step_into, which stages internally —
            # every slot still runs a compiled kernel.
            return super().batch_step_into(
                src_padded, dst_padded, spec, radius, interior_shape,
                boundary, constant=constant, refresh_axes=refresh_axes,
            )
        shape, radius, nb, kernels, wts, const, fills = self._batch_args(
            src_padded, dst_padded, spec, radius, interior_shape, boundary,
            constant, refresh_axes,
        )
        kernels.bstep(src_padded, dst_padded, wts, *shape, nb, const, fills)
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
        if np.may_share_memory(src_padded, dst_padded):
            return super().batch_step_into_with_checksums(
                src_padded, dst_padded, spec, radius, interior_shape,
                boundary, axes, constant=constant,
                checksum_dtype=checksum_dtype, refresh_axes=refresh_axes,
            )
        shape, radius, nb, kernels, wts, const, fills = self._batch_args(
            src_padded, dst_padded, spec, radius, interior_shape, boundary,
            constant, refresh_axes,
        )
        cs_like = self._checksum_like(checksum_dtype, src_padded.dtype)
        cs0, cs1 = kernels.bstep_cs(
            src_padded, dst_padded, wts, *shape, nb, const, fills, cs_like
        )
        return (
            interior_view(dst_padded, radius + (0,)),
            self._select_axes(cs0, cs1, axes),
        )

    # -- compiled-kernel introspection ----------------------------------------
    @property
    def compiler(self) -> KernelCompiler:
        """The kernel compiler this backend draws from."""
        return self._compiler

    def compiled_kernels(self) -> Tuple[Dict, ...]:
        """Stats for every kernel this backend's compiler has built."""
        return self._compiler.stats()

    # -- warmup ---------------------------------------------------------------
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
        """Generate + compile (or load from disk) the layout's kernels.

        Runs each primitive once on a ghost-width-scaled toy domain, so
        the one-off codegen + JIT cost is paid here rather than inside a
        benchmark loop or a worker's first tile.  ``radius`` and
        ``external_axes`` describe the buffer layout to specialize for
        (defaults: the stencil's own radius, no external axes) — the
        runners pass their grids' layouts so the exact step kernels are
        ready.  Numba specializes per array *layout* as well as dtype,
        so the sweeps are also exercised on strided views (the tile
        executors sweep ``padded_tile_view`` slices of the global pair
        into strided interior slices).  Thanks to ``cache=True`` the
        compiled artifacts persist on disk: process-pool workers (and
        later runs) load them instead of recompiling.  First-call
        compile time is attributed to each kernel's cache entry
        (``repro backends --kernels``).
        """
        from repro.stencil.boundary import BoundaryCondition
        from repro.stencil.shift import normalize_radius, pad_array

        dtype = np.dtype(dtype)
        radius = (
            spec.radius()
            if radius is None
            else normalize_radius(radius, spec.ndim)
        )
        if boundary is None:
            boundary = BoundaryCondition.clamp()
        bspec = BoundarySpec.from_any(boundary, spec.ndim)
        external = tuple(sorted({int(a) for a in external_axes}))
        refresh_axes = (
            tuple(a for a in range(spec.ndim) if a not in external)
            if external
            else None
        )
        layout = GridLayout.from_args(
            radius, bspec, spec.ndim, refresh_axes=refresh_axes
        )
        shape = tuple(2 * r + 3 for r in radius)
        u = np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape)
        # pad_array also fills external-axis slabs, standing in for the
        # halo data a distributed rank would have ingested before a step.
        padded = pad_array(u, radius, bspec)
        const = np.zeros(shape, dtype=dtype)

        def timed(entry: CompiledKernels, call) -> None:
            t0 = time.perf_counter()
            call()
            self._compiler.record_warmup(
                entry, (time.perf_counter() - t0) * 1e3
            )

        sweep_entry = self._kernels(spec, None)
        timed(sweep_entry, lambda: self.sweep_padded(
            padded, spec, radius, shape
        ))
        timed(sweep_entry, lambda: self.sweep_with_checksums(
            padded, spec, radius, shape, (0, 1), checksum_dtype=checksum_dtype
        ))
        step_entry = self._kernels(spec, None, layout=layout)
        dst = np.zeros(padded.shape, dtype=dtype)
        timed(step_entry, lambda: self.step_into(
            padded.copy(), dst, spec, radius, shape, bspec,
            refresh_axes=refresh_axes,
        ))
        timed(step_entry, lambda: self.step_into_with_checksums(
            padded.copy(), dst, spec, radius, shape, bspec, (0, 1),
            checksum_dtype=checksum_dtype, refresh_axes=refresh_axes,
        ))
        step_const_entry = self._kernels(spec, const, layout=layout)
        timed(step_const_entry, lambda: self.step_into(
            padded.copy(), dst, spec, radius, shape, bspec, constant=const,
            refresh_axes=refresh_axes,
        ))
        timed(step_const_entry, lambda: self.step_into_with_checksums(
            padded.copy(), dst, spec, radius, shape, bspec, (0, 1),
            constant=const, checksum_dtype=checksum_dtype,
            refresh_axes=refresh_axes,
        ))
        # Strided ('A'-layout) specializations: a halo-extended view of a
        # larger padded array swept into a strided output slice, plus a
        # strided constant — the exact signatures the tile executors use.
        big = pad_array(
            np.arange(
                int(np.prod(tuple(n + 1 for n in shape))), dtype=dtype
            ).reshape(tuple(n + 1 for n in shape)),
            radius,
            bspec,
        )
        trim = tuple(slice(0, n + 2 * r) for n, r in zip(shape, radius))
        ptile = big[trim]
        out_store = np.zeros(tuple(n + 1 for n in shape), dtype=dtype)
        out_view = out_store[tuple(slice(0, n) for n in shape)]
        const_view = big[tuple(slice(0, n) for n in shape)]
        sweep_const_entry = self._kernels(spec, const_view)
        timed(sweep_const_entry, lambda: self.sweep_padded(
            ptile, spec, radius, shape, constant=const_view, out=out_view
        ))
        timed(sweep_const_entry, lambda: self.sweep_with_checksums(
            ptile, spec, radius, shape, (0, 1), constant=const_view,
            out=out_view, checksum_dtype=checksum_dtype,
        ))
        # Batched campaign kernels at the requested run-axis width: both
        # the full-width C-contiguous pair the engine allocates and (for
        # widths > 1) a narrower trailing-axis slice — numba specializes
        # per array layout, and the engine's final partial batch steps
        # exactly such a strided view.
        batch_width = int(batch_width)
        if batch_width > 0:
            bsrc = np.stack([pad_array(u, radius, bspec)] * batch_width, axis=-1)
            bdst = np.zeros(bsrc.shape, dtype=dtype)
            views = [(bsrc, bdst)]
            if batch_width > 1:
                views.append(
                    (bsrc[..., : batch_width - 1], bdst[..., : batch_width - 1])
                )
            batch_entry = self._kernels(spec, None, layout=layout, batch=True)
            batch_const_entry = self._kernels(
                spec, const, layout=layout, batch=True
            )
            for bs, bd in views:
                timed(batch_entry, lambda: self.batch_step_into(
                    bs, bd, spec, radius, shape, bspec,
                    refresh_axes=refresh_axes,
                ))
                timed(batch_entry, lambda: self.batch_step_into_with_checksums(
                    bs, bd, spec, radius, shape, bspec, (0, 1),
                    checksum_dtype=checksum_dtype, refresh_axes=refresh_axes,
                ))
                timed(batch_const_entry, lambda: self.batch_step_into(
                    bs, bd, spec, radius, shape, bspec, constant=const,
                    refresh_axes=refresh_axes,
                ))
                timed(
                    batch_const_entry,
                    lambda: self.batch_step_into_with_checksums(
                        bs, bd, spec, radius, shape, bspec, (0, 1),
                        constant=const, checksum_dtype=checksum_dtype,
                        refresh_axes=refresh_axes,
                    ),
                )
