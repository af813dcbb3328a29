"""The ``fused`` backend: allocation-free sweep + in-call checksums.

Three optimisations over the ``numpy`` reference, all aimed at the
memory-bound nature of large stencil sweeps:

1. **No per-point temporaries.**  The reference's ``out += w * view``
   allocates (and page-faults) a full interior-sized temporary for every
   stencil point — 27 multi-megabyte allocations per sweep for the
   27-point 3D stencil.  This backend multiplies into one preallocated,
   thread-local scratch buffer (``np.multiply(view, w, out=scratch)``)
   and accumulates with an in-place ``np.add``; the first stencil point
   writes straight into the output, eliminating the zero-fill pass as
   well.  The operation order and rounding are identical to the
   reference, so the results are bitwise equal.

2. **Flat-stride sweep.**  The interior of a padded buffer is a
   *strided* view: on a 512x512x8 tile padded to 514x514x10 every
   ufunc inner loop is 8 floats long.  When source and destination are
   whole C-contiguous buffers of one shape (every double-buffered grid,
   distributed rank pair and full-width campaign batch),
   :meth:`FusedBackend.sweep_into` works on their flat 1-D views
   instead.  Stencil offset ``o`` becomes the flat displacement
   ``d = sum(o[a] * stride[a])``; with ``[lo, hi)`` the flat range from
   the first interior point to the last,
   ``dst.flat[lo:hi] = C + sum(w * src.flat[lo+d : hi+d])`` — one
   contiguous SIMD loop per ufunc call, same operation order, so every
   interior value is still bitwise equal to the reference.  The range
   is processed in strips of ``_STRIP`` elements, every stencil point
   applied to one strip before the next, so a strip's operands stay in
   L2 cache instead of the whole domain streaming once per point.  The
   price is the ghost positions inside ``[lo, hi)`` (the axis >= 1
   ghosts of the interior's axis-0 rows), which are computed too and hold
   meaningless values afterwards: ~25% extra work on the 3D tiles,
   0.2% on 256x1024 rank blocks.  That is the ghost-overwrite rule of
   :meth:`Backend.sweep_into <repro.backends.base.Backend.sweep_into>`:
   every in-tree caller — ``DoubleBufferedGrid.step``, the tiled and
   distributed runners and the batched step — refreshes or ingests those ghosts before reading them, and the
   source buffer, the axis-0 ghost slabs and all memory outside the
   destination are never written.  The per-point constant is embedded
   once per (constant, layout) into a zero-ghost padded copy, cached
   beside the strip scratch.  Views that are not contiguous (2D tiles,
   or narrower slices of a campaign batch) keep the *staged* path: accumulate into a contiguous staging buffer, then one strided
   copy into the interior, which writes no ghost cell.

3. **Checksums from the same traversal.**  ``sweep_with_checksums``
   (inherited from :class:`~repro.backends.base.Backend`, which already
   reduces the result immediately after the sweep in the same call)
   reads the freshly written interior while it is still cache-hot.  A
   per-stencil-point incremental reduction of the scratch buffer was
   measured *slower* than one hot reduction of the result — ``k`` extra
   reduction passes versus one — so the fusion happens at call
   granularity, not per point.  That design note has since been
   revisited: the trade-off inverts once the loop is compiled, and the
   ``numba`` backend (:mod:`repro.backends.numba_backend`) now provides
   exactly the per-point fusion this paragraph defers — each computed
   value is folded into its row/column checksum partials inside the
   same compiled traversal (no re-read, no extra pass), with the ghost
   refresh fused in as well.  This backend remains the fastest
   *interpreted* implementation and the default when numba is absent.

The scratch cache is per-thread (``threading.local``) so the threaded
tile executor can sweep same-shaped tiles concurrently without races.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.stencil.shift import interior_view, shifted_view
from repro.stencil.spec import StencilSpec

__all__ = ["FusedBackend"]

#: Scratch buffers and padded constants cached per thread before the
#: cache is reset (guards against unbounded growth when many distinct
#: tile shapes are swept).
_MAX_CACHED_SCRATCH = 8

#: Elements per strip of the flat sweep.  Every stencil point is applied
#: to one strip before the next strip starts, so the strip's output,
#: scratch and source window stay in L2 cache instead of streaming the
#: whole domain once per point.  On the 512x512x8 HotSpot3D tile (2 MB
#: L2 per core) the 7-point sweep took 28-30 ms unstripped and 10-13 ms
#: in float32 strips of 32k-64k elements; float64 was fastest at 32k too.
_STRIP = 1 << 15


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory (end of its ``.base`` chain)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class FusedBackend(Backend):
    """Optimised backend: scratch-buffer sweep, fused checksum production."""

    name = "fused"

    def __init__(self) -> None:
        self._local = threading.local()

    def _cache(self) -> Dict:
        cache: Optional[Dict] = getattr(self._local, "cache", None)
        if cache is None:
            cache = self._local.cache = {}
        return cache

    def _cache_put(self, key, value):
        cache = self._cache()
        if len(cache) >= _MAX_CACHED_SCRATCH:
            cache.clear()
        cache[key] = value
        return value

    def _scratch(
        self, shape: Tuple[int, ...], dtype: np.dtype, slot: int = 0
    ) -> np.ndarray:
        """Per-thread persistent scratch buffer for ``shape``/``dtype``.

        ``slot`` distinguishes independent buffers of the same shape:
        slot 0 is the accumulation scratch of :meth:`sweep_padded` and
        of the flat sweep, slot 1 the contiguous output staging buffer
        of the staged :meth:`sweep_into` (both can be live during one
        sweep).
        """
        key = (shape, np.dtype(dtype).str, slot)
        buf = self._cache().get(key)
        if buf is None:
            buf = self._cache_put(key, np.empty(shape, dtype=dtype))
        return buf

    def _padded_constant(
        self,
        constant: np.ndarray,
        padded_shape: Tuple[int, ...],
        radius: Tuple[int, ...],
        dtype: np.dtype,
    ) -> np.ndarray:
        """Flat zero-ghost padded copy of ``constant``, cached per layout.

        The entry is keyed on the memory ``constant`` views (address,
        shape, strides, dtype) plus the padded layout, and validated
        against a weak reference to the root array owning that memory —
        so the fresh ``np.broadcast_to`` view the batched step builds
        every call hits the same entry, while a freed-and-reused address
        misses.  The interior is built as ``0 + C``, the reference's
        exact first operation.  Constants are read-only inputs: a
        constant rewritten in place keeps its stale cached copy.
        """
        root = _root(constant)
        key = (
            "constant",
            constant.__array_interface__["data"][0],
            constant.shape,
            constant.strides,
            constant.dtype.str,
            padded_shape,
            radius,
            np.dtype(dtype).str,
        )
        entry = self._cache().get(key)
        if entry is not None and entry[0]() is root:
            return entry[1]
        padded = np.zeros(padded_shape, dtype=dtype)
        interior_view(padded, radius)[...] += constant
        flat = padded.reshape(-1)
        self._cache_put(key, (weakref.ref(root), flat))
        return flat

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
        scratch = self._scratch(interior_shape, dtype)
        if out is scratch:
            # A caller recycling our own scratch as the output would be
            # overwritten mid-accumulation; give it a private buffer.
            scratch = np.empty(interior_shape, dtype=dtype)

        # ``have_out`` tracks whether ``out`` already holds a partial sum
        # (the constant term, or the first stencil point's contribution).
        have_out = False
        if constant is not None:
            if out is None:
                out = np.zeros(interior_shape, dtype=dtype)
                out += constant
            else:
                out[...] = 0
                out += constant
            have_out = True

        for offset, weight in spec:
            view = shifted_view(padded, offset, radius, interior_shape)
            w = np.asarray(weight, dtype=dtype)
            if not have_out:
                # First contribution: write straight into the output,
                # skipping both the zero-fill and the scratch round-trip.
                if out is None:
                    out = np.multiply(view, w)
                else:
                    np.multiply(view, w, out=out)
                have_out = True
            else:
                np.multiply(view, w, out=scratch)
                np.add(out, scratch, out=out)
        return out

    def _sweep_flat(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius: Tuple[int, ...],
        interior_shape: Tuple[int, ...],
        constant: Optional[np.ndarray],
    ) -> None:
        """The flat-stride sweep of two whole C-contiguous padded buffers.

        Same multiply/add sequence as :meth:`sweep_padded`, per strip
        of the flat range (see the module docstring); overwrites the
        destination ghost positions inside ``[lo, hi)``.
        """
        if 0 in interior_shape:
            return
        shape = dst_padded.shape
        dtype = dst_padded.dtype
        strides = [1] * len(shape)
        for a in range(len(shape) - 2, -1, -1):
            strides[a] = strides[a + 1] * shape[a + 1]
        lo = sum(r * s for r, s in zip(radius, strides))
        hi = 1 + lo + sum((n - 1) * s for n, s in zip(interior_shape, strides))
        points = []
        for offset, weight in spec:
            d = 0
            for axis, (o, r, s) in enumerate(zip(offset, radius, strides)):
                if abs(o) > r:
                    raise ValueError(
                        f"offset {o} exceeds ghost radius {r} along axis {axis}"
                    )
                d += o * s
            points.append((d, np.asarray(weight, dtype=dtype)))
        src = src_padded.reshape(-1)
        dst = dst_padded.reshape(-1)
        const = (
            None
            if constant is None
            else self._padded_constant(constant, shape, radius, dtype)
        )
        scratch = self._scratch((min(_STRIP, hi - lo),), dtype)
        for a in range(lo, hi, _STRIP):
            b = min(a + _STRIP, hi)
            out = dst[a:b]
            tmp = scratch[:b - a]
            # The running sum: the padded constant's strip before the
            # first point is added, ``out`` afterwards.
            acc = None if const is None else const[a:b]
            for d, w in points:
                view = src[a + d:b + d]
                if acc is None:
                    np.multiply(view, w, out=out)
                else:
                    np.multiply(view, w, out=tmp)
                    np.add(acc, tmp, out=out)
                acc = out

    def sweep_into(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Zero-copy sweep: materialise the new step inside the destination.

        Combined with the scratch-buffer accumulation of
        :meth:`sweep_padded`, a double-buffered step performs **no**
        full-domain allocation at all — the acceptance property the
        benchmark's tracemalloc gate verifies.

        Whole C-contiguous buffer pairs of one shape and dtype take the
        flat-stride sweep (module docstring, point 2): every ufunc call
        is one contiguous loop, and the destination's axis >= 1 ghost
        cells inside the interior's axis-0 extent are overwritten — the
        ghost-overwrite rule of :meth:`Backend.sweep_into
        <repro.backends.base.Backend.sweep_into>`.  Any other view
        (tiles sliced along an axis >= 1, whose rows are not adjacent
        in memory) takes the staged path: the
        sweep accumulates into a persistent contiguous staging buffer
        and lands in the interior with one strided copy, leaving every
        ghost untouched.  Both paths keep the reference's operation
        order, so the interior is bitwise identical either way.
        """
        interior = self._dst_interior(dst_padded, radius, interior_shape)
        if np.may_share_memory(src_padded, dst_padded):
            return super().sweep_into(
                src_padded, dst_padded, spec, radius, interior_shape,
                constant=constant,
            )
        if (
            src_padded.flags.c_contiguous
            and dst_padded.flags.c_contiguous
            and src_padded.shape == dst_padded.shape
            and src_padded.dtype == dst_padded.dtype
        ):
            interior_shape, radius = self._normalize_sweep_args(
                src_padded, radius, interior_shape, constant, None
            )
            self._sweep_flat(
                src_padded, dst_padded, spec, radius, interior_shape, constant
            )
            return interior
        staging = self._scratch(interior.shape, interior.dtype, slot=1)
        self.sweep_padded(
            src_padded, spec, radius, interior_shape, constant=constant,
            out=staging,
        )
        interior[...] = staging
        return interior

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
        """Whole-batch step in one vectorised pass over the run axis.

        A full-width batch pair is contiguous, so :meth:`sweep_into`
        takes the flat-stride sweep over the batch; a narrower slice of
        the pair is strided and takes the staged route.  Both follow the
        single-run operation order on every slot, keeping each slot
        bitwise equal to a single :meth:`step_into` on that slot.
        """
        return self._batch_step_vectorized(
            src_padded, dst_padded, spec, radius, interior_shape, boundary,
            constant=constant, refresh_axes=refresh_axes,
        )

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
    ) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        return self._batch_step_vectorized(
            src_padded, dst_padded, spec, radius, interior_shape, boundary,
            constant=constant, refresh_axes=refresh_axes, axes=tuple(axes),
            checksum_dtype=checksum_dtype,
        )
