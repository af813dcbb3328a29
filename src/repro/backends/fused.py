"""The ``fused`` backend: allocation-free sweep, lane-folded checksums.

Four optimisations over the plain sweep of
:func:`~repro.stencil.reference.reference_sweep_padded`, all aimed at
the memory-bound nature of large stencil sweeps:

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
   ufunc inner loop is 8 floats long.  Source and destination are two
   whole C-contiguous buffers of one shape, as the
   :class:`~repro.backends.base.StepPlan` of every pair (a
   double-buffered grid, a distributed rank, a stacked campaign batch)
   requires, so :meth:`FusedBackend.sweep_into` works on their flat
   1-D views instead.  Stencil offset ``o`` becomes the flat displacement
   ``d = sum(o[a] * stride[a])``; with ``[lo, hi)`` the flat range from
   the first interior point to the last,
   ``dst.flat[lo:hi] = C + sum(w * src.flat[lo+d : hi+d])``, in the
   reference's operation order, so every interior value is still
   bitwise equal to it.  The range, the displacements and the cast
   weights are derived once per pair and kept in its
   :class:`~repro.backends.base.StepPlan`.  The
   strip loop is compiled (:mod:`repro.backends.native`, blocks of
   1 KB, ~0.3x the NumPy loop on the 512x512x8 pair) when the
   library is loaded and the pair is native-byte-order float32/float64,
   aligned, with a writeable destination.  Otherwise NumPy runs it, in
   strips of ``_STRIP`` elements: every stencil point is applied to one
   strip (one contiguous ``np.multiply``/``np.add`` each) before the
   next, so a strip's operands stay in L2 cache instead of the whole
   domain streaming once per point.  The price is the ghost positions
   inside ``[lo, hi)`` (the axis >= 1 ghosts of the interior's axis-0
   rows), which are computed too and hold meaningless values
   afterwards: ~25% extra work on the 3D tiles, 0.2% on 256x1024 rank
   blocks.  That is the ghost-overwrite rule of
   :meth:`Backend.sweep_into <repro.backends.base.Backend.sweep_into>`:
   every in-tree caller — ``DoubleBufferedGrid.step``, the tiled and
   distributed runners and the batched step — refreshes or ingests
   those ghosts before reading them, and the source buffer (but for
   the ghost lanes a step hands over, point 4), the axis-0 ghost slabs
   and all memory outside the destination are never written.  The
   per-point constant is embedded once per (constant,
   layout) into a zero-ghost padded copy, cached beside the strip
   scratch (so the grids of one app share it) and kept by the plan of
   a pair that sweeps with it.

3. **Column checksums folded over whole lanes.**  The protected
   step's column (axis-0) checksum of a padded interior walks short
   rows at a stride: on the 512x512x8 tile, 8-float rows 40 bytes apart
   across the whole 10.5 MB buffer.  :meth:`FusedBackend.checksum`
   instead reduces over x the contiguous run of memory from each
   x-plane's first interior element to its last (one row of a 2D view,
   the ghost lanes between the rows included), then picks out the
   interior lanes.  Each lane still adds over x in order, so the
   checksum is bitwise equal to ``u.sum(axis=0)``.  The compiled fold
   (:mod:`repro.backends.native`) serves 3D padded interiors and 2D
   views with unit-stride rows (rank blocks, whose rows are the lanes),
   for aligned native-byte-order (float32, float64), (float32, float32)
   and (float64, float64) pairs: ~0.35x ``u.sum(axis=0,
   dtype=float64)`` on the 512x512x8 tile, and about half the checksum
   time of the strided reduction on 256x1024 rank blocks.  Without it,
   3D interiors take the NumPy lane fold (~0.6-0.85x) and 2D views,
   like every other view, the plain reduction.  Folding plane by plane
   inside the strip loop of point 2 was measured slower (1.16x) than
   one fold after the sweep.  A caller that reduces the same views
   every step (a grid's online protector, a stacked campaign batch)
   binds their lane geometry, a lane buffer and the addresses once in
   a :class:`FoldPlan` and passes it as ``plan=``.

4. **Ghost lanes filled inside the compiled sweep.**  A step refreshes
   the source's ghosts before it sweeps, and on the 514x514x10 buffer
   the last axis's ghosts, two 1-D columns of its ``(rows, width)``
   view, cost a whole pass over the cold buffer (all but 0.13-0.15 ms
   of a 2.1-2.3 ms refresh on a 2-core x86 VM).
   :meth:`FusedBackend._refresh_and_sweep`, the body of every step and
   batched step, refreshes the other axes only and passes the last
   ghost axis's lanes (:class:`~repro.stencil.shift.GhostLanes`, from
   the step's plan) to :meth:`sweep_into` as an argument; the compiled
   sweep fills them a few rows at a time just ahead of the blocks that
   read them, so the refresh and the sweep are one pass.  Without the
   library the step is the base class's refresh-then-sweep; where the
   compiled sweep does not run for another reason (an unaligned or
   read-only pair, an empty interior) NumPy fills the same lanes
   before sweeping.  The source halo is bitwise
   equal to a full :func:`~repro.stencil.shift.refresh_ghosts` either
   way.  A step and its fold are then two passes over the buffer, not
   three.

Without a C compiler, or when the build or load fails, every path
runs its NumPy code, and :meth:`FusedBackend.compiled_kernels` (``repro
backends``) names the reason.

Every step and sweep of a pair (a grid, a rank, a stacked campaign
batch) passes its :class:`~repro.backends.base.StepPlan`: what its
layout fixes is derived once (the flat geometry and the padded
constant on its first flat sweep, kept in the plan's ``sweep``), and a
64x64x8 step costs about its refresh and compiled sweep (50-60 us
instead of 80-110 us on a 2-core x86 VM).

The scratch cache is per-thread (``threading.local``) so the threaded
tile executor can sweep same-shaped tiles concurrently without races.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.backends import native
from repro.backends.base import Backend, StepPlan, _direction
from repro.stencil.shift import (
    GhostLanes,
    fill_lanes,
    interior_view,
    refresh_ghosts,
    shifted_view,
)
from repro.stencil.spec import StencilSpec

__all__ = ["FoldPlan", "FusedBackend"]

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


class _FlatPlan(NamedTuple):
    """The flat-stride sweep of one operator over one padded layout."""

    #: First and one past the last flat index of the interior.
    lo: int
    hi: int
    #: Flat displacement and weight (cast to the dtype) of each stencil
    #: point, in spec order.
    disp: np.ndarray
    weights: np.ndarray
    #: The compiled sweep's ``lo, hi, npts, disp, wts`` arguments, with
    #: the two arrays' addresses read once (1.4 us a read).
    args: Tuple[int, ...]


def _flat_plan(shape, radius, interior_shape, dtype, spec) -> _FlatPlan:
    strides = [1] * len(shape)
    for a in range(len(shape) - 2, -1, -1):
        strides[a] = strides[a + 1] * shape[a + 1]
    lo = sum(r * s for r, s in zip(radius, strides))
    hi = 1 + lo + sum((n - 1) * s for n, s in zip(interior_shape, strides))
    disp, weights = [], []
    for offset, weight in spec:
        for axis, (o, r) in enumerate(zip(offset, radius)):
            if abs(o) > r:
                raise ValueError(
                    f"offset {o} exceeds ghost radius {r} along axis {axis}"
                )
        disp.append(sum(o * s for o, s in zip(offset, strides)))
        weights.append(weight)
    disp = np.array(disp, dtype=np.intp)
    weights = np.array(weights, dtype=dtype)
    args = (lo, hi, len(disp), disp.ctypes.data, weights.ctypes.data)
    return _FlatPlan(lo, hi, disp, weights, args)


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory (end of its ``.base`` chain)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class FusedBackend(Backend):
    """Optimised backend: scratch-buffer sweep, lane-folded checksum."""

    name = "fused"

    def __init__(self) -> None:
        self._local = threading.local()

    def compiled_kernels(self) -> Tuple[Dict, ...]:
        """The native flat library's entry (``kind: "flat"``), loaded or not."""
        return (native.describe(),)

    def warmup(self) -> None:
        """Build or load the native flat library before timed work."""
        native.library()

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
        of the flat sweep, slot 1 the lane sums of :meth:`checksum`.
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
        constant rewritten in place keeps its stale cached copy, which
        is why :class:`~repro.stencil.grid.GridBase` stores its
        constant read-only.
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

    def _flat_pass(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        flat: Optional[_FlatPlan],
        const: Optional[np.ndarray],
        lanes: Optional[GhostLanes],
        addresses: Tuple,
    ) -> None:
        """The flat-stride sweep of two whole C-contiguous padded buffers.

        Same multiply/add sequence as :meth:`sweep_padded`, per strip
        of the flat range (see the module docstring); overwrites the
        destination ghost positions inside ``[lo, hi)``.  ``flat`` is
        the geometry (``None`` for an empty interior, which sweeps
        nothing) and ``const`` the flat padded constant or ``None``,
        both kept in the pair's plan (:meth:`_plan_sweep`), and
        ``addresses`` the compiled call's source, destination and
        constant addresses.  The compiled strip loop runs it when the
        library is loaded and the pair is native-byte-order
        float32/float64, aligned, with a writeable destination;
        otherwise the NumPy strip loop below does (and a read-only
        destination raises NumPy's ``ValueError``).

        ``lanes`` are source ghost lanes still to be filled (see
        :meth:`_refresh_and_sweep`), the lanes of the pair's own layout.
        The compiled loop fills them just ahead of the blocks that read
        them, and the rest after its last block, when the source is
        writeable too; otherwise :func:`~repro.stencil.shift.fill_lanes`
        fills them first.
        """
        if flat is None:
            if lanes is not None:
                fill_lanes(src_padded, lanes)
            return
        dtype = dst_padded.dtype
        lib = native.library()
        kernel = None if lib is None else lib.sweep.get(dtype.str)
        if (
            kernel is not None
            and src_padded.flags.aligned
            and dst_padded.flags.aligned
            and dst_padded.flags.writeable
            and (lanes is None or src_padded.flags.writeable)
        ):
            src, dst, constant = addresses
            lane, fill = (None, None) if lanes is None else lanes.addresses(dtype)
            kernel(src, dst, *flat.args, constant, lane, fill)
            return
        if lanes is not None:
            fill_lanes(src_padded, lanes)
        src = src_padded.reshape(-1)
        dst = dst_padded.reshape(-1)
        lo, hi = flat.lo, flat.hi
        scratch = self._scratch((min(_STRIP, hi - lo),), dtype)
        for a in range(lo, hi, _STRIP):
            b = min(a + _STRIP, hi)
            out = dst[a:b]
            tmp = scratch[:b - a]
            # The running sum: the padded constant's strip before the
            # first point is added, ``out`` afterwards.
            acc = None if const is None else const[a:b]
            for d, w in zip(flat.disp.tolist(), flat.weights):
                view = src[a + d:b + d]
                if acc is None:
                    np.multiply(view, w, out=out)
                else:
                    np.multiply(view, w, out=tmp)
                    np.add(acc, tmp, out=out)
                acc = out

    def _plan_sweep(self, plan: StepPlan, padded: np.ndarray) -> Tuple:
        """``plan``'s flat sweep: geometry, padded constant and its address.

        Made on the plan's first flat sweep, the padded constant through
        its cache (so grids sharing a constant share its padded copy,
        and the one-off copy stays out of construction), and kept in
        ``plan.sweep``.  ``padded`` is one of the plan's buffers, whose
        layout it takes.  The geometry is ``None`` for an empty
        interior, the constant and its address ``None`` without one.
        """
        if plan.sweep is None:
            shape, dtype = padded.shape, padded.dtype
            flat = const = address = None
            if 0 not in plan.interior_shape:
                flat = _flat_plan(
                    shape, plan.radius, plan.interior_shape, dtype, plan.spec
                )
                if plan.constant is not None:
                    const = self._padded_constant(
                        plan.constant, shape, plan.radius, dtype
                    )
                    address = const.ctypes.data
            plan.sweep = (flat, const, address)
        return plan.sweep

    def sweep_into(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
        plan: Optional[StepPlan] = None,
        lanes: Optional[GhostLanes] = None,
    ) -> np.ndarray:
        """Zero-copy sweep: materialise the new step inside the destination.

        Combined with the scratch-buffer accumulation of
        :meth:`sweep_padded`, a double-buffered step performs **no**
        full-domain allocation at all — the acceptance property the
        benchmark's tracemalloc gate verifies.

        ``plan`` is the pair's :class:`~repro.backends.base.StepPlan`,
        required as in :meth:`Backend.sweep_into
        <repro.backends.base.Backend.sweep_into>`, whose other
        arguments are the plan's.  The plan's pair is two whole
        C-contiguous buffers of one dtype, so the sweep is the
        flat-stride sweep (module docstring, point 2): every ufunc call
        is one contiguous loop, and the destination's axis >= 1 ghost
        cells inside the interior's axis-0 extent are overwritten — the
        ghost-overwrite rule of that method.  It keeps the reference's
        operation order, so the interior is bitwise identical to it.

        ``lanes`` are the source ghost lanes this backend's step left
        to the sweep (:meth:`_refresh_and_sweep`): the compiled flat
        sweep fills them as it goes, NumPy before its strip loop.
        """
        direction = _direction(plan, src_padded, dst_padded)
        flat, const, address = self._plan_sweep(plan, dst_padded)
        self._flat_pass(
            src_padded, dst_padded, flat, const, lanes,
            (direction.src, direction.dst, address),
        )
        return direction.interior

    def _refresh_and_sweep(
        self, src_padded: np.ndarray, dst_padded: np.ndarray, plan: StepPlan
    ) -> np.ndarray:
        """A step's refresh and sweep, the last ghost axis left to the sweep.

        When the native library has a sweep for the source's dtype and
        the plan's refresh has ghost lanes, :func:`~repro.stencil.shift.refresh_ghosts`
        fills the other axes (the plan's ``head``) and :meth:`sweep_into`
        takes the lanes as an argument: the compiled flat sweep fills
        them as its blocks reach them, NumPy before its strip loop.
        The source halo ends bitwise equal to a full refresh either way.
        Without lanes or a kernel this is the base class's
        refresh-then-sweep.
        """
        lanes = plan.lanes
        lib = native.library()
        if lanes is None or lib is None or src_padded.dtype.str not in lib.sweep:
            return super()._refresh_and_sweep(src_padded, dst_padded, plan)
        refresh_ghosts(
            src_padded, plan.radius, plan.boundary, axes=lanes.head, plan=plan.head
        )
        return self.sweep_into(
            src_padded, dst_padded, plan.spec, plan.radius, plan.interior_shape,
            constant=plan.constant, plan=plan, lanes=lanes,
        )

    def checksum(
        self,
        u: np.ndarray,
        axis: int,
        dtype: Optional[np.dtype] = None,
        plan: Optional[FoldPlan] = None,
    ) -> np.ndarray:
        """Checksum of ``u`` along ``axis``, folding whole lanes when it can.

        The axis-0 checksum folds lanes (module docstring, point 3) for
        two kinds of view:

        * a 3D padded interior (see :meth:`_lane_planes`): the contiguous
          run of memory from each plane's first interior element to its
          last is reduced, ghost lanes included, and the interior lanes
          are kept;
        * a 2D view with unit-stride rows and at least two lanes (a rank
          block), whose rows are the lanes: no gap is read.

        The compiled fold serves both when the library is loaded, the
        view is aligned and the dtype pair is native-byte-order
        (float32, float64), (float32, float32) or (float64, float64);
        otherwise a 3D interior takes the NumPy lane fold and a 2D view
        the plain reduction.  Each lane adds over x in order, so the
        result is bitwise equal to ``u.sum(axis=0, dtype=dtype)``.  Any
        other view takes that reduction directly.

        ``plan`` is a :class:`FoldPlan` of the views a caller reduces
        every step: for one of them, with the dtype it was bound with,
        the fold's geometry, lane buffer and addresses come from it.
        """
        folded = self._fold(u, dtype, plan) if axis == 0 else None
        if folded is None:
            return super().checksum(u, axis, dtype=dtype)
        return folded

    def _fold(
        self, u: np.ndarray, dtype: Optional[np.dtype], plan: Optional[FoldPlan]
    ) -> Optional[np.ndarray]:
        """The lane-folded axis-0 checksum of ``u``, or ``None``."""
        fold = None if plan is None else plan.fold(u, dtype)
        if fold is not None:
            return self._run_fold(fold)
        acc = u.dtype if dtype is None else np.dtype(dtype)
        if u.ndim == 2:
            lib = native.library()
            kernel = None if lib is None else lib.fold.get((u.dtype.str, acc.str))
            n0, n1 = u.shape
            item = u.itemsize
            # One lane would be NumPy's pairwise sum, not a lane fold.
            if not (
                kernel is not None and u.flags.aligned and n1 > 1
                and u.strides[0] % item == 0
                and u.strides[1] == item and u.strides[0] >= n1 * item
            ):
                return None
            out = np.empty(n1, dtype=acc)
            kernel(u.ctypes.data, n0, u.strides[0] // item, n1, out.ctypes.data)
            return out
        planes = self._lane_planes(u)
        if planes is None:
            return None
        lanes = self._scratch((u.shape[1] * u.strides[1] // u.itemsize,), acc, slot=1)
        return self._run_fold(_lane_fold(u, dtype, planes, lanes))

    @staticmethod
    def _run_fold(fold: _Fold) -> np.ndarray:
        """Fold ``fold``'s view into its lane sums; a copy of its lanes."""
        lib = native.library()
        kernel = None if lib is None else lib.fold.get(fold.key)
        if kernel is not None and fold.compiled:
            kernel(*fold.args)
        else:
            span = fold.planes.shape[1]
            np.add.reduce(fold.planes, axis=0, dtype=fold.dtype, out=fold.lanes[:span])
        return fold.out.copy()

    @staticmethod
    def _lane_planes(u: np.ndarray) -> Optional[np.ndarray]:
        """``u``'s x-planes as whole contiguous lanes, or ``None``.

        Row ``x`` of the result runs through memory from ``u[x, 0, 0]``
        to ``u[x, -1, -1]``: the rows of ``u[x]`` and the gaps between
        them.  It is built only when those gaps can hold nothing but
        ghost lanes: ``u`` is a 3D float view with unit-stride rows and
        planes in order, each row centred in a row of the C-contiguous
        buffer that owns it, with fewer lanes between two rows than in
        one.  A tile split along the last axis fails that test (an end
        tile is off centre, a middle tile's gap holds two neighbouring
        tiles about as wide as itself), so the fold never reads lanes
        another worker of a tiled runner may be writing.  Contiguous,
        transposed and negative-stride views fail it too.
        """
        if u.ndim != 3 or u.dtype.kind != "f" or 0 in u.shape:
            return None
        n0, n1, n2 = u.shape
        s0, s1, s2 = u.strides
        item = u.itemsize
        row, rem = divmod(s1, item)
        gap = row - n2
        span = (n1 - 1) * row + n2
        root = _root(u)
        offset = (
            u.__array_interface__["data"][0] - root.__array_interface__["data"][0]
        )
        if not (
            root.flags.c_contiguous
            and s2 == item and rem == 0 and s0 >= span * item
            and 0 < gap < n2 and gap % 2 == 0
            and offset % item == 0 and (offset // item) % row == gap // 2
        ):
            return None
        return np.ndarray((n0, span), u.dtype, root, offset, (s0, item))


class _Fold(NamedTuple):
    """The lane fold of one 3D view's axis-0 checksum (:meth:`FusedBackend._fold`)."""

    view: np.ndarray
    #: The checksum dtype as the caller gives it (``None``: the view's).
    dtype: Optional[np.dtype]
    #: The compiled fold's (domain, accumulation) dtypes, and whether it
    #: may read the view (aligned, its x stride a whole number of items).
    key: Tuple[str, str]
    compiled: bool
    #: The view's x-planes as whole lanes (:meth:`FusedBackend._lane_planes`).
    planes: np.ndarray
    #: The lane sums, and the view of them that holds the interior lanes.
    lanes: np.ndarray
    out: np.ndarray
    #: The compiled fold's arguments, the two addresses read once.
    args: Tuple[int, ...]


def _lane_fold(u, dtype, planes, lanes) -> _Fold:
    item = u.itemsize
    n1, n2 = u.shape[1:]
    return _Fold(
        u, dtype, (u.dtype.str, lanes.dtype.str),
        u.flags.aligned and u.strides[0] % item == 0,
        planes, lanes, lanes.reshape(n1, u.strides[1] // item)[:, :n2],
        (u.ctypes.data, u.shape[0], u.strides[0] // item, planes.shape[1],
         lanes.ctypes.data),
    )


class FoldPlan:
    """The lane-folded column checksums of fixed views, bound once.

    Built over the views a caller reduces every step (a grid's two
    interiors, a stacked campaign batch's two merged interiors) and the
    checksum ``dtype`` it passes.  Given to :meth:`FusedBackend.checksum`
    as ``plan=``, a call on one of those views, with that dtype object,
    takes from it the lane-fold geometry, a lane buffer the plan owns and
    the addresses, instead of deriving them; every other call runs as
    without one.  A view the lane fold does not serve is not bound.

    Geometry only, as a :class:`~repro.backends.base.StepPlan`: each
    call resolves :func:`~repro.backends.native.library` again, and the
    base class's reduction ignores the plan.  Each returned checksum is
    a copy, but the lane buffer is the plan's, so one caller uses a plan
    at a time.
    """

    __slots__ = ("views", "dtype", "_folds")

    def __init__(self, views: Sequence[np.ndarray], dtype=None) -> None:
        self.views = tuple(views)
        self.dtype = dtype
        acc = None if dtype is None else np.dtype(dtype)
        folds = []
        for u in self.views:
            planes = FusedBackend._lane_planes(u)
            if planes is not None:
                lanes = np.empty(
                    u.shape[1] * u.strides[1] // u.itemsize,
                    dtype=u.dtype if acc is None else acc,
                )
                folds.append(_lane_fold(u, dtype, planes, lanes))
        self._folds = tuple(folds)

    def __reduce__(self):
        # A copy is bound again: the addresses belong to the originals.
        return type(self), (self.views, self.dtype)

    def fold(self, u: np.ndarray, dtype) -> Optional[_Fold]:
        """The bound fold of ``u`` with ``dtype``, or ``None``."""
        for fold in self._folds:
            if fold.view is u and fold.dtype is dtype:
                return fold
        return None
