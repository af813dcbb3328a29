"""Shared-memory tile tasks for the process-pool executor.

The process-pool tile executor escapes the GIL by running each tile's
sweep in a separate OS process.  Shipping the domain to the workers by
pickle would reintroduce the full-domain copies the double-buffered
pipeline just removed, so instead the *global* padded buffer pair lives
in ``multiprocessing.shared_memory`` (see
:meth:`repro.stencil.doublebuffer.DoubleBufferedGrid.share`) and a task
carries only **names and indices**: the shared block names, the tile's
slice bounds, the stencil spec and the checksum axes.  Workers attach
the blocks once (cached per process), sweep their tile slice of the
shared back buffer in place, reduce the tile's checksum vectors right
there and return nothing but those — a few KiB — which the parent then
feeds to the per-tile ABFT protectors.

Every function here is module-level so tasks pickle under both the
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "TileTask",
    "sweep_tile",
    "run_tile_task",
    "run_tile_batch",
    "share_array_copy",
    "detach_all",
    "worker_init",
]

#: Per-process cache of attached shared-memory blocks: name -> SharedMemory.
_ATTACHED: Dict[str, object] = {}


def _attach(name: str) -> "np.ndarray":
    """Attach a shared-memory block by name (cached per process)."""
    from multiprocessing import shared_memory

    shm = _ATTACHED.get(name)
    if shm is None:
        # Workers inherit the parent's resource tracker (fork and spawn
        # both pass the tracker fd down), so the attach-time re-register
        # the stdlib performs is an idempotent set-add there — the block
        # stays owned by the creating process, which unlinks on shutdown.
        shm = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = shm
    return shm


def attach_array(name: str, shape: Tuple[int, ...], dtype_str: str) -> np.ndarray:
    """Numpy view of an attached shared-memory block."""
    shm = _attach(name)
    return np.ndarray(tuple(shape), dtype=np.dtype(dtype_str), buffer=shm.buf)


def detach_all() -> None:
    """Close every cached attachment (runs atexit in each worker)."""
    for shm in _ATTACHED.values():
        try:
            shm.close()
        except (BufferError, OSError):
            pass
    _ATTACHED.clear()


def worker_init() -> None:
    """Pool initializer: detach cached blocks when the worker retires."""
    import atexit

    atexit.register(detach_all)


def share_array_copy(array: np.ndarray):
    """Copy ``array`` into a fresh shared-memory block.

    Returns ``(SharedMemory, name)``; the caller owns the block and must
    close+unlink it.  Used for per-run constants (e.g. a power map) that
    workers read but never write.
    """
    from multiprocessing import shared_memory

    array = np.ascontiguousarray(array)
    shm = shared_memory.SharedMemory(create=True, size=max(int(array.nbytes), 1))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[...] = array
    return shm, shm.name


class TileTask(NamedTuple):
    """Everything a worker needs to sweep one tile — no array payloads."""

    src_name: str                      #: shared block holding the padded step-t domain
    dst_name: str                      #: shared block the new interior is written into
    padded_shape: Tuple[int, ...]      #: shape of both padded blocks
    dtype_str: str                     #: domain dtype (numpy dtype string)
    radius: Tuple[int, ...]            #: ghost width per axis
    spec: object                       #: the StencilSpec (small, picklable)
    box: object                        #: the TileBox (index + slices, picklable)
    backend_name: str                  #: registry name resolved inside the worker
    axes: Optional[Tuple[int, ...]]    #: checksum axes (None → sweep only)
    checksum_dtype_str: Optional[str]  #: checksum accumulation dtype
    const_name: Optional[str]          #: shared block holding the constant term
    interior_shape: Tuple[int, ...]    #: global interior shape (for const slicing)


def sweep_tile(
    backend, ptile, tile_out, spec, radius, shape, constant, axes, checksum_dtype
) -> Optional[Dict[int, np.ndarray]]:
    """Sweep one padded tile into ``tile_out``, then reduce its checksums.

    The one tile body of both executor paths (the in-process closure of
    the tiled runner and :func:`run_tile_task`): ``sweep_padded`` into
    the back buffer's tile slice, then ``backend.checksum`` of the new
    tile along each of ``axes``.  Returns ``{axis: vector}``, or
    ``None`` when ``axes`` is empty (unprotected tiles, and every tile
    of a step with an inject hook, whose checksums
    :meth:`~repro.core.online.OnlineABFT.process` takes after the hook).
    """
    new = backend.sweep_padded(
        ptile, spec, radius, shape, constant=constant, out=tile_out
    )
    if new is not tile_out:
        # Backend ignored ``out`` (copy-based fallback): land the result.
        tile_out[...] = new
    if not axes:
        return None
    return {a: backend.checksum(new, a, dtype=checksum_dtype) for a in axes}


def run_tile_task(task: TileTask):
    """Sweep one tile of the shared domain; returns ``(index, checksums)``.

    The tile's ghost cells are a larger slice of the shared padded source
    (neighbour data and global boundary alike, through the same
    :func:`~repro.parallel.halo.padded_tile_view` helper as the
    thread-pool path), and the result lands directly in the shared back
    buffer — the only thing crossing the process boundary on the way
    back is the per-tile checksum map (or ``None`` without ``axes``).
    """
    from repro.backends import get_backend
    from repro.parallel.halo import padded_tile_view
    from repro.stencil.shift import interior_view

    src = attach_array(task.src_name, task.padded_shape, task.dtype_str)
    dst = attach_array(task.dst_name, task.padded_shape, task.dtype_str)
    radius = tuple(task.radius)
    box = task.box

    ptile = padded_tile_view(src, box, radius)
    tile_out = interior_view(dst, radius)[box.slices]

    const = None
    if task.const_name is not None:
        const = attach_array(
            task.const_name, task.interior_shape, task.dtype_str
        )[box.slices]

    cs_dtype = (
        None if task.checksum_dtype_str is None else np.dtype(task.checksum_dtype_str)
    )
    checksums = sweep_tile(
        get_backend(task.backend_name), ptile, tile_out, task.spec, radius,
        box.shape, const, task.axes, cs_dtype,
    )
    return box.index, checksums


def run_tile_batch(tasks: Tuple[TileTask, ...]):
    """Sweep a whole batch of tiles in one worker task.

    Submitting one pool task per tile makes the per-task pickle +
    future + IPC round trip the dominant cost once tiles are cheap (a
    2x2 tiling dispatches four futures per step for sub-millisecond
    sweeps).  The executor therefore groups each worker's tiles into a
    single task: one submission per worker per step, with the same
    ``(tile_index, checksums)`` results returned as one list.
    """
    return [run_tile_task(task) for task in tasks]
