"""Parallel execution of protected stencil sweeps.

The paper stresses that the ABFT scheme is "intrinsically parallel":
checksum computation, interpolation, detection and correction are all
performed *independently* within each thread/process/tile, so protecting
a parallel stencil run requires no extra synchronisation or
communication beyond the halo exchange the stencil needs anyway.

This subpackage exercises that property in two settings:

``decomposition`` / ``executor`` / ``runner``
    Shared-memory tiling: the global domain is split into tiles, each
    tile is swept (serially or on a thread pool) from a ghost-padded
    view of the global buffer pair, writes its new interior in place,
    and is verified by its own independent
    :class:`~repro.core.online.OnlineABFT` instance.  The executors'
    process pool serves the campaign engine, not the tiles.

``simmpi``
    A small simulated message-passing layer (ranks, Send/Recv
    mailboxes) and a distributed runner in which each rank owns a
    persistent padded buffer pair for its contiguous block of the
    domain, receives halo strips straight into its front buffer's ghost
    slabs, sweeps through the backend's step primitive and runs
    its own ABFT verification — the distributed-memory setting of the
    paper, without requiring MPI and without any full-block allocation
    per iteration.
"""

from repro.parallel.decomposition import TileBox, partition_extent, decompose, decompose_layers
from repro.parallel.executor import (
    ProcessPoolTileExecutor,
    SerialExecutor,
    ThreadPoolTileExecutor,
    available_executors,
    default_executor_kind,
    make_executor,
    resolve_workers,
    set_default_executor,
)
from repro.parallel.halo import padded_tile_view, tile_constant
from repro.parallel.runner import TiledStencilRunner
from repro.parallel.simmpi import SimChannel, SimRank, DistributedStencilRunner

__all__ = [
    "TileBox",
    "partition_extent",
    "decompose",
    "decompose_layers",
    "SerialExecutor",
    "ThreadPoolTileExecutor",
    "ProcessPoolTileExecutor",
    "make_executor",
    "available_executors",
    "default_executor_kind",
    "set_default_executor",
    "resolve_workers",
    "padded_tile_view",
    "tile_constant",
    "TiledStencilRunner",
    "SimChannel",
    "SimRank",
    "DistributedStencilRunner",
]
