#!/usr/bin/env python
"""Parallel protection: per-layer tiles and simulated distributed ranks.

Demonstrates the paper's "intrinsically parallel" property on two
execution models:

1. the shared-memory tiled runner, protecting each z-layer of a
   HotSpot3D domain with its own checksum pair (the paper's OpenMP
   mapping); its tiles run serially, or on a thread pool under
   ``REPRO_EXECUTOR=threads``, and
2. the simulated message-passing runner, where each rank owns a
   persistent padded buffer pair for its block of a 2D domain, receives
   neighbour halo strips straight into the front buffer's ghost slabs,
   steps through the backend's step primitive, reduces its checksum
   once and verifies its block locally — zero full-block allocations
   per rank per iteration.

In both cases a fault injected into one tile/rank is detected and
corrected by that tile/rank alone — no global communication is needed.

Run with::

    python examples/distributed_tiles.py
    REPRO_EXECUTOR=threads python examples/distributed_tiles.py
"""

import numpy as np

from repro import FaultInjector, FaultPlan, get_backend, l2_error
from repro.apps.hotspot3d import HotSpot3D, HotSpot3DConfig
from repro.faults.bitflip import flip_bit_in_array
from repro.parallel.runner import TiledStencilRunner
from repro.parallel.simmpi import DistributedStencilRunner
from repro.stencil import Grid2D, kernels
from repro.stencil.boundary import BoundaryCondition

ITERATIONS = 40


def shared_memory_layers() -> None:
    print("=== Shared-memory: one protected tile per HotSpot3D layer ===")
    app = HotSpot3D(HotSpot3DConfig(nx=48, ny=48, nz=8))
    reference = app.reference_solution(ITERATIONS)

    grid = app.build_grid()
    runner = TiledStencilRunner.with_online_abft(grid, "layers", epsilon=1e-5)
    fault = FaultPlan(iteration=18, index=(20, 30, 5), bit=26)
    runner.run(ITERATIONS, inject=FaultInjector([fault]))

    print(f"tiles (layers)          : {runner.n_tiles}")
    print(f"errors detected         : {runner.total_detected()}")
    print(f"errors corrected        : {runner.total_corrected()}")
    firing = [box.index for box in runner.boxes
              if runner.protectors[box.index].total_detections > 0]
    print(f"layers that detected    : {firing} (fault was in layer {fault.index[2]})")
    print(f"final l2 error          : {l2_error(reference, grid.u):.3e}")
    print()


def distributed_ranks() -> None:
    print("=== Simulated distributed memory: 4 ranks, explicit halo exchange ===")
    rng = np.random.default_rng(3)
    initial = (rng.random((96, 64)) * 100).astype(np.float32)
    grid = Grid2D(initial, kernels.five_point_diffusion(0.2), BoundaryCondition.clamp())
    reference = grid.copy()
    reference.run(ITERATIONS)

    runner = DistributedStencilRunner(grid, n_ranks=4, protect=True, epsilon=1e-5)
    target_global = (70, 20)
    target_rank, target_local = runner.rank_of_global_index(target_global)

    def inject(run, iteration, rank):
        if iteration == 15 and rank.rank == target_rank:
            flip_bit_in_array(rank.interior, target_local, 27)

    runner.run(ITERATIONS, inject=inject)

    traffic = runner.channel.traffic()
    halo_tags = ("to_hi", "to_lo")
    per_tag = ", ".join(f"{tag} {traffic['bytes_by_tag'][tag]}B" for tag in halo_tags)
    halo_messages = sum(traffic["messages_by_tag"][tag] for tag in halo_tags)
    halo_bytes = sum(traffic["bytes_by_tag"][tag] for tag in halo_tags)
    print(f"ranks                   : {runner.n_ranks} "
          f"(backend {get_backend().name}, zero-copy buffer pairs)")
    print(f"halo messages exchanged : {halo_messages}")
    print(f"halo bytes exchanged    : {halo_bytes} ({per_tag})")
    print(f"errors detected         : {runner.total_detected()} "
          f"(all on rank {target_rank})")
    print(f"errors corrected        : {runner.total_corrected()}")
    print(f"final l2 error          : {l2_error(reference.u, runner.gather()):.3e}")


if __name__ == "__main__":
    shared_memory_layers()
    distributed_ranks()
