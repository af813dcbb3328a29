#!/usr/bin/env python
"""Weak-scaling benchmark of the distributed (simulated-MPI) ABFT runner.

Reproduces the shape of the paper's Section 5.2 experiment: the
per-rank block is held **fixed** while the rank count grows (1, 2, 4,
8), so the work per rank is constant and the paper's "intrinsically
parallel" claim predicts a flat per-rank ABFT overhead — every rank
verifies its own block with its own checksum vectors, no global
reduction ever happens.

For every rank count the benchmark times

* the **zero-copy runner** (`DistributedStencilRunner`): persistent
  per-rank padded buffer pairs, halo payloads ingested in place into
  the front buffer's ghost slabs, backend-fused partial-axis refresh +
  sweep + per-rank checksums, protected and unprotected; and
* the **legacy path** (the pre-buffer-pair execution shape, re-created
  here as a baseline): per rank per iteration one ``stack_with_halos``
  concatenate, one ``pad_array`` block and one freshly allocated
  ``sweep_padded`` output — three full-block allocations — plus an
  unfused ``OnlineABFT.process`` that recomputes the checksum from
  scratch.

It also verifies the zero-allocation property with ``tracemalloc``
(the zero-copy runner must perform **zero** full-block allocations per
rank per iteration; the legacy path measures ~3), records the
``SimChannel`` message/byte traffic per tag, and checks the
distributed results stay bit-identical to the serial protected run —
including under fault injection.  Everything is written to
``BENCH_weak_scaling.json``.

Usage::

    python benchmarks/bench_weak_scaling.py             # full comparison
    python benchmarks/bench_weak_scaling.py --smoke     # CI gate: exit 1 if
                                                        # the runner allocates
                                                        # a full block per
                                                        # step, diverges from
                                                        # serial, or loses to
                                                        # the legacy path on
                                                        # the 4-rank run
    python benchmarks/bench_weak_scaling.py --block 256 512 --iters 10
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from typing import Dict, List, Tuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.core.online import OnlineABFT
from repro.parallel.decomposition import partition_extent
from repro.parallel.halo import boundary_strip, synthesize_ghost_into
from repro.parallel.simmpi import DistributedStencilRunner, SimChannel
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion
from repro.stencil.shift import pad_array
from repro.stencil.sweep import sweep_padded

DEFAULT_JSON = "BENCH_weak_scaling.json"
DEFAULT_RANKS = (1, 2, 4, 8)

#: Fixed transient footprint of one protected step (checksum vectors,
#: interpolation strips, detection buffers) plus a per-rank term for the
#: halo strips in flight — measured ~90 KB flat + <10 KB per rank on
#: 256x1024 blocks.  The allocation accounting subtracts this allowance
#: so small benchmark blocks are not mislabelled as full-block
#: temporaries; it is kept tight so the legacy path's three-block
#: transient is not swallowed either.
ALLOC_FLAT_ALLOWANCE = 128 * 1024
ALLOC_PER_RANK_ALLOWANCE = 16 * 1024


# --------------------------------------------------------------------------
# The legacy (seed) execution shape, kept here as the benchmark baseline.
# --------------------------------------------------------------------------
def synthesize_ghost(
    u: np.ndarray, axis: int, side: str, width: int, bc: BoundaryCondition
) -> np.ndarray:
    """Ghost strip generated from a closed boundary condition.

    Used by ranks that sit at the global domain edge (no neighbour on
    that side). Periodic boundaries are handled by neighbour wrap-around
    in the runner, so they never reach this function.
    """
    shape = list(u.shape)
    shape[axis] = width
    if bc.is_clamp:
        edge = boundary_strip(u, axis, side, 1)
        reps = [1] * u.ndim
        reps[axis] = width
        return np.tile(edge, reps)
    if bc.is_periodic:
        # Wrap-around data belongs to the opposite rank; the runner routes
        # it as a regular halo message.
        raise ValueError("periodic ghosts are exchanged, not synthesised")
    return np.full(shape, bc.fill_value(), dtype=u.dtype)


def stack_with_halos(
    low_ghost: np.ndarray, interior: np.ndarray, high_ghost: np.ndarray, axis: int
) -> np.ndarray:
    """Concatenate ``low_ghost | interior | high_ghost`` along ``axis``."""
    for name, strip in (("low", low_ghost), ("high", high_ghost)):
        expected = list(interior.shape)
        expected[axis] = strip.shape[axis]
        if list(strip.shape) != expected:
            raise ValueError(
                f"{name} ghost strip has shape {strip.shape}, expected {tuple(expected)}"
            )
    return np.concatenate([low_ghost, interior, high_ghost], axis=axis)


# The allocating ghost helpers above are checked here, beside the
# baseline that uses them (``pytest benchmarks/bench_weak_scaling.py``).
def test_synthesize_clamp_ghost():
    u = np.random.default_rng(0).random((4, 3))
    ghost = synthesize_ghost(u, 0, "high", 2, BoundaryCondition.clamp())
    assert ghost.shape == (2, 3)
    np.testing.assert_array_equal(ghost[0], u[-1])
    np.testing.assert_array_equal(ghost[1], u[-1])


def test_synthesize_constant_and_zero_ghost():
    u = np.random.default_rng(1).random((4, 3))
    np.testing.assert_array_equal(
        synthesize_ghost(u, 1, "low", 1, BoundaryCondition.zero()),
        np.zeros((4, 1)),
    )
    np.testing.assert_array_equal(
        synthesize_ghost(u, 1, "low", 1, BoundaryCondition.constant(2.0)),
        np.full((4, 1), 2.0),
    )


def test_synthesize_periodic_rejected():
    import pytest

    with pytest.raises(ValueError, match="exchanged"):
        synthesize_ghost(
            np.random.default_rng(2).random((3, 3)), 0, "low", 1,
            BoundaryCondition.periodic(),
        )


def test_synthesize_ghost_matches_the_in_place_form():
    """The baseline's ghosts are the ones the zero-copy runner writes."""
    u = np.random.default_rng(3).random((4, 3))
    for bc in (
        BoundaryCondition.clamp(),
        BoundaryCondition.zero(),
        BoundaryCondition.constant(4.5),
    ):
        for side in ("low", "high"):
            padded = pad_array(u, (2, 1), BoundaryCondition.zero())
            slab = synthesize_ghost_into(padded, (2, 1), 0, side, bc)
            np.testing.assert_array_equal(slab, synthesize_ghost(u, 0, side, 2, bc))


def test_stack_with_halos():
    rng = np.random.default_rng(4)
    interior = rng.random((4, 3))
    lo = rng.random((1, 3))
    hi = rng.random((1, 3))
    stacked = stack_with_halos(lo, interior, hi, 0)
    assert stacked.shape == (6, 3)
    np.testing.assert_array_equal(stacked[0:1], lo)
    np.testing.assert_array_equal(stacked[1:5], interior)


def test_stack_with_halos_shape_validation():
    import pytest

    rng = np.random.default_rng(5)
    interior = rng.random((4, 3))
    with pytest.raises(ValueError, match="ghost strip"):
        stack_with_halos(rng.random((1, 2)), interior, rng.random((1, 3)), 0)


class _LegacyRank:
    def __init__(self, rank, interior, constant, protector, lo, hi):
        self.rank = rank
        self.interior = interior
        self.constant = constant
        self.protector = protector
        self.lo_neighbor = lo
        self.hi_neighbor = hi


class LegacyDistributedRunner:
    """The pre-buffer-pair distributed path: reassemble, pad, sweep, verify.

    Per rank per iteration this allocates three full blocks — the
    ``stack_with_halos`` concatenate, the ``pad_array`` ghost block and
    a fresh ``sweep_padded`` output — and verifies through the unfused
    ``OnlineABFT.process`` (checksum recomputed from the new block).
    It reproduces the seed ``DistributedStencilRunner`` semantics
    bit for bit and exists only as the benchmark baseline.
    """

    def __init__(self, grid, n_ranks: int, protect: bool, **abft_kwargs) -> None:
        self.spec = grid.spec
        self.boundary = grid.boundary
        self.radius = grid.spec.radius()
        self.iteration = grid.iteration
        self.channel = SimChannel()
        self.n_ranks = int(n_ranks)
        axis_bc = self.boundary.axis(0)
        bounds = partition_extent(grid.shape[0], self.n_ranks)
        self.ranks: List[_LegacyRank] = []
        for r, (start, stop) in enumerate(bounds):
            block = np.array(grid.u[start:stop], copy=True)
            const = None
            if grid.constant is not None:
                const = np.array(grid.constant[start:stop], copy=True)
            if axis_bc.is_periodic:
                lo, hi = (r - 1) % self.n_ranks, (r + 1) % self.n_ranks
            else:
                lo = r - 1 if r > 0 else None
                hi = r + 1 if r < self.n_ranks - 1 else None
            protector = None
            if protect:
                protector = OnlineABFT(
                    self.spec, self.boundary, block.shape,
                    dtype=grid.dtype, constant=const, **abft_kwargs,
                )
            self.ranks.append(_LegacyRank(r, block, const, protector, lo, hi))

    def step(self) -> None:
        width = self.radius[0]
        if width > 0:
            for rank in self.ranks:
                if rank.lo_neighbor is not None:
                    strip = boundary_strip(rank.interior, 0, "low", width)
                    self.channel.send(rank.rank, rank.lo_neighbor, "to_hi", strip)
                if rank.hi_neighbor is not None:
                    strip = boundary_strip(rank.interior, 0, "high", width)
                    self.channel.send(rank.rank, rank.hi_neighbor, "to_lo", strip)
        self.iteration += 1
        axis_bc = self.boundary.axis(0)
        for rank in self.ranks:
            if width > 0:
                if rank.lo_neighbor is not None:
                    lo_ghost = self.channel.recv(rank.lo_neighbor, rank.rank, "to_lo")
                else:
                    lo_ghost = synthesize_ghost(rank.interior, 0, "low", width, axis_bc)
                if rank.hi_neighbor is not None:
                    hi_ghost = self.channel.recv(rank.hi_neighbor, rank.rank, "to_hi")
                else:
                    hi_ghost = synthesize_ghost(rank.interior, 0, "high", width, axis_bc)
                extended = stack_with_halos(lo_ghost, rank.interior, hi_ghost, 0)
            else:
                extended = rank.interior
            pad_radius = list(self.radius)
            pad_radius[0] = 0
            padded = pad_array(extended, tuple(pad_radius), self.boundary)
            rank.interior = sweep_padded(
                padded, self.spec, self.radius, rank.interior.shape,
                constant=rank.constant,
            )
            if rank.protector is not None:
                rank.protector.process(rank.interior, padded, self.iteration)

    def run(self, iterations: int) -> None:
        for _ in range(iterations):
            self.step()

    def gather(self) -> np.ndarray:
        return np.concatenate([rank.interior for rank in self.ranks], axis=0)


# --------------------------------------------------------------------------
# Measurement helpers
# --------------------------------------------------------------------------
def build_grid(block: Tuple[int, int], n_ranks: int) -> Grid2D:
    rng = np.random.default_rng(42)
    shape = (block[0] * n_ranks, block[1])
    initial = (rng.random(shape) * 100.0).astype(np.float32)
    return Grid2D(initial, five_point_diffusion(0.2), BoundaryCondition.clamp())


def make_runner(kind: str, block, n_ranks: int, protect: bool):
    grid = build_grid(block, n_ranks)
    if kind == "zero_copy":
        return DistributedStencilRunner(
            grid, n_ranks=n_ranks, protect=protect, epsilon=1e-5
        )
    return LegacyDistributedRunner(grid, n_ranks, protect, epsilon=1e-5)


#: Timed sub-chunks per repeat: the four runs (zero-copy/legacy x
#: unprotected/protected) advance in alternating slices of the timed
#: loop rather than as four long back-to-back legs, so CPU-frequency /
#: throttle drift on any timescale longer than one chunk (~50-100 ms)
#: hits every leg of a repeat equally and cancels out of the ratios.
TIMING_CHUNKS = 4


def time_rank_count(
    block, n_ranks: int, iters: int, repeats: int
) -> Dict[str, Dict[str, object]]:
    """Chunk-interleaved timings of both runners at one rank count.

    Every repeat builds all four runners — zero-copy
    unprotected/protected and legacy unprotected/protected — warms each
    with one untimed iteration (scratch buffers, first checksums), then
    cycles through them ``TIMING_CHUNKS`` times, timing a slice of each
    runner's loop per visit.  Process CPU time is used throughout: the
    simulated runner is strictly sequential (ranks are stepped in a
    loop by one process), so CPU time *is* the work performed and
    excludes scheduler steal on shared or oversubscribed runners.

    The derived metrics are **medians of per-repeat ratios**: the ABFT
    overhead pairs protected with unprotected, the legacy comparison
    pairs the two protected runs.  A slow system phase (steal, thermal
    throttling, cpufreq steps) spans the interleaved chunks of every
    leg equally, so it cancels out of the ratios instead of
    masquerading as protection cost or as a runner regression.
    """
    configs = [
        (kind, protect)
        for kind in ("zero_copy", "legacy")
        for protect in (False, True)
    ]
    samples = {
        kind: {"unprot": [], "prot": [], "overheads": []}
        for kind in ("zero_copy", "legacy")
    }
    speedups: List[float] = []
    chunk_iters = max(1, iters // TIMING_CHUNKS)
    for _ in range(repeats):
        runners = {}
        for key in configs:
            runner = make_runner(key[0], block, n_ranks, key[1])
            runner.run(1)
            runners[key] = runner
        elapsed = {key: 0.0 for key in configs}
        for _ in range(TIMING_CHUNKS):
            for key in configs:
                start = time.process_time()
                runners[key].run(chunk_iters)
                elapsed[key] += time.process_time() - start
        total_iters = chunk_iters * TIMING_CHUNKS
        for kind in ("zero_copy", "legacy"):
            u_ms = elapsed[(kind, False)] / total_iters * 1000.0
            p_ms = elapsed[(kind, True)] / total_iters * 1000.0
            samples[kind]["unprot"].append(u_ms)
            samples[kind]["prot"].append(p_ms)
            samples[kind]["overheads"].append((p_ms / u_ms - 1.0) * 100.0)
        speedups.append(
            samples["legacy"]["prot"][-1] / samples["zero_copy"]["prot"][-1]
        )
    result: Dict[str, Dict[str, object]] = {}
    for kind, data in samples.items():
        result[kind] = {
            "unprotected": {
                "ms_per_iter": statistics.median(data["unprot"]),
                "ms_per_iter_best": min(data["unprot"]),
            },
            "protected": {
                "ms_per_iter": statistics.median(data["prot"]),
                "ms_per_iter_best": min(data["prot"]),
            },
            "abft_overhead_pct": statistics.median(data["overheads"]),
        }
    result["zero_copy"]["protected_speedup_vs_legacy"] = statistics.median(
        speedups
    )
    return result


def measure_traffic(kind: str, block, n_ranks: int, iters: int) -> Dict[str, object]:
    """Per-tag SimChannel message/byte accounting, normalised per iteration."""
    runner = make_runner(kind, block, n_ranks, protect=True)
    runner.run(iters)
    traffic = runner.channel.traffic()
    traffic["messages_per_iter"] = traffic["messages_sent"] / iters
    traffic["bytes_per_iter"] = traffic["bytes_sent"] / iters
    return traffic


def measure_allocations(
    kind: str, block, n_ranks: int, iters: int = 5
) -> Dict[str, object]:
    """Tracemalloc profile of the distributed hot loop.

    Measures the *peak* allocation growth across ``iters`` protected
    steps after warm-up.  Any full-block temporary alive at any instant
    (the legacy concatenate/pad/sweep triple) raises the peak by at
    least one block worth of bytes; the zero-copy rank lifecycle only
    allocates O(strip) halo payloads and O(edge) checksum vectors.
    """
    runner = make_runner(kind, block, n_ranks, protect=True)
    runner.run(2)
    block_bytes = int(runner.ranks[0].interior.nbytes)
    tracemalloc.start()
    # One traced warm step absorbs steady-state churn (the legacy path
    # re-allocates every rank's interior each step, replacing blocks
    # that predate tracing); the peak delta beyond this point is the
    # genuinely transient footprint of a step.
    runner.run(1)
    baseline, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    runner.run(iters)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_delta = max(0, int(peak) - int(baseline))
    allowance = ALLOC_FLAT_ALLOWANCE + ALLOC_PER_RANK_ALLOWANCE * n_ranks
    block_scale = max(0, peak_delta - allowance)
    return {
        "block_bytes": block_bytes,
        "peak_alloc_bytes": peak_delta,
        "full_block_allocs": int(round(block_scale / block_bytes)),
        "zero_full_block_allocs": bool(block_scale < block_bytes // 2),
    }


def check_equivalence() -> Dict[str, bool]:
    """Distributed-vs-serial bit equality, fault-free and under injection."""
    from repro.faults.bitflip import flip_bit_in_array

    results: Dict[str, bool] = {}
    for name, bc in (("clamp", BoundaryCondition.clamp()),
                     ("periodic", BoundaryCondition.periodic())):
        rng = np.random.default_rng(7)
        initial = (rng.random((96, 64)) * 100.0).astype(np.float32)
        grid = Grid2D(initial, five_point_diffusion(0.2), bc)
        serial = grid.copy()
        runner = DistributedStencilRunner(grid, n_ranks=4, protect=True, epsilon=1e-5)
        runner.run(8)
        protector = OnlineABFT.for_grid(serial, epsilon=1e-5)
        for _ in range(8):
            protector.step(serial)
        results[f"gather_matches_serial_{name}"] = bool(
            np.array_equal(runner.gather(), serial.u)
        )

    # Injection: same global flip on both paths, bitwise-equal repair.
    # The row-checksum correction sums only non-distributed axes, so a
    # rank computes exactly the numbers the serial protector computes
    # and the repair is bitwise identical; column/average corrections
    # involve sums over the distributed axis (rank-local vs global
    # extent) and agree only to 1 ULP.
    rng = np.random.default_rng(11)
    initial = (rng.random((96, 64)) * 100.0).astype(np.float32)
    grid = Grid2D(initial, five_point_diffusion(0.2), BoundaryCondition.clamp())
    serial = grid.copy()
    target = (70, 20)
    runner = DistributedStencilRunner(
        grid, n_ranks=4, protect=True, epsilon=1e-5, correction_strategy="row"
    )
    target_rank, target_local = runner.rank_of_global_index(target)

    def inject_rank(run, iteration, rank):
        if iteration == 4 and rank.rank == target_rank:
            flip_bit_in_array(rank.interior, target_local, 26)

    runner.run(8, inject=inject_rank)
    protector = OnlineABFT.for_grid(
        serial, epsilon=1e-5, correction_strategy="row"
    )

    def inject_serial(g, iteration):
        if iteration == 4:
            flip_bit_in_array(g.u, target, 26)

    for _ in range(8):
        protector.step(serial, inject=inject_serial)
    dist_sha = hashlib.sha256(np.ascontiguousarray(runner.gather()).tobytes()).hexdigest()
    serial_sha = hashlib.sha256(np.ascontiguousarray(serial.u).tobytes()).hexdigest()
    results["injection_matches_serial"] = bool(
        dist_sha == serial_sha
        and runner.total_detected() == protector.total_detections
        and runner.total_corrected() == protector.total_corrections
    )
    return results


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--block", type=int, nargs=2, default=[256, 1024],
        metavar=("BX", "BY"),
        help="fixed per-rank block shape (weak scaling holds this constant)",
    )
    parser.add_argument(
        "--ranks", type=int, nargs="+", default=list(DEFAULT_RANKS),
        help="rank counts to sweep",
    )
    parser.add_argument("--iters", type=int, default=20, help="timed iterations")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (median)")
    parser.add_argument(
        "--json", default=DEFAULT_JSON,
        help=f"machine-readable results file (default: {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=(
            "CI mode: small block, fewer iterations; exit non-zero if the "
            "zero-copy runner performs any full-block allocation per step, "
            "diverges from the serial protected run (fault-free or under "
            "injection), or is >5%% slower than the legacy path on the "
            "4-rank protected run"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.block = [min(args.block[0], 128), min(args.block[1], 512)]
        args.iters = min(args.iters, 8)
        args.repeats = max(args.repeats, 3)

    block = tuple(args.block)
    block_bytes = block[0] * block[1] * 4
    report = {
        "config": {
            "block": list(block),
            "block_bytes": block_bytes,
            "ranks": args.ranks,
            "iters": args.iters,
            "repeats": args.repeats,
            "cpu_count": os.cpu_count(),
            "smoke": bool(args.smoke),
        },
        "metric_definitions": {
            "ms_per_iter": (
                "median per-iteration process CPU time of one whole "
                "distributed step (all ranks, stepped sequentially in the "
                "simulation, so CPU time equals work done and excludes "
                "scheduler steal; one untimed warm-up iteration first, "
                "then the four runs advance in interleaved timed chunks "
                "so frequency/throttle drift hits every run equally)"
            ),
            "ms_per_iter_best": (
                "fastest repeat (informational; the --smoke speed gate is "
                "decided by protected_speedup_vs_legacy, the median of "
                "per-repeat protected-run ratios)"
            ),
            "abft_overhead_pct": (
                "median over repeats of the per-pair ratio 100 * "
                "(protected - unprotected) / unprotected, where each "
                "repeat advances both runs (same runner kind) in "
                "interleaved timed chunks; pairing makes scheduler and "
                "cpufreq noise hit both sides, so it cancels out of the "
                "overhead.  The paper's weak-scaling claim is that this "
                "stays flat as ranks grow (the per-rank block is fixed)"
            ),
            "full_block_allocs": (
                "round((tracemalloc peak growth - allowance) / block bytes) "
                "across 5 protected steps; the legacy path concatenates, "
                "pads and sweeps into three fresh full blocks per rank per "
                "iteration, the zero-copy path must measure 0"
            ),
            "traffic": (
                "SimChannel totals for the timed run, plus per-tag "
                "message/byte breakdown ('to_lo'/'to_hi' halo strips) and "
                "per-iteration rates"
            ),
        },
        "scaling": {},
        "equivalence": {},
        "gates": {},
    }

    print(
        f"Weak scaling: fixed {block[0]}x{block[1]} float32 block per rank, "
        f"ranks {args.ranks} ({args.iters} iters, median of {args.repeats})"
    )
    print()
    print("Distributed-vs-serial equivalence (bitwise, incl. injection):")
    equivalence = check_equivalence()
    report["equivalence"] = equivalence
    for name, ok in equivalence.items():
        print(f"  {name:32s} {'ok' if ok else 'FAIL'}")
    equiv_ok = all(equivalence.values())
    print()

    header = (
        f"{'ranks':>5s}  {'runner':>9s} {'sweep ms':>9s} {'abft ms':>9s} "
        f"{'overhead':>9s} {'peak alloc':>11s} {'blk allocs':>10s}"
    )
    print(header)
    print("-" * len(header))
    max_ranks = max(args.ranks)
    for n_ranks in args.ranks:
        # Hold the timed-loop *duration* roughly constant across rank
        # counts (one distributed step costs ~n_ranks block sweeps, so
        # small rank counts run proportionally more iterations) — short
        # timed loops are disproportionately vulnerable to noise spikes,
        # which would show up as overhead jitter at 1 rank.
        iters_n = args.iters * max(1, max_ranks // n_ranks)
        row: Dict[str, object] = time_rank_count(
            block, n_ranks, iters_n, args.repeats
        )
        row["iters"] = iters_n
        for kind in ("zero_copy", "legacy"):
            alloc = measure_allocations(kind, block, n_ranks)
            row[kind]["alloc"] = alloc
            timing = row[kind]
            print(
                f"{n_ranks:5d}  {kind:>9s} "
                f"{timing['unprotected']['ms_per_iter']:9.3f} "
                f"{timing['protected']['ms_per_iter']:9.3f} "
                f"{timing['abft_overhead_pct']:8.1f}% "
                f"{alloc['peak_alloc_bytes']:11d} "
                f"{alloc['full_block_allocs']:10d}"
            )
        row["traffic"] = measure_traffic("zero_copy", block, n_ranks, args.iters)
        report["scaling"][str(n_ranks)] = row
    print()

    scaling = report["scaling"]

    # -- allocation gate ------------------------------------------------------
    alloc_ok = all(
        scaling[str(n)]["zero_copy"]["alloc"]["zero_full_block_allocs"]
        for n in args.ranks
    )
    report["gates"]["zero_copy_zero_full_block_allocs"] = alloc_ok
    if alloc_ok:
        worst = max(
            scaling[str(n)]["zero_copy"]["alloc"]["peak_alloc_bytes"]
            for n in args.ranks
        )
        print(
            f"zero-copy runner performs zero full-block allocations per rank "
            f"per iteration at every rank count (worst peak transient "
            f"{worst / 1e3:.1f} KB vs {block_bytes / 1e6:.2f} MB block)"
        )
    else:
        print("FAIL: zero-copy runner allocated full-block temporaries")

    # -- speed gate (4-rank protected run, new vs legacy) ---------------------
    speed_fail = False
    gate_ranks = "4" if "4" in scaling else str(args.ranks[-1])
    speedup = scaling[gate_ranks]["zero_copy"]["protected_speedup_vs_legacy"]
    # The recorded gate matches the smoke exit criterion exactly (>5%
    # slower fails; the 0.95-1.0 band is a WARN that stays green), so
    # the uploaded artifact never reports a failure CI tolerated.
    report["gates"]["zero_copy_beats_legacy_protected"] = speedup > 0.95
    report["gates"]["zero_copy_protected_speedup_vs_legacy"] = speedup
    if speedup > 1.0:
        print(
            f"zero-copy runner beats the legacy path on the {gate_ranks}-rank "
            f"protected run: {speedup:.2f}x (median of {args.repeats} "
            f"back-to-back pairs)"
        )
    elif speedup > 0.95:
        print(
            f"WARN: zero-copy runner did not beat the legacy path on the "
            f"{gate_ranks}-rank protected run ({speedup:.2f}x) but is within "
            f"the 5% noise band — not failing the gate"
        )
    else:
        print(
            f"FAIL: zero-copy runner is >5% slower than the legacy path on "
            f"the {gate_ranks}-rank protected run ({speedup:.2f}x)"
        )
        speed_fail = True

    # -- overhead flatness (the paper's weak-scaling claim) -------------------
    overheads = {
        n: scaling[str(n)]["zero_copy"]["abft_overhead_pct"] for n in args.ranks
    }
    delta = overheads[max(args.ranks)] - overheads[min(args.ranks)]
    spread = max(overheads.values()) - min(overheads.values())
    flat = abs(delta) <= 2.0
    report["gates"]["abft_overhead_flat_min_to_max_ranks"] = flat
    report["gates"]["abft_overhead_delta_pts"] = delta
    report["gates"]["abft_overhead_spread_pts"] = spread
    trend = ", ".join(f"{n}r {pct:.1f}%" for n, pct in overheads.items())
    if flat:
        print(
            f"per-rank ABFT overhead flat under weak scaling: {trend} "
            f"({min(args.ranks)}->{max(args.ranks)} ranks delta "
            f"{delta:+.1f} pts, within ±2)"
        )
    else:
        # Advisory on shared CI runners: overhead is a ratio of two noisy
        # timings; the committed full-run snapshot is the gated artefact.
        print(
            f"note: ABFT overhead {min(args.ranks)}->{max(args.ranks)} ranks "
            f"delta {delta:+.1f} pts exceeds ±2 ({trend}) — timing noise on "
            f"shared runners; advisory only"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nmachine-readable results written to {args.json}")

    if args.smoke:
        if not equiv_ok:
            return 1
        if not alloc_ok:
            return 1
        if speed_fail:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
