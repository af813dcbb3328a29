"""Component micro-benchmarks.

Breaks the cost of one protected iteration into its parts — sweep,
checksum computation, checksum interpolation, detection — on the larger
benchmark tile. This is the measurement behind the complexity claims of
Theorem 1: checksum interpolation touches only boundary strips, so it
costs a fraction of the sweep.  On the 64x64x8 tile (2-core x86 host,
NumPy 2.4) the exact interpolation costs 0.17-0.26x a sweep, and the
offline protector's per-step work — recording the strips plus one
replayed interpolation — 0.14-0.24x; both gates below assert < 0.5x.
Like every gate here they read the median of 30 interleaved ratios,
so one scheduler spike on a shared host cannot fail them (0.18-0.21x
and 0.24-0.28x over five runs).

Four more gates time the fused step on the 512x512x8 HotSpot3D tile,
each against the form it replaced: the compiled flat sweep must cost
< 0.75x the NumPy strip loop on the buffer pair, the lane fold of the
column checksum (compiled where a C compiler exists) < 0.8x
``u.sum(axis=0, dtype=float64)`` of the padded interior, the exact
interpolation given the grid's boundary < 0.25x the domain-read form, and
the fused step, whose compiled sweep fills the last axis's ghost lanes,
< 0.95x ``refresh_ghosts`` followed by ``sweep_into``; each sweep and
step takes a step plan built once over its buffer pair.  A fifth holds
the compiled sweep under 4x an ``np.copyto`` of its pair, a bound that
NumPy's speed cannot move: 2.0-2.3x with the sweep's inner loop
vectorized, 6.4-7.0x when it ran scalar.  A sixth times what a
stacked campaign batch of eight 64x64x8 runs adds to each iteration
(its checksums, Theorem-1 interpolation and detection screen) against
its batched step, given the pair's plan as a campaign steps it:
< 0.6x.  A seventh holds what a 64x64x8 grid's ``step()`` spends
around its work, the head ``refresh_ghosts`` and the compiled sweep
filling its ghost lanes called directly: < 1.5x.  The sweep, step and
stacked gates skip, printing why, only where no ``cc`` is on PATH.
"""

import shutil
from unittest import mock

import numpy as np
import pytest

from repro.backends import FusedBackend, StepPlan, native
from repro.backends import fused as fused_module
from repro.core.checksums import checksum
from repro.core.detection import detect_errors
from repro.core.interpolation import (
    extract_delta_strips,
    interpolate_checksum_padded,
    interpolate_checksum_reduced,
)
from repro.experiments.common import make_hotspot_app
from repro.stencil.shift import interior_view, pad_array, refresh_ghosts, refresh_plan
from repro.stencil.sweep import sweep_padded


@pytest.fixture(scope="module")
def state(request):
    tile = (64, 64, 8)
    app = make_hotspot_app(tile)
    grid = app.build_grid()
    grid.run(2)
    padded = pad_array(grid.u, grid.radius, grid.boundary)
    cs = checksum(grid.u, 0, dtype=np.float64)
    return app, grid, padded, cs


def test_component_sweep(benchmark, state):
    app, grid, padded, cs = state
    benchmark.group = "components"
    benchmark(
        lambda: sweep_padded(padded, grid.spec, grid.radius, grid.shape,
                             constant=grid.constant)
    )


def test_component_padding(benchmark, state):
    app, grid, padded, cs = state
    benchmark.group = "components"
    benchmark(lambda: pad_array(grid.u, grid.radius, grid.boundary))


def test_component_checksum(benchmark, state):
    app, grid, padded, cs = state
    benchmark.group = "components"
    benchmark(lambda: checksum(grid.u, 0, dtype=np.float64))


def test_component_interpolation(benchmark, state):
    app, grid, padded, cs = state
    benchmark.group = "components"
    benchmark(
        lambda: interpolate_checksum_padded(
            cs, padded, grid.spec, grid.radius, grid.shape, 0
        )
    )


def test_component_strip_extraction(benchmark, state):
    app, grid, padded, cs = state
    benchmark.group = "components"
    benchmark(
        lambda: extract_delta_strips(padded, grid.spec, grid.radius, grid.shape, 0)
    )


def test_component_reduced_interpolation(benchmark, state):
    app, grid, padded, cs = state
    strips = extract_delta_strips(padded, grid.spec, grid.radius, grid.shape, 0)
    benchmark.group = "components"
    benchmark(
        lambda: interpolate_checksum_reduced(
            cs, grid.spec, grid.boundary, 0, grid.shape[0], deltas=strips
        )
    )


def test_component_detection(benchmark, state):
    app, grid, padded, cs = state
    predicted = interpolate_checksum_padded(
        cs, padded, grid.spec, grid.radius, grid.shape, 0
    )
    benchmark.group = "components"
    benchmark(lambda: detect_errors(cs, predicted, 1e-5))


def _sweep(grid, padded):
    """One sweep of the tile, the baseline of the two gates below."""
    return lambda: sweep_padded(
        padded, grid.spec, grid.radius, grid.shape, constant=grid.constant
    )


def test_interpolation_is_much_cheaper_than_sweep(state):
    """The Theorem-1 complexity claim, checked directly on wall-clock."""
    app, grid, padded, cs = state
    ratio = _ratio(
        lambda: interpolate_checksum_padded(
            cs, padded, grid.spec, grid.radius, grid.shape, 0
        ),
        _sweep(grid, padded),
    )
    print(f"\ninterpolation / sweep = {ratio:.2f}")
    assert ratio < 0.5


def test_offline_replay_is_much_cheaper_than_sweep(state):
    """The offline protector's per-step cost: record strips, replay once."""
    app, grid, padded, cs = state

    def replay_step():
        strips = extract_delta_strips(padded, grid.spec, grid.radius, grid.shape, 0)
        interpolate_checksum_reduced(
            cs, grid.spec, grid.boundary, 0, grid.shape[0], deltas=strips
        )

    ratio = _ratio(replay_step, _sweep(grid, padded))
    print(f"\nstrips + replay / sweep = {ratio:.2f}")
    assert ratio < 0.5


def _ratio(fn, baseline, rounds=30):
    """Median over interleaved rounds of ``fn``'s time over ``baseline``'s."""
    import time

    fn(), baseline()
    ratios = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        mid = time.perf_counter()
        baseline()
        ratios.append((mid - start) / (time.perf_counter() - mid))
    return float(np.median(ratios))


@pytest.fixture(scope="module")
def large_state():
    app = make_hotspot_app((512, 512, 8))
    grid = app.build_grid()
    grid.run(2)
    grid.buffers.refresh()
    cs = checksum(grid.u, 0, dtype=np.float64)
    return grid, grid.buffers.front, cs


def _plan(grid, padded, dst):
    """The step plan of the pair ``(padded, dst)``, built once per gate."""
    return StepPlan(
        padded, dst, grid.spec, grid.radius, grid.shape, grid.boundary,
        grid.constant,
    )


def _require_compiled_sweep():
    """Skip, saying why, only where no ``cc`` is on PATH."""
    if shutil.which("cc") is None:
        pytest.skip(f"no compiled sweep: {native.unavailable_reason()}")
    assert native.library() is not None, native.unavailable_reason()


def test_compiled_sweep_is_cheaper_than_strip_loop(large_state):
    """The native flat sweep against the NumPy strip loop it replaces."""
    _require_compiled_sweep()
    grid, padded, cs = large_state
    fused = FusedBackend()
    dst = np.empty_like(padded)
    plan = _plan(grid, padded, dst)

    def sweep():
        fused.sweep_into(
            padded, dst, grid.spec, grid.radius, grid.shape, constant=grid.constant,
            plan=plan,
        )

    def strip_loop():
        with mock.patch.object(native, "_state", "timing the NumPy strip loop"):
            sweep()

    ratio = _ratio(sweep, strip_loop)
    print(f"\ncompiled sweep / NumPy strip loop = {ratio:.2f}")
    assert ratio < 0.75


def test_compiled_sweep_is_cheaper_than_four_pair_copies(large_state):
    """The compiled sweep against a bound that NumPy's speed cannot move.

    ``np.copyto`` of the pair streams the bytes the sweep must read
    and write at least once.
    """
    _require_compiled_sweep()
    grid, padded, cs = large_state
    fused = FusedBackend()
    dst = np.empty_like(padded)
    plan = _plan(grid, padded, dst)
    ratio = _ratio(
        lambda: fused.sweep_into(
            padded, dst, grid.spec, grid.radius, grid.shape, constant=grid.constant,
            plan=plan,
        ),
        lambda: np.copyto(dst, padded),
    )
    print(f"\ncompiled sweep / np.copyto of the pair = {ratio:.2f}")
    assert ratio < 4.0


def test_lane_fill_in_sweep_is_cheaper_than_refresh_then_sweep(large_state):
    """The fused step fills the last axis's ghost lanes in its sweep."""
    _require_compiled_sweep()
    grid, padded, cs = large_state
    fused = FusedBackend()
    dst = np.empty_like(padded)
    plan = _plan(grid, padded, dst)

    def step():
        fused.step_into(padded, dst, plan)

    def refresh_then_sweep():
        refresh_ghosts(padded, grid.radius, grid.boundary)
        fused.sweep_into(
            padded, dst, grid.spec, grid.radius, grid.shape, constant=grid.constant,
            plan=plan,
        )

    ratio = _ratio(step, refresh_then_sweep)
    print(f"\nstep / refresh_ghosts + sweep_into = {ratio:.2f}")
    assert ratio < 0.95


def test_lane_fold_is_cheaper_than_strided_sum(large_state):
    """Lever 1: the column checksum folds whole lanes of the padded tile."""
    grid, padded, cs = large_state
    fused = FusedBackend()
    ratio = _ratio(
        lambda: fused.checksum(grid.u, 0, dtype=np.float64),
        lambda: grid.u.sum(axis=0, dtype=np.float64),
    )
    print(f"\nlane fold / u.sum(axis=0, dtype=float64) = {ratio:.2f}")
    assert ratio < 0.8


def test_closed_borders_are_cheaper_than_domain_reads(large_state):
    """Lever 2: closed-axis border sums come from the checksum."""
    grid, padded, cs = large_state

    def interpolate(boundary):
        return interpolate_checksum_padded(
            cs, padded, grid.spec, grid.radius, grid.shape, 0, boundary=boundary
        )

    ratio = _ratio(lambda: interpolate(grid.boundary), lambda: interpolate(None))
    print(f"\nclosed-border / domain-read interpolation = {ratio:.2f}")
    assert ratio < 0.25


#: Runs of the stacked batch the gate below times: the ``campaign``
#: benchmark workload's eight runs of the 64x64x8 tile.
STACKED_WIDTH = 8


@pytest.fixture(scope="module")
def stacked_state():
    """A full-width stacked batch one step in, and its step."""
    from repro.core.online import OnlineABFT
    from repro.faults.engine import _StackedBatch

    grid = make_hotspot_app((64, 64, 8)).build_grid()
    batch = _StackedBatch(grid, OnlineABFT.for_grid(grid), STACKED_WIDTH, grid.u)
    prev_cs = batch._checksums(interior_view(batch.pair.front, batch.radius))
    batch.pair.swap()
    fused = FusedBackend()

    def step():
        # The step ``run_batch`` runs: the batched step given the plan of
        # the pair, which returns the interior the protection reads.
        return fused.batch_step_into(
            batch.pair.back, batch.pair.front, batch.pair.plan
        )

    return batch, prev_cs, step


def test_stacked_protection_is_cheaper_than_its_batched_step(stacked_state):
    """A stacked campaign iteration's protection against its step.

    The checksums, the Theorem-1 interpolation and the detection screen
    of a full batch (what ``_StackedBatch.run_batch`` adds to each
    iteration when a protector is set) against the batched ghost
    refresh and sweep, as ``run_batch`` steps: given the pair's plan.
    The step rewrites the pair's front from its back, the same values
    each time, so the protection always reads a freshly stepped batch,
    as in a campaign.  It read 0.97-1.07 with the NumPy interpolation
    reading the y and z borders from the domain and the NumPy screen,
    and 0.44-0.52 with closed borders and the compiled terms and compare
    (seven runs, 2-core x86 VM), against the step without a plan.  The
    planned step costs less (356 against 591 us a call): with only the
    interpolation bound the ratio read 0.58-0.72, and with the fold of
    the pair's two merged interiors bound too it reads 0.46-0.54
    (thirteen runs).
    """
    _require_compiled_sweep()
    batch, prev_cs, step = stacked_state
    interior = step()
    padded_prev = batch.pair.back
    assert batch._verify(prev_cs, interior, padded_prev)[1] is None

    ratio = _ratio(lambda: batch._verify(prev_cs, interior, padded_prev), step)
    print(f"\nstacked protection / batched step = {ratio:.2f}")
    assert ratio < 0.6


def test_grid_step_is_cheaper_than_one_and_a_half_times_its_work():
    """What a small tile's step spends in Python around its work.

    ``grid.step()`` on the 64x64x8 tile against the same work called
    directly on a copy of its pair: ``refresh_ghosts`` of the axes
    before the last ghost axis, then the compiled sweep, its arguments
    prepared once, filling that axis's ghost lanes.  It read 2.18-2.35x
    when every step re-derived its layout (radius, refresh and flat
    plans looked up, the padded constant's key, the lanes handed over
    in thread-local state), and 1.03-1.07x with the grid's step plan
    (three runs each, 2-core x86 VM).
    """
    _require_compiled_sweep()
    grid = make_hotspot_app((64, 64, 8)).build_grid()
    grid.run(2)
    src = grid.buffers.front.copy()
    dst = np.empty_like(src)
    dtype = src.dtype
    lanes = refresh_plan(src.shape, grid.radius, grid.boundary).lanes
    flat = fused_module._flat_plan(src.shape, grid.radius, grid.shape, dtype, grid.spec)
    const = FusedBackend()._padded_constant(grid.constant, src.shape, grid.radius, dtype)
    kernel = native.library().sweep[dtype.str]
    args = (
        src.ctypes.data, dst.ctypes.data, *flat.args, const.ctypes.data,
        *lanes.addresses(dtype),
    )

    def work():
        refresh_ghosts(src, grid.radius, grid.boundary, axes=lanes.head)
        kernel(*args)

    ratio = _ratio(
        lambda: [grid.step() for _ in range(10)],
        lambda: [work() for _ in range(10)],
        rounds=40,
    )
    print(f"\ngrid.step() / head refresh + compiled sweep = {ratio:.2f}")
    assert ratio < 1.5
