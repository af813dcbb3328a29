"""Component micro-benchmarks.

Breaks the cost of one protected iteration into its parts — sweep,
checksum computation, checksum interpolation, detection — on the larger
benchmark tile. This is the measurement behind the complexity claims of
Theorem 1: checksum interpolation touches only boundary strips, so it
costs a fraction of the sweep.  On the 64x64x8 tile (2-core x86 host,
NumPy 2.4) the exact interpolation costs 0.17-0.26x a sweep, and the
offline protector's per-step work — recording the strips plus one
replayed interpolation — 0.14-0.24x; both gates below assert < 0.5x.

Three more gates time the fused step on the 512x512x8 HotSpot3D tile,
each against the form it replaced: the compiled flat sweep must cost
< 0.75x the NumPy strip loop on the buffer pair, the lane fold of the
column checksum (compiled where a C compiler exists) < 0.8x
``u.sum(axis=0, dtype=float64)`` of the padded interior, and the exact
interpolation given the grid's layout < 0.25x the domain-read form.
The sweep gate skips, printing why, only where no ``cc`` is on PATH.
"""

import shutil
from unittest import mock

import numpy as np
import pytest

from repro.backends import FusedBackend, native
from repro.core.checksums import checksum
from repro.core.detection import detect_errors
from repro.core.interpolation import (
    extract_delta_strips,
    interpolate_checksum_padded,
    interpolate_checksum_reduced,
)
from repro.experiments.common import make_hotspot_app
from repro.stencil.shift import pad_array
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


def _per_call(fn, repeats=20):
    import time

    fn()
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def _sweep_time(grid, padded):
    return _per_call(
        lambda: sweep_padded(padded, grid.spec, grid.radius, grid.shape,
                             constant=grid.constant)
    )


def test_interpolation_is_much_cheaper_than_sweep(state):
    """The Theorem-1 complexity claim, checked directly on wall-clock."""
    app, grid, padded, cs = state
    sweep_time = _sweep_time(grid, padded)
    interp_time = _per_call(
        lambda: interpolate_checksum_padded(
            cs, padded, grid.spec, grid.radius, grid.shape, 0
        )
    )
    print(f"\nsweep {sweep_time * 1e3:.3f} ms vs interpolation {interp_time * 1e3:.3f} ms")
    assert interp_time < 0.5 * sweep_time


def test_offline_replay_is_much_cheaper_than_sweep(state):
    """The offline protector's per-step cost: record strips, replay once."""
    app, grid, padded, cs = state

    def replay_step():
        strips = extract_delta_strips(padded, grid.spec, grid.radius, grid.shape, 0)
        interpolate_checksum_reduced(
            cs, grid.spec, grid.boundary, 0, grid.shape[0], deltas=strips
        )

    sweep_time = _sweep_time(grid, padded)
    replay_time = _per_call(replay_step)
    print(f"\nsweep {sweep_time * 1e3:.3f} ms vs strips + replay "
          f"{replay_time * 1e3:.3f} ms")
    assert replay_time < 0.5 * sweep_time


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


def test_compiled_sweep_is_cheaper_than_strip_loop(large_state):
    """The native flat sweep against the NumPy strip loop it replaces."""
    if shutil.which("cc") is None:
        pytest.skip(f"no compiled sweep: {native.unavailable_reason()}")
    assert native.library() is not None, native.unavailable_reason()
    grid, padded, cs = large_state
    fused = FusedBackend()
    dst = np.empty_like(padded)

    def sweep():
        fused.sweep_into(
            padded, dst, grid.spec, grid.radius, grid.shape, constant=grid.constant
        )

    def strip_loop():
        with mock.patch.object(native, "_state", "timing the NumPy strip loop"):
            sweep()

    ratio = _ratio(sweep, strip_loop)
    print(f"\ncompiled sweep / NumPy strip loop = {ratio:.2f}")
    assert ratio < 0.75


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

    def interpolate(layout):
        return interpolate_checksum_padded(
            cs, padded, grid.spec, grid.radius, grid.shape, 0, layout=layout
        )

    layout = grid.buffers.layout
    ratio = _ratio(lambda: interpolate(layout), lambda: interpolate(None))
    print(f"\nlayout-aware / domain-read interpolation = {ratio:.2f}")
    assert ratio < 0.25
