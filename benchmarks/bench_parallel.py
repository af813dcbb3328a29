"""Parallel-execution benchmarks.

Quantifies the cost of the per-tile protected execution (the paper's
"intrinsically parallel, no extra synchronisation" property) and
contrasts the ABFT overhead with the triple-modular-redundancy baseline
the paper dismisses as prohibitively expensive.
"""

import pytest

from repro.baselines.tmr import TMRProtector
from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection
from repro.experiments.common import make_hotspot_app
from repro.parallel.executor import (
    SerialExecutor,
    ThreadPoolTileExecutor,
    resolve_workers,
)
from repro.parallel.runner import TiledStencilRunner

TILE = (64, 64, 8)


def _runner(executor, protected=True):
    app = make_hotspot_app(TILE)
    grid = app.build_grid()
    if protected:
        runner = TiledStencilRunner.with_online_abft(
            grid, "layers", executor=executor, epsilon=1e-5
        )
    else:
        runner = TiledStencilRunner(grid, "layers", executor=executor)
    runner.run(2)  # warm-up
    return runner


def test_tiled_serial_step(benchmark):
    runner = _runner(SerialExecutor())
    benchmark.group = "parallel-step"
    benchmark.name = "per-layer-abft-serial"
    benchmark(lambda: runner.step())


def test_tiled_threads_step(benchmark):
    workers = resolve_workers(None)
    executor = ThreadPoolTileExecutor(workers=workers)
    runner = _runner(executor)
    benchmark.group = "parallel-step"
    benchmark.name = f"per-layer-abft-{workers}threads"
    try:
        benchmark(lambda: runner.step())
    finally:
        executor.shutdown()


def test_tiled_unprotected_step(benchmark):
    runner = _runner(SerialExecutor(), protected=False)
    benchmark.group = "parallel-step"
    benchmark.name = "per-layer-unprotected"
    benchmark(lambda: runner.step())


@pytest.mark.parametrize(
    "label, factory",
    [
        ("no-abft", lambda grid: NoProtection()),
        ("online-abft", lambda grid: OnlineABFT.for_grid(grid, epsilon=1e-5)),
        ("tmr", lambda grid: TMRProtector()),
    ],
)
def test_redundancy_cost_comparison(benchmark, label, factory):
    """ABFT vs TMR: the motivation of Sections 1-2 in one benchmark group."""
    app = make_hotspot_app(TILE)
    grid = app.build_grid()
    protector = factory(grid)
    protector.run(grid, 2)
    benchmark.group = "redundancy-comparison"
    benchmark.name = label
    benchmark(lambda: protector.step(grid))
