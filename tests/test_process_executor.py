"""Tests for the executors and the tiled runner on a thread pool.

The process pool (the campaign engine's executor) must map picklable
work like the serial executor; executor and worker selection must
follow the default chains.  Tiles run on the serial or thread executor
only: the thread pipeline must be indistinguishable from the serial
one — bit-identical domains and identical detection/correction counts,
including under fault injection, where each tile's checksum is reduced
after the hook runs — and the runner must refuse a process executor,
passed in or resolved, with a message naming the cause.

CI runs this file with ``REPRO_TEST_WORKERS=2`` to pin the pool width.
"""

import os

import numpy as np
import pytest

from repro.parallel.executor import (
    ProcessPoolTileExecutor,
    SerialExecutor,
    ThreadPoolTileExecutor,
    default_executor_kind,
    make_executor,
    resolve_workers,
    set_default_executor,
    set_default_workers,
)
from repro.parallel.runner import TiledStencilRunner
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.kernels import five_point_diffusion, seven_point_diffusion_3d

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def _double(x):
    return x * 2


def _grid_2d(rng, constant=False, size=(32, 24)):
    u0 = (rng.random(size) * 100.0).astype(np.float32)
    const = (
        (rng.random(size) * 0.1).astype(np.float32) if constant else None
    )
    return Grid2D(
        u0, five_point_diffusion(0.2), BoundaryCondition.clamp(), constant=const
    )


class TestProcessPoolExecutor:
    def test_map_matches_serial(self):
        items = list(range(20))
        with ProcessPoolTileExecutor(workers=WORKERS) as pool:
            result = pool.map(_double, items)
        assert result == [x * 2 for x in items]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolTileExecutor(workers=0)

    def test_shutdown_idempotent(self):
        pool = ProcessPoolTileExecutor(workers=1)
        pool.map(_double, [1])
        pool.shutdown()
        pool.shutdown()

    def test_kind_attribute(self):
        assert ProcessPoolTileExecutor(workers=1).kind == "process"
        assert ThreadPoolTileExecutor(workers=1).kind == "threads"
        assert SerialExecutor().kind == "serial"


class TestMakeExecutorAndDefaults:
    def test_make_process(self):
        ex = make_executor("process", workers=WORKERS)
        assert isinstance(ex, ProcessPoolTileExecutor)
        assert ex.workers == WORKERS
        ex.shutdown()

    def test_make_rejects_alias_spellings(self):
        with pytest.raises(ValueError, match="expected one of"):
            make_executor("processes")

    def test_default_chain(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert default_executor_kind() == "serial"
        assert isinstance(make_executor(None), SerialExecutor)
        monkeypatch.setenv("REPRO_EXECUTOR", "threads")
        assert default_executor_kind() == "threads"
        try:
            set_default_executor("process")
            assert default_executor_kind() == "process"
        finally:
            set_default_executor(None)
        assert default_executor_kind() == "threads"

    def test_set_default_validates(self):
        with pytest.raises(ValueError, match="unknown executor"):
            set_default_executor("mpi")

    def test_runner_consults_default_chain(self, monkeypatch):
        """--executor/REPRO_EXECUTOR must reach runners built without one."""
        monkeypatch.setenv("REPRO_EXECUTOR", "threads")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        rng = np.random.default_rng(42)
        runner = TiledStencilRunner(_grid_2d(rng), (2, 2))
        try:
            assert isinstance(runner.executor, ThreadPoolTileExecutor)
            assert runner.executor.workers == 2
            runner.step()
        finally:
            runner.shutdown()
        # a runner-built executor IS shut down by runner.shutdown()
        assert runner.executor._pool is None

    def test_runner_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        rng = np.random.default_rng(42)
        runner = TiledStencilRunner(_grid_2d(rng), (2, 2))
        assert isinstance(runner.executor, SerialExecutor)


class TestResolveWorkers:
    """The single worker-resolution helper (executors, runners, benches)."""

    def test_explicit_passthrough(self):
        assert resolve_workers(3) == 3

    def test_none_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == max(1, os.cpu_count() or 1)

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        try:
            set_default_workers(3)
            assert resolve_workers(None) == 3
        finally:
            set_default_workers(None)
        assert resolve_workers(None) == 5

    def test_override_validated(self):
        with pytest.raises(ValueError):
            set_default_workers(0)

    def test_explicit_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_workers(0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_workers(-3)

    def test_malformed_env_gets_clear_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "four")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_every_executor_resolves_identically(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert ThreadPoolTileExecutor().workers == 2
        assert ProcessPoolTileExecutor().workers == 2
        assert make_executor("threads").workers == 2


class TestThreadRunnerEquivalence:
    def _run_pair(self, seed, inject=None, steps=5, **grid_kwargs):
        # Fresh generator per build so both grids see identical data.
        serial = TiledStencilRunner.with_online_abft(
            _grid_2d(np.random.default_rng(seed), **grid_kwargs), (2, 2),
            executor=SerialExecutor(), epsilon=1e-5,
        )
        serial.run(steps, inject=inject)
        with ThreadPoolTileExecutor(workers=WORKERS) as pool:
            threaded = TiledStencilRunner.with_online_abft(
                _grid_2d(np.random.default_rng(seed), **grid_kwargs), (2, 2),
                executor=pool, epsilon=1e-5,
            )
            threaded.run(steps, inject=inject)
            np.testing.assert_array_equal(serial.grid.u, threaded.grid.u)
            return serial, threaded

    def test_fault_free_bitwise_identical(self):
        serial, threaded = self._run_pair(seed=11)
        assert threaded.total_detected() == serial.total_detected() == 0

    def test_constant_term(self):
        self._run_pair(seed=12, constant=True)

    def test_injection_checksums_identical_to_serial(self):
        def inject(grid, iteration):
            if iteration == 2:
                grid.u[10, 10] += 2048.0

        serial, threaded = self._run_pair(seed=13, inject=inject, steps=4)
        assert serial.total_detected() == threaded.total_detected() == 1
        assert serial.total_corrected() == threaded.total_corrected() == 1

    def test_3d_layers_decomposition(self):
        rng = np.random.default_rng(14)
        u0 = (rng.random((16, 14, 4)) * 100.0).astype(np.float32)

        def build():
            return Grid3D(
                u0, seven_point_diffusion_3d(0.1), BoundaryCondition.clamp()
            )

        serial = TiledStencilRunner.with_online_abft(
            build(), "layers", executor=SerialExecutor(), epsilon=1e-5
        )
        serial.run(3)
        with ThreadPoolTileExecutor(workers=WORKERS) as pool:
            with TiledStencilRunner.with_online_abft(
                build(), "layers", executor=pool, epsilon=1e-5
            ) as threaded:
                threaded.run(3)
                np.testing.assert_array_equal(serial.grid.u, threaded.grid.u)

    def test_unprotected_tiles(self):
        rng = np.random.default_rng(15)
        u0 = (rng.random((20, 20)) * 10.0).astype(np.float32)
        ref = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.periodic())
        ref.run(4)
        grid = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.periodic())
        with ThreadPoolTileExecutor(workers=WORKERS) as pool:
            with TiledStencilRunner(grid, (2, 2), executor=pool) as runner:
                runner.run(4)
                np.testing.assert_array_equal(grid.u, ref.u)

    def test_thread_executor_also_bitwise_identical(self):
        rng = np.random.default_rng(16)
        serial = TiledStencilRunner.with_online_abft(
            _grid_2d(rng), (2, 2), executor=SerialExecutor(), epsilon=1e-5
        )
        serial.run(5)
        rng = np.random.default_rng(16)
        with ThreadPoolTileExecutor(workers=WORKERS) as pool:
            threaded = TiledStencilRunner.with_online_abft(
                _grid_2d(rng), (2, 2), executor=pool, epsilon=1e-5
            )
            threaded.run(5)
            np.testing.assert_array_equal(serial.grid.u, threaded.grid.u)


class TestMoreTilesThanWorkers:
    """A 3x3 tiling on a narrower pool: workers take several tiles each."""

    def _run_pair(self, seed, inject=None):
        serial = TiledStencilRunner.with_online_abft(
            _grid_2d(np.random.default_rng(seed), size=(33, 27)), (3, 3),
            executor=SerialExecutor(), epsilon=1e-5,
        )
        serial.run(4, inject=inject)
        with ThreadPoolTileExecutor(workers=WORKERS) as pool:
            threaded = TiledStencilRunner.with_online_abft(
                _grid_2d(np.random.default_rng(seed), size=(33, 27)), (3, 3),
                executor=pool, epsilon=1e-5,
            )
            threaded.run(4, inject=inject)
            np.testing.assert_array_equal(serial.grid.u, threaded.grid.u)
            return serial, threaded

    def test_more_tiles_than_workers_matches_serial(self):
        """Per-tile order and serial semantics hold bit for bit."""
        serial, threaded = self._run_pair(seed=21)
        assert threaded.total_detected() == serial.total_detected() == 0

    def test_injection_with_more_tiles_than_workers(self):
        def inject(grid, iteration):
            if iteration == 2:
                grid.u[20, 20] += 1024.0

        serial, threaded = self._run_pair(seed=22, inject=inject)
        assert threaded.total_detected() == serial.total_detected() == 1
        assert threaded.total_corrected() == serial.total_corrected() == 1


class TestRunnerRefusesProcesses:
    """Tiles are closures over the grid's buffer pair: no process runs them."""

    def test_process_executor_passed_in(self):
        rng = np.random.default_rng(23)
        with ProcessPoolTileExecutor(workers=1) as pool:
            with pytest.raises(ValueError, match="process executor") as exc:
                TiledStencilRunner(_grid_2d(rng), (2, 2), executor=pool)
            assert "buffer pair" in str(exc.value)
            assert pool._pool is None  # no worker was started

    def test_process_executor_from_default_chain(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError, match="process executor") as exc:
            TiledStencilRunner.with_online_abft(_grid_2d(rng), (2, 2))
        assert "REPRO_EXECUTOR" in str(exc.value)
