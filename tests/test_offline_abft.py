"""Unit and behavioural tests for the offline ABFT protector."""

import numpy as np
import pytest

from repro.core.offline import OfflineABFT
from repro.core.protector import NoProtection
from repro.faults.injector import FaultInjector, FaultPlan
from repro.metrics.accuracy import l2_error
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import asymmetric_advection_2d, five_point_diffusion


def _make_grid(rng, shape=(22, 18), spec=None, bc=None):
    spec = spec if spec is not None else five_point_diffusion(0.2)
    bc = bc if bc is not None else BoundaryCondition.clamp()
    u0 = (rng.random(shape) * 100).astype(np.float32)
    return Grid2D(u0, spec, bc)


def _reference(grid, iterations):
    clone = grid.copy()
    clone.run(iterations)
    return clone.u.copy()


class TestOfflineConstruction:
    def test_for_grid(self, small_grid_2d):
        p = OfflineABFT.for_grid(small_grid_2d, period=8)
        assert p.period == 8
        assert p.shape == small_grid_2d.shape
        assert p.name == "offline-abft"

    def test_invalid_period(self, small_grid_2d):
        with pytest.raises(ValueError, match="period"):
            OfflineABFT.for_grid(small_grid_2d, period=0)

    def test_grid_shape_mismatch(self, rng, small_grid_2d):
        other = _make_grid(rng, shape=(8, 8))
        p = OfflineABFT.for_grid(small_grid_2d)
        with pytest.raises(ValueError, match="grid shape"):
            p.step(other)


class TestOfflineErrorFree:
    def test_no_false_positives_and_identical_result(self, rng):
        grid = _make_grid(rng)
        clone = grid.copy()
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=8)
        run = p.run(grid, 33)  # not a multiple of the period: finalize() checks the tail
        NoProtection().run(clone, 33)
        assert run.total_detected == 0
        assert run.total_rollbacks == 0
        np.testing.assert_array_equal(grid.u, clone.u)

    def test_detection_only_every_period(self, rng):
        grid = _make_grid(rng)
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=4)
        run = p.run(grid, 12)
        performed = [s for s in run.steps if s.detection_performed]
        assert len(performed) == 3
        assert [s.iteration for s in performed] == [4, 8, 12]

    def test_finalize_checks_partial_window(self, rng):
        grid = _make_grid(rng)
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=10)
        run = p.run(grid, 7)
        performed = [s for s in run.steps if s.detection_performed]
        assert len(performed) == 1  # only the finalize() check

    def test_finalize_noop_when_window_empty(self, rng):
        grid = _make_grid(rng)
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=5)
        p.run(grid, 10)
        assert p.finalize(grid) is None

    def test_no_false_positives_asymmetric_stencil(self, rng):
        grid = _make_grid(rng, spec=asymmetric_advection_2d(0.3, 0.2))
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=8)
        assert p.run(grid, 24).total_detected == 0

    def test_simplified_interpolation_false_positives_for_asymmetric(self, rng):
        # Without the recorded strips (the paper's Eqs. 8-9) an asymmetric
        # stencil with clamp boundaries is mispredicted -> false positives.
        grid = _make_grid(rng, spec=asymmetric_advection_2d(0.3, 0.2))
        p = OfflineABFT.for_grid(
            grid, epsilon=1e-5, period=8, track_strips=False
        )
        run = p.run(grid, 16)
        assert run.total_detected > 0


class TestOfflineWithFault:
    def test_detects_and_erases_fault_via_rollback(self, rng):
        grid = _make_grid(rng)
        ref = _reference(grid, 32)
        injector = FaultInjector([FaultPlan(iteration=13, index=(9, 6), bit=27)])
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=8)
        run = p.run(grid, 32, inject=injector)
        assert injector.fired_count == 1
        assert run.total_detected >= 1
        assert run.total_rollbacks >= 1
        # Rollback + recomputation erases the error completely.
        assert l2_error(ref, grid.u) == pytest.approx(0.0, abs=1e-12)

    def test_rollback_recomputes_exactly_one_window(self, rng):
        grid = _make_grid(rng)
        injector = FaultInjector([FaultPlan(iteration=5, index=(4, 4), bit=28)])
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=8)
        run = p.run(grid, 16, inject=injector)
        assert run.total_rollbacks == 1
        assert run.total_recomputed_iterations == 8

    def test_fault_in_final_partial_window(self, rng):
        grid = _make_grid(rng)
        ref = _reference(grid, 19)
        injector = FaultInjector([FaultPlan(iteration=18, index=(2, 2), bit=27)])
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=8)
        run = p.run(grid, 19, inject=injector)
        assert run.total_detected >= 1
        assert l2_error(ref, grid.u) == pytest.approx(0.0, abs=1e-12)

    def test_small_flip_below_threshold_goes_unnoticed(self, rng):
        grid = _make_grid(rng)
        injector = FaultInjector([FaultPlan(iteration=3, index=(1, 1), bit=1)])
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=4)
        run = p.run(grid, 8, inject=injector)
        assert run.total_detected == 0
        assert run.total_rollbacks == 0

    def test_checkpoint_retaken_and_rollback_counted(self, rng):
        grid = _make_grid(rng)
        injector = FaultInjector([FaultPlan(iteration=6, index=(3, 3), bit=27)])
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=4)
        p.run(grid, 12, inject=injector)
        assert p.checkpoint.iteration == 12
        assert p.total_rollbacks == 1

    def test_persistent_fault_bounded_by_max_attempts(self, rng):
        # A hook that corrupts the same point on every iteration can never
        # be repaired by recomputation; the protector must give up after
        # three rollbacks of the window instead of livelocking.
        grid = _make_grid(rng)

        def persistent(g, iteration):
            g.u[5, 5] += 1e4

        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=4)
        run = p.run(grid, 4, inject=persistent)
        assert run.total_detected >= 1
        assert run.total_uncorrected >= 1
        assert p.total_rollbacks == 3

    def test_3d_fault_erased(self, small_grid_3d):
        grid = small_grid_3d
        ref = _reference(grid, 16)
        injector = FaultInjector([FaultPlan(iteration=7, index=(5, 3, 1), bit=27)])
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=8)
        run = p.run(grid, 16, inject=injector)
        assert run.total_detected >= 1
        assert l2_error(ref, grid.u) == pytest.approx(0.0, abs=1e-12)

    def test_reset(self, rng):
        grid = _make_grid(rng)
        p = OfflineABFT.for_grid(grid, epsilon=1e-5, period=4)
        p.run(grid, 8, inject=FaultInjector([FaultPlan(iteration=2, index=(0, 0), bit=28)]))
        assert p.total_detections >= 1
        p.reset()
        assert p.total_detections == 0
        assert p.total_rollbacks == 0
        assert p.checkpoint is None
