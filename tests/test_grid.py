"""Unit tests for the double-buffered grid containers."""

import numpy as np
import pytest

from conftest import CONTRACT_PATHS, on_path
from repro.backends import get_backend
from repro.checkpoint import Snapshot
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.kernels import five_point_diffusion, seven_point_diffusion_3d
from repro.stencil.reference import reference_sweep_padded
from repro.stencil.shift import pad_array
from repro.stencil.sweep import sweep


class TestGridConstruction:
    def test_basic_properties(self, small_grid_2d):
        g = small_grid_2d
        assert g.shape == (20, 16)
        assert g.nx == 20 and g.ny == 16
        assert g.ndim == 2
        assert g.size == 320
        assert g.iteration == 0
        assert g.previous is None
        assert g.previous_padded is None

    def test_initial_data_copied_by_default(self, rng):
        u0 = rng.random((4, 4)).astype(np.float32)
        g = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())
        u0[0, 0] = 999.0
        assert g.u[0, 0] != 999.0

    def test_non_float_input_promoted(self):
        u0 = np.arange(16).reshape(4, 4)  # integer array
        g = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())
        assert np.issubdtype(g.dtype, np.floating)

    def test_dimension_validation(self, rng):
        with pytest.raises(ValueError, match="2D domain"):
            Grid2D(rng.random((3, 3, 3)), seven_point_diffusion_3d(0.1),
                   BoundaryCondition.clamp())
        with pytest.raises(ValueError, match="3D domain"):
            Grid3D(rng.random((3, 3)), five_point_diffusion(0.2),
                   BoundaryCondition.clamp())

    def test_spec_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="stencil is"):
            Grid2D(rng.random((3, 3)), seven_point_diffusion_3d(0.1),
                   BoundaryCondition.clamp())

    def test_constant_shape_validated(self, rng):
        with pytest.raises(ValueError, match="constant term"):
            Grid2D(
                rng.random((4, 4)),
                five_point_diffusion(0.2),
                BoundaryCondition.clamp(),
                constant=np.zeros((2, 2)),
            )

    def test_repr(self, small_grid_2d):
        assert "Grid2D" in repr(small_grid_2d)


class TestGridStepping:
    def test_step_matches_sweep(self, small_grid_2d):
        g = small_grid_2d
        expected = sweep(g.u.copy(), g.spec, g.boundary)
        g.step()
        np.testing.assert_array_equal(g.u, expected)

    def test_step_advances_iteration_and_buffers(self, small_grid_2d):
        g = small_grid_2d
        before = g.u.copy()
        g.step()
        assert g.iteration == 1
        np.testing.assert_array_equal(g.previous, before)
        assert g.previous_padded is not None
        assert g.previous_padded.shape == (22, 18)

    def test_run_accumulates_iterations(self, small_grid_2d):
        small_grid_2d.run(5)
        assert small_grid_2d.iteration == 5

    def test_run_rejects_negative(self, small_grid_2d):
        with pytest.raises(ValueError):
            small_grid_2d.run(-1)

    def test_constant_term_applied_every_step(self, rng):
        u0 = np.zeros((6, 6), dtype=np.float32)
        constant = np.full((6, 6), 1.0, dtype=np.float32)
        g = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp(),
                   constant=constant)
        g.step()
        np.testing.assert_allclose(g.u, 1.0)
        g.step()
        np.testing.assert_allclose(g.u, 2.0, rtol=1e-6)

    @pytest.mark.parametrize("path", CONTRACT_PATHS)
    def test_caller_updating_its_constant_changes_no_backend(self, rng, path):
        """The grid keeps its own read-only constant: after the caller
        doubles its array in place, every path (``fused`` and
        ``fused-interpreted`` read a cached padded copy of it, ``base``
        reads the grid's own array) still steps with the original."""
        shape = (16, 12, 6)
        u0 = rng.random(shape).astype(np.float32)
        constant = rng.random(shape).astype(np.float32)
        original = constant.copy()
        spec, bc = seven_point_diffusion_3d(0.1), BoundaryCondition.clamp()
        g = Grid3D(u0, spec, bc, constant=constant)
        want = u0
        with on_path(path):
            for doubled in (False, True):
                if doubled:
                    constant *= 2.0
                g.step()
                want = reference_sweep_padded(
                    pad_array(want, 1, bc), spec, 1, shape, constant=original
                )
                np.testing.assert_array_equal(g.u, want)
        with pytest.raises(ValueError, match="read-only"):
            g.constant[0, 0, 0] = 1.0

    def test_read_only_owned_constant_is_not_copied(self, rng):
        constant = rng.random((6, 6)).astype(np.float32)
        constant.flags.writeable = False
        u0 = np.zeros((6, 6), dtype=np.float32)
        g = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp(),
                   constant=constant)
        assert g.constant is constant
        assert g.copy().constant is constant
        # A read-only view of a writeable array is copied.
        view = rng.random((6, 6)).astype(np.float32)[...]
        view.flags.writeable = False
        g = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp(),
                   constant=view)
        assert g.constant is not view and not g.constant.flags.writeable

    def test_commit_after_external_sweep(self, small_grid_2d):
        """The tiled runner's step: sweep the refreshed front buffer into
        the back buffer outside the grid, then commit the swap."""
        g = small_grid_2d
        u0 = g.u.copy()
        src = g.padded_current()
        get_backend().sweep_into(
            src, g.back_padded, g.spec, g.radius, g.shape, plan=g.buffers.plan
        )
        g._commit(src)
        np.testing.assert_array_equal(g.u, sweep(u0, g.spec, g.boundary))
        np.testing.assert_array_equal(g.previous, u0)
        assert g.previous_padded is src
        assert g.iteration == 1

    def test_3d_step(self, small_grid_3d):
        g = small_grid_3d
        g.step()
        assert g.iteration == 1
        assert g.u.shape == (12, 10, 4)
        assert g.layer(2).shape == (12, 10)


class TestSnapshotRestore:
    def test_snapshot_is_deep_copy(self, small_grid_2d):
        snap = small_grid_2d.snapshot()
        small_grid_2d.u[0, 0] = -1.0
        assert snap.interior[0, 0] != -1.0

    def test_restore_round_trip(self, small_grid_2d):
        g = small_grid_2d
        snap = g.snapshot()
        original = g.u.copy()
        g.run(4)
        g.restore(snap)
        assert g.iteration == 0
        np.testing.assert_array_equal(g.u, original)
        assert g.previous is None

    def test_restore_shape_mismatch(self, small_grid_2d, rng):
        bad = Snapshot(iteration=0, interior=rng.random((2, 2)))
        with pytest.raises(ValueError, match="snapshot shape"):
            small_grid_2d.restore(bad)

    def test_copy_is_independent(self, small_grid_2d):
        clone = small_grid_2d.copy()
        clone.step()
        assert small_grid_2d.iteration == 0
        assert clone.iteration == 1
