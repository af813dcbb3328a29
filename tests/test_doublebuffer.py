"""Property tests for the zero-copy halo pipeline.

The core contract: a grid advancing through its persistent buffer pair
(ghost refresh in place + ``sweep_into`` the back buffer + swap) must be
**bit-identical**, after any number of steps, to the old pipeline that
built a fresh ``pad_array`` copy every iteration — for every boundary
condition, stencil and dimensionality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_boundary_conditions
from repro.backends import get_backend
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.doublebuffer import DoubleBufferedGrid
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import (
    asymmetric_advection_2d,
    five_point_diffusion,
    seven_point_diffusion_3d,
)
from repro.stencil.shift import (
    interior_view,
    pad_array,
    padded_shape,
    refresh_ghosts,
)

BC_IDS = [bc.kind for bc in all_boundary_conditions()]


class TestRefreshGhosts:
    """``refresh_ghosts`` must reproduce ``pad_array`` bit for bit."""

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=BC_IDS)
    @pytest.mark.parametrize("radius", [1, 2, (1, 2)])
    def test_matches_pad_array_2d(self, rng, bc, radius):
        u = (rng.random((7, 9)) * 100.0).astype(np.float32)
        expected = pad_array(u, radius, bc)
        padded = np.full(padded_shape(u.shape, radius), np.nan, dtype=u.dtype)
        interior_view(padded, radius)[...] = u
        refresh_ghosts(padded, radius, bc)
        np.testing.assert_array_equal(padded, expected)

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=BC_IDS)
    def test_matches_pad_array_3d(self, rng, bc):
        u = (rng.random((5, 6, 4)) * 100.0).astype(np.float32)
        expected = pad_array(u, 1, bc)
        padded = np.full(padded_shape(u.shape, 1), np.nan, dtype=u.dtype)
        interior_view(padded, 1)[...] = u
        refresh_ghosts(padded, 1, bc)
        np.testing.assert_array_equal(padded, expected)

    def test_mixed_per_axis_boundaries(self, rng):
        """Corner ownership must match pad_array's axis-order semantics."""
        u = (rng.random((6, 5)) * 10.0).astype(np.float32)
        spec = BoundarySpec(
            (BoundaryCondition.periodic(), BoundaryCondition.constant(7.5))
        )
        expected = pad_array(u, 2, spec)
        padded = np.full(padded_shape(u.shape, 2), np.nan, dtype=u.dtype)
        interior_view(padded, 2)[...] = u
        refresh_ghosts(padded, 2, spec)
        np.testing.assert_array_equal(padded, expected)

    def test_stale_ghosts_overwritten(self, rng):
        """A refresh after interior mutation must forget the old halo."""
        u = (rng.random((6, 6)) * 10.0).astype(np.float32)
        bc = BoundaryCondition.clamp()
        padded = pad_array(u, 1, bc)
        interior_view(padded, 1)[...] += 3.0
        refresh_ghosts(padded, 1, bc)
        np.testing.assert_array_equal(
            padded, pad_array(interior_view(padded, 1).copy(), 1, bc)
        )

    def test_periodic_radius_exceeding_interior_falls_back(self, rng):
        # Degenerate wrap (ghost wider than interior): np.pad tiling
        # semantics must be preserved via the allocating fallback.
        u = (rng.random((2, 2)) * 10.0).astype(np.float32)
        expected = pad_array(u, 3, BoundaryCondition.periodic())
        padded = np.full(padded_shape(u.shape, 3), np.nan, dtype=u.dtype)
        interior_view(padded, 3)[...] = u
        refresh_ghosts(padded, 3, BoundaryCondition.periodic())
        np.testing.assert_array_equal(padded, expected)

    @given(
        nx=st.integers(min_value=3, max_value=12),
        ny=st.integers(min_value=3, max_value=12),
        kinds=st.tuples(
            st.sampled_from(["clamp", "periodic", "constant", "zero"]),
            st.sampled_from(["clamp", "periodic", "constant", "zero"]),
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40)
    def test_property_any_shape_any_boundary(self, nx, ny, kinds, seed):
        rng = np.random.default_rng(seed)
        u = (rng.random((nx, ny)) * 100.0).astype(np.float32)
        spec = BoundarySpec(
            tuple(
                BoundaryCondition.constant(2.5)
                if k == "constant"
                else BoundaryCondition(k)
                for k in kinds
            )
        )
        expected = pad_array(u, 1, spec)
        padded = np.full(padded_shape(u.shape, 1), np.nan, dtype=u.dtype)
        interior_view(padded, 1)[...] = u
        refresh_ghosts(padded, 1, spec)
        np.testing.assert_array_equal(padded, expected)

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=BC_IDS)
    def test_partial_refresh_matches_pad_of_extended_block(self, rng, bc):
        """``axes=`` treats the skipped axis as pre-extended halo storage.

        Refreshing only axis 1 over a buffer whose axis-0 ghost range
        was filled externally must equal padding axis 0 first (the halo
        exchange) and then axis 1 over the extended block — the
        distributed rank-buffer contract.
        """
        u = (rng.random((6, 5)) * 10.0).astype(np.float32)
        # pad_array on axis 0 stands in for the halo exchange (for the
        # periodic kind it produces exactly the wrapped strips a ring of
        # neighbours would send).
        extended = pad_array(u, (2, 0), bc)
        expected = pad_array(extended, (0, 1), bc)
        padded = np.full(padded_shape(u.shape, (2, 1)), np.nan, dtype=u.dtype)
        padded[:, 1:-1] = extended
        refresh_ghosts(padded, (2, 1), bc, axes=(1,))
        np.testing.assert_array_equal(padded, expected)
        # The externally filled axis-0 slabs were left untouched.
        np.testing.assert_array_equal(padded[0:2, 1:-1], extended[0:2])

    def test_refresh_axes_out_of_range_rejected(self, rng):
        padded = np.zeros((5, 5))
        with pytest.raises(ValueError, match="out of range"):
            refresh_ghosts(padded, 1, BoundaryCondition.clamp(), axes=(2,))


def _reference_run(u0, spec, bc, backend, steps):
    """N sweeps the old way: a fresh pad_array copy every iteration."""
    be = get_backend(backend)
    u = u0.copy()
    for _ in range(steps):
        padded = pad_array(u, spec.radius(), bc)
        u = be.sweep_padded(padded, spec, spec.radius(), u.shape)
    return u


class TestDoubleBufferedGridEquivalence:
    """N buffer-pair swaps == N fresh ``pad_array`` sweeps, bit for bit."""

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=BC_IDS)
    @pytest.mark.parametrize("backend", ["numpy", "fused"])
    @pytest.mark.parametrize("steps", [1, 4, 9])
    def test_2d(self, rng, bc, backend, steps):
        u0 = (rng.random((13, 11)) * 100.0).astype(np.float32)
        spec = five_point_diffusion(0.2)
        grid = Grid2D(u0, spec, bc, backend=backend)
        grid.run(steps)
        np.testing.assert_array_equal(
            grid.u, _reference_run(u0, spec, bc, backend, steps)
        )

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=BC_IDS)
    def test_2d_asymmetric_stencil(self, rng, bc):
        u0 = (rng.random((10, 12)) * 50.0).astype(np.float32)
        spec = asymmetric_advection_2d(0.3, 0.15)
        grid = Grid2D(u0, spec, bc)
        grid.run(5)
        np.testing.assert_array_equal(
            grid.u, _reference_run(u0, spec, bc, None, 5)
        )

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=BC_IDS)
    def test_3d(self, rng, bc):
        from repro.stencil.grid import Grid3D

        u0 = (rng.random((8, 7, 5)) * 100.0).astype(np.float32)
        spec = seven_point_diffusion_3d(0.1)
        grid = Grid3D(u0, spec, bc)
        grid.run(4)
        np.testing.assert_array_equal(
            grid.u, _reference_run(u0, spec, bc, None, 4)
        )

    def test_interior_mutation_between_steps_is_respected(self, rng):
        """Corrections/injections into grid.u must reach the next halo."""
        bc = BoundaryCondition.periodic()
        spec = five_point_diffusion(0.2)
        u0 = (rng.random((9, 9)) * 10.0).astype(np.float32)
        grid = Grid2D(u0, spec, bc)
        grid.step()
        grid.u[0, 0] += 5.0  # mutate a point whose value wraps into ghosts
        mutated = grid.u.copy()
        grid.step()
        np.testing.assert_array_equal(
            grid.u, _reference_run(mutated, spec, bc, None, 1)
        )


class TestDoubleBufferedGridUnit:
    def test_interior_is_view_of_front(self, rng):
        u = rng.random((5, 5)).astype(np.float32)
        pair = DoubleBufferedGrid(u, 1, BoundaryCondition.clamp())
        assert np.shares_memory(pair.interior, pair.front)
        np.testing.assert_array_equal(pair.interior, u)

    def test_swap_exchanges_buffers(self, rng):
        pair = DoubleBufferedGrid(
            rng.random((4, 4)).astype(np.float32), 1, BoundaryCondition.zero()
        )
        front, back = pair.front, pair.back
        pair.swap()
        assert pair.front is back and pair.back is front

    def test_restore_interior_shape_validated(self, rng):
        pair = DoubleBufferedGrid(
            rng.random((4, 4)).astype(np.float32), 1, BoundaryCondition.zero()
        )
        with pytest.raises(ValueError, match="interior shape"):
            pair.restore_interior(np.zeros((3, 3)))

    def test_refresh_returns_front(self, rng):
        pair = DoubleBufferedGrid(
            rng.random((4, 4)).astype(np.float32), 1, BoundaryCondition.clamp()
        )
        assert pair.refresh() is pair.front

    def test_shared_memory_roundtrip(self, rng):
        u = rng.random((6, 6)).astype(np.float32)
        pair = DoubleBufferedGrid(u, 1, BoundaryCondition.clamp())
        assert not pair.is_shared and pair.shm_names is None
        names = pair.share()
        try:
            assert pair.is_shared
            assert pair.shm_names == names
            np.testing.assert_array_equal(pair.interior, u)
            # share() is idempotent
            assert pair.share() == names
            # names follow the swap
            pair.swap()
            assert pair.shm_names == (names[1], names[0])
        finally:
            pair.close()
        assert not pair.is_shared
        # contents survive on the heap (swap above: interior is old back)
        pair.swap()
        np.testing.assert_array_equal(pair.interior, u)

    def test_nbytes(self, rng):
        pair = DoubleBufferedGrid(
            rng.random((4, 4)).astype(np.float32), 1, BoundaryCondition.zero()
        )
        assert pair.nbytes() == 2 * 6 * 6 * 4


class TestExternallyManagedAxes:
    """``external_axes``: ghost slabs owned by a halo exchange, not refresh."""

    def test_refresh_skips_external_axis_slabs(self, rng):
        u = rng.random((5, 4)).astype(np.float32)
        pair = DoubleBufferedGrid(
            u, 1, BoundaryCondition.clamp(), external_axes=(0,)
        )
        assert pair.refresh_axes == (1,)
        sentinel = 123.25
        pair.front[0, :] = sentinel  # the "ingested halo" row
        pair.front[-1, :] = sentinel
        pair.refresh()
        # External axis-0 rows kept the ingested values (corners
        # included: axis 1's refresh spans the halo rows like interior,
        # overwriting only the axis-1 ghost columns).
        np.testing.assert_array_equal(pair.front[0, 1:-1], sentinel)
        np.testing.assert_array_equal(pair.front[-1, 1:-1], sentinel)
        # Axis-1 slabs were refreshed from the clamp boundary — over the
        # full axis-0 extent, halo rows included.
        np.testing.assert_array_equal(pair.front[:, 0], pair.front[:, 1])
        np.testing.assert_array_equal(pair.front[:, -1], pair.front[:, -2])

    def test_no_external_axes_refreshes_everything(self, rng):
        pair = DoubleBufferedGrid(
            rng.random((5, 4)).astype(np.float32), 1, BoundaryCondition.clamp()
        )
        assert pair.external_axes == ()
        assert pair.refresh_axes is None

    def test_out_of_range_external_axis_rejected(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            DoubleBufferedGrid(
                rng.random((4, 4)).astype(np.float32),
                1,
                BoundaryCondition.clamp(),
                external_axes=(2,),
            )
