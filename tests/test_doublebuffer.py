"""Property tests for the zero-copy halo pipeline.

The core contract: a grid advancing through its persistent buffer pair
(ghost refresh in place + ``sweep_into`` the back buffer + swap) must be
**bit-identical**, after any number of steps, to the old pipeline that
built a fresh ``pad_array`` copy every iteration — for every boundary
condition, stencil and dimensionality.
"""

import copy
import gc
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CONTRACT_PATHS,
    COMPUTE_PATHS,
    all_boundary_conditions,
    on_path,
    step_plan,
)
from repro.backends import FoldPlan, get_backend, native
from repro.core import interpolation
from repro.core.interpolation import (
    interpolate_checksum_padded,
    interpolate_checksum_reduced,
)
from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.campaign import CampaignConfig
from repro.faults.engine import CampaignEngine
from repro.stencil import shift
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.doublebuffer import DoubleBufferedGrid
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.kernels import (
    asymmetric_advection_2d,
    five_point_diffusion,
    seven_point_diffusion_3d,
)
from repro.stencil.reference import reference_sweep_padded
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


def _reference_run(u0, spec, bc, steps):
    """N reference sweeps, each of a fresh pad_array copy."""
    u = u0.copy()
    for _ in range(steps):
        padded = pad_array(u, spec.radius(), bc)
        u = reference_sweep_padded(padded, spec, spec.radius(), u.shape)
    return u


class TestDoubleBufferedGridEquivalence:
    """N buffer-pair swaps == N fresh ``pad_array`` sweeps, bit for bit."""

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=BC_IDS)
    @pytest.mark.parametrize("backend", COMPUTE_PATHS, indirect=True)
    @pytest.mark.parametrize("steps", [1, 4, 9])
    def test_2d(self, rng, bc, backend, steps):
        u0 = (rng.random((13, 11)) * 100.0).astype(np.float32)
        spec = five_point_diffusion(0.2)
        grid = Grid2D(u0, spec, bc)
        grid.run(steps)
        np.testing.assert_array_equal(
            grid.u, _reference_run(u0, spec, bc, steps)
        )

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=BC_IDS)
    def test_2d_asymmetric_stencil(self, rng, bc):
        u0 = (rng.random((10, 12)) * 50.0).astype(np.float32)
        spec = asymmetric_advection_2d(0.3, 0.15)
        grid = Grid2D(u0, spec, bc)
        grid.run(5)
        np.testing.assert_array_equal(
            grid.u, _reference_run(u0, spec, bc, 5)
        )

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=BC_IDS)
    def test_3d(self, rng, bc):
        from repro.stencil.grid import Grid3D

        u0 = (rng.random((8, 7, 5)) * 100.0).astype(np.float32)
        spec = seven_point_diffusion_3d(0.1)
        grid = Grid3D(u0, spec, bc)
        grid.run(4)
        np.testing.assert_array_equal(
            grid.u, _reference_run(u0, spec, bc, 4)
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
            grid.u, _reference_run(mutated, spec, bc, 1)
        )


#: The operator of the unit tests' pairs (every pair is built with one).
_SPEC = five_point_diffusion(0.2)


class TestDoubleBufferedGridUnit:
    def test_interior_is_view_of_front(self, rng):
        u = rng.random((5, 5)).astype(np.float32)
        pair = DoubleBufferedGrid(u, 1, BoundaryCondition.clamp(), _SPEC)
        assert np.shares_memory(pair.interior, pair.front)
        np.testing.assert_array_equal(pair.interior, u)

    def test_swap_exchanges_buffers(self, rng):
        pair = DoubleBufferedGrid(
            rng.random((4, 4)).astype(np.float32), 1, BoundaryCondition.zero(),
            _SPEC,
        )
        front, back = pair.front, pair.back
        pair.swap()
        assert pair.front is back and pair.back is front

    def test_restore_interior_shape_validated(self, rng):
        pair = DoubleBufferedGrid(
            rng.random((4, 4)).astype(np.float32), 1, BoundaryCondition.zero(),
            _SPEC,
        )
        with pytest.raises(ValueError, match="interior shape"):
            pair.restore_interior(np.zeros((3, 3)))

    def test_refresh_returns_front(self, rng):
        pair = DoubleBufferedGrid(
            rng.random((4, 4)).astype(np.float32), 1, BoundaryCondition.clamp(),
            _SPEC,
        )
        assert pair.refresh() is pair.front

    def test_nbytes(self, rng):
        pair = DoubleBufferedGrid(
            rng.random((4, 4)).astype(np.float32), 1, BoundaryCondition.zero(),
            _SPEC,
        )
        assert pair.nbytes() == 2 * 6 * 6 * 4


class TestExternallyManagedAxes:
    """``external_axes``: ghost slabs owned by a halo exchange, not refresh."""

    def test_refresh_skips_external_axis_slabs(self, rng):
        u = rng.random((5, 4)).astype(np.float32)
        pair = DoubleBufferedGrid(
            u, 1, BoundaryCondition.clamp(), _SPEC, external_axes=(0,)
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
            rng.random((5, 4)).astype(np.float32), 1, BoundaryCondition.clamp(),
            _SPEC,
        )
        assert pair.external_axes == ()
        assert pair.refresh_axes is None

    def test_out_of_range_external_axis_rejected(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            DoubleBufferedGrid(
                rng.random((4, 4)).astype(np.float32),
                1,
                BoundaryCondition.clamp(),
                _SPEC,
                external_axes=(2,),
            )


# --------------------------------------------------------------------------
# the pair's step plan
# --------------------------------------------------------------------------

def _hotspot_like_grid(rng):
    """A 3D grid with a constant term, clamp on every axis."""
    u0 = (rng.random((9, 7, 4)) * 100.0).astype(np.float32)
    const = (rng.random((9, 7, 4)) * 0.1).astype(np.float32)
    return Grid3D(u0, seven_point_diffusion_3d(0.1), BoundaryCondition.clamp(),
                  constant=const)


def _reference_steps(grid, u, steps):
    for _ in range(steps):
        padded = pad_array(u, grid.radius, grid.boundary)
        u = reference_sweep_padded(
            padded, grid.spec, grid.radius, grid.shape, constant=grid.constant
        )
    return u


class TestPlanHoldsGeometryOnly:
    """A grid's plan fixes its layout, not its path: every step resolves
    the backend and the native library again."""

    @pytest.mark.parametrize("path", ["fused-interpreted", "base"])
    def test_grid_stepped_earlier_takes_the_entered_path(self, rng, path):
        """Stepped once on the default path, a grid steps next on the
        NumPy code or the base-class routes, as entered, then back."""
        grid = _hotspot_like_grid(rng)
        u0 = grid.u.copy()
        lib = native.library()
        table = {} if lib is None else lib.sweep
        spies = {key: mock.Mock(wraps=fn) for key, fn in table.items()}

        def compiled_calls():
            return sum(spy.call_count for spy in spies.values())

        with mock.patch.dict(table, spies):
            grid.step()
            before = compiled_calls()
            with on_path(path):
                backend = get_backend()
                with mock.patch.object(
                    backend, "sweep_padded", wraps=backend.sweep_padded
                ) as reference_sweep:
                    grid.step()
            assert compiled_calls() == before
            if path == "base":
                assert reference_sweep.call_count == 1
            grid.step()
        if lib is not None:
            assert (before, compiled_calls()) == (1, 2)
        np.testing.assert_array_equal(grid.u, _reference_steps(grid, u0, 3))


def _clear_every_plan_cache():
    shift._refresh_plans.clear()
    interpolation._plans.clear()
    get_backend()._cache().clear()


def _overflow_every_plan_cache(rng):
    """More distinct layouts than any plan cache holds, each stepped
    through a plan of its own."""
    spec = seven_point_diffusion_3d(0.1)
    bc = BoundaryCondition.clamp()
    for n in range(2, 3 + shift._MAX_CACHED_REFRESH_PLANS):
        shape = (n, 3, 2)
        src = rng.random(padded_shape(shape, 1)).astype(np.float32)
        dst = np.empty_like(src)
        const = rng.random(shape).astype(np.float32)
        get_backend().step_into(
            src, dst, step_plan(src, dst, spec, 1, shape, bc, const)
        )
        cs = src[1:-1, 1:-1, 1:-1].sum(axis=0, dtype=np.float64)
        interpolate_checksum_padded(cs, src, spec, 1, shape, 0, boundary=None)
        interpolate_checksum_reduced(cs, spec, bc, 0, n)


class TestPlansOutliveTheirCaches:
    """A plan keeps every array whose address it hands to compiled code,
    so emptying the caches it was built from, and reusing the freed
    memory, changes no bit of what it steps."""

    @pytest.mark.parametrize("churn", ["clear", "overflow"])
    def test_grids_protectors_and_campaigns(self, rng, churn):
        def disturb():
            if churn == "clear":
                _clear_every_plan_cache()
            else:
                _overflow_every_plan_cache(rng)
            gc.collect()
            # Hand the freed memory out again, filled with junk.
            return [np.full(n, np.nan) for n in (4, 16, 64, 256, 1024) * 20]

        grid = _hotspot_like_grid(rng)
        twin = grid.copy()
        offline = OfflineABFT.for_grid(grid, period=3)
        twin_offline = OfflineABFT.for_grid(twin, period=3)
        for _ in range(7):
            junk = disturb()
            report = offline.step(grid)
            del junk
            want = twin_offline.step(twin)
            assert report == want
            _assert_bits_equal(grid.u, twin.u)
        assert offline.total_rollbacks == 0

        online = OnlineABFT.for_grid(grid)
        twin_online = OnlineABFT.for_grid(twin)
        for _ in range(4):
            junk = disturb()
            report = online.step(grid)
            del junk
            assert report == twin_online.step(twin)
            _assert_bits_equal(grid.u, twin.u)
            _assert_bits_equal(online._prev_cs[0], twin_online._prev_cs[0])

        app = make_hotspot_app((10, 8, 3))
        reference = app.reference_solution(6)
        config = CampaignConfig(iterations=6, repetitions=5, seed=11)
        with CampaignEngine(executor="serial", batch_size=3) as engine:
            for method in ("online-abft", "offline-abft"):
                runs = []
                for _ in range(2):
                    junk = disturb()
                    result = engine.run(
                        app.build_grid, make_protector_factory(method), config,
                        reference=reference,
                    )
                    del junk
                    runs.append([
                        (r.arithmetic_error, r.errors_detected, r.errors_corrected)
                        for r in result.records
                    ])
                assert runs[0] == runs[1]

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copied_grids_step_their_own_buffers(self, rng, how):
        """A copied or unpickled grid steps like the original, after the
        original and its memory are gone."""
        grid = _hotspot_like_grid(rng)
        grid.step()
        twin = grid.copy()
        if how == "deepcopy":
            clone = copy.deepcopy(grid)
        else:
            clone = pickle.loads(pickle.dumps(grid))
        del grid
        gc.collect()
        junk = [np.full(n, np.nan) for n in (64, 256, 1024) * 50]
        for _ in range(3):
            clone.step()
            twin.step()
        del junk
        _assert_bits_equal(clone.u, twin.u)


def _assert_bits_equal(a, b):
    assert a.dtype == b.dtype
    bits = np.uint32 if a.dtype.itemsize == 4 else np.uint64
    np.testing.assert_array_equal(
        np.ascontiguousarray(a).view(bits), np.ascontiguousarray(b).view(bits)
    )


# --------------------------------------------------------------------------
# bound checksums and the online protector's binding
# --------------------------------------------------------------------------

@pytest.mark.parametrize("path", CONTRACT_PATHS)
@settings(max_examples=30, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 9), st.integers(1, 7), st.integers(1, 5)),
    radius=st.integers(0, 2),
    dtype=st.sampled_from([np.float32, np.float64]),
    cs_dtype=st.sampled_from([None, np.dtype(np.float64)]),
    runs=st.sampled_from([0, 3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_fold_plan_bit_identical_to_unbound_checksum(
    path, shape, radius, dtype, cs_dtype, runs, seed
):
    """A checksum given a :class:`FoldPlan` of its view, as a grid's
    protector or a stacked batch binds it, returns the bits of the same
    call without one, on every path, for a 3D padded interior and for a
    stacked pair's interior with its last axis and run axis merged
    (``runs``); views the plan does not hold, other axes and other dtype
    objects run as without a plan."""
    rng = np.random.default_rng(seed)
    pshape = padded_shape(shape, radius) + ((runs,) if runs else ())
    buffers = [rng.standard_normal(pshape).astype(dtype) for _ in range(2)]
    views = [interior_view(b, (radius,) * 3 + ((0,) if runs else ())) for b in buffers]
    if runs:
        views = [v.reshape(v.shape[:-2] + (-1,)) for v in views]
    plan = FoldPlan(views, cs_dtype)
    with on_path(path):
        backend = get_backend()
        for view in views + [views[0][:, ::-1]]:
            want = view.sum(axis=0, dtype=cs_dtype)
            first = backend.checksum(view, 0, dtype=cs_dtype, plan=plan)
            first_bits = first.copy()
            again = backend.checksum(view, 0, dtype=cs_dtype, plan=plan)
            first[...] = np.nan  # a returned checksum is the caller's own
            for got in (first_bits, again):
                _assert_bits_equal(got, backend.checksum(view, 0, dtype=cs_dtype))
                np.testing.assert_array_equal(got, want)
            _assert_bits_equal(
                backend.checksum(view, 1, dtype=cs_dtype, plan=plan),
                backend.checksum(view, 1, dtype=cs_dtype),
            )
        other = None if cs_dtype is not None else np.dtype(dtype)
        _assert_bits_equal(
            backend.checksum(views[1], 0, dtype=other, plan=plan),
            backend.checksum(views[1], 0, dtype=other),
        )


def _bump(grid, iteration):
    """A fault the column checksum flags: one point raised by 50."""
    if iteration == 3:
        grid.u[4, 2, 1] += 50.0


@pytest.mark.parametrize("path", CONTRACT_PATHS)
def test_bound_online_protector_bit_identical_to_unbound(rng, path):
    """``OnlineABFT.step`` binds its grid's pair (the fold of its two
    interiors, the interpolation over its buffers); a twin verified by
    ``process`` without the pair's plan makes the same reports, the
    same correction and the same stored checksums, bit for bit.  Every
    other step calls ``process`` with the plan and no boundary, so the
    binding follows the boundary it is given."""
    grid = _hotspot_like_grid(rng)
    twin = grid.copy()
    bound = OnlineABFT.for_grid(grid)
    loose = OnlineABFT.for_grid(twin)
    with on_path(path):
        loose.step(twin)  # seeds the checksum, as bound's first step does
        bound.step(grid)
        for i in range(6):
            boundary = twin.boundary if i % 2 else None
            if i % 2:
                report = bound.step(grid, inject=_bump)
            else:
                grid.step()
                _bump(grid, grid.iteration)
                report = bound.process(
                    grid.u, grid.previous_padded, grid.iteration,
                    plan=grid.buffers.plan,
                )
            twin.step()
            _bump(twin, twin.iteration)
            want = loose.process(
                twin.u, twin.previous_padded, twin.iteration, boundary=boundary
            )
            assert report == want
            _assert_bits_equal(grid.u, twin.u)
            _assert_bits_equal(bound._prev_cs[0], loose._prev_cs[0])
    assert bound.total_corrections == loose.total_corrections == 1
    assert bound._binding.pair is grid.buffers.plan


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_copied_online_protector_binds_again(rng, how):
    """A protector copied with its grid drops the binding that holds the
    original pair's addresses, binds the copy's and verifies like the
    original."""
    grid = _hotspot_like_grid(rng)
    protector = OnlineABFT.for_grid(grid)
    protector.run(grid, 2)
    if how == "deepcopy":
        clone_grid, clone = copy.deepcopy((grid, protector))
    else:
        clone_grid, clone = pickle.loads(pickle.dumps((grid, protector)))
    assert clone._binding is None
    for _ in range(3):
        report = protector.step(grid, inject=_bump)
        assert clone.step(clone_grid, inject=_bump) == report
        _assert_bits_equal(clone_grid.u, grid.u)
    assert clone._binding.pair is clone_grid.buffers.plan
