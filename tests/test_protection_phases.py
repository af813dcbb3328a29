"""Protection phases of the fused step: each cheaper form gives the same bits.

Three passes of a protected step used to re-read the whole padded
buffer for a few ghost lanes.  Each has a cheaper form, and these tests
pin it to the form it replaced:

* **lane fold** — ``FusedBackend.checksum`` reduces the axis-0 checksum
  of a padded interior over whole contiguous lanes, then keeps the
  interior ones: bitwise equal to ``u.sum(axis=0, dtype=...)``;
* **closed borders** — with the boundary a grid refreshed its ghosts
  from, exact Theorem-1 interpolation rebuilds the border sums of closed
  axes from the stored checksum instead of reading the domain: bitwise
  equal to the domain-read form on float32 domains with float64
  checksums;
* **column refresh** — ``refresh_ghosts`` fills a whole buffer's
  last-axis ghosts one 1-D column at a time: bitwise equal to the slab
  fill it replaced, which every other view still takes.

Plus the cached refresh plans the last two build on, and the refreshed
checksum entries after a correction, which the closed borders rely on.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_boundary_conditions
from repro.backends import FusedBackend
from repro.backends.base import Backend
from repro.core import interpolation, online
from repro.core.interpolation import interpolate_checksum_padded
from repro.core.online import OnlineABFT
from repro.faults.bitflip import flip_bit_in_array
from repro.parallel.decomposition import decompose, decompose_layers
from repro.parallel.runner import TiledStencilRunner
from repro.parallel.simmpi import DistributedStencilRunner
from repro.stencil import shift
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.kernels import five_point_diffusion, seven_point_diffusion_3d
from repro.stencil.shift import (
    interior_view,
    pad_array,
    padded_shape,
    refresh_ghosts,
)
from repro.stencil.spec import StencilSpec
from repro.stencil.sweep import sweep_padded

FUSED = FusedBackend()


def _bits(a):
    """Raw bytes of ``a``: equality here is bit for bit, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint8)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


@st.composite
def specs(draw, radius):
    """A random operator whose offsets fit in ``radius``."""
    return StencilSpec(
        [
            (
                tuple(draw(st.integers(-r, r)) for r in radius),
                draw(st.floats(-2.0, 2.0, allow_nan=False, width=32)),
            )
            for _ in range(draw(st.integers(1, 7)))
        ]
    )


# --------------------------------------------------------------------------
# lever 1: the lane fold
# --------------------------------------------------------------------------

class TestLaneFold:
    @settings(max_examples=150)
    @given(
        radius=st.tuples(*[st.integers(0, 3)] * 3),
        shape=st.tuples(st.integers(1, 40), st.integers(1, 9), st.integers(1, 9)),
        dtype=st.sampled_from([np.float32, np.float64]),
        cs_dtype=st.sampled_from([None, np.float64]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_equals_the_axis0_sum(self, radius, shape, dtype, cs_dtype, seed):
        rng = np.random.default_rng(seed)
        padded = (rng.random(padded_shape(shape, radius)) * 100 - 50).astype(dtype)
        u = interior_view(padded, radius)
        # The fold reads the ghost lanes between rows, when there are
        # some and fewer than the row holds.
        folds = 0 < 2 * radius[2] < shape[2]
        assert (FusedBackend._lane_planes(u) is not None) == folds
        _assert_bitwise(
            FUSED.checksum(u, 0, dtype=cs_dtype), u.sum(axis=0, dtype=cs_dtype)
        )

    @pytest.mark.parametrize(
        "view, folds",
        [
            (lambda u: u, True),
            (lambda u: u.transpose(1, 0, 2), False),
            (lambda u: u[::-1], False),
            (lambda u: u[:, ::-1], False),
            (lambda u: np.ascontiguousarray(u), False),
        ],
        ids=["padded-interior", "transposed", "negative-x", "negative-y", "contiguous"],
    )
    def test_only_padded_interiors_fold(self, rng, view, folds):
        padded = rng.random((14, 12, 7)).astype(np.float32)
        u = view(interior_view(padded, (1, 2, 1)))
        with mock.patch.object(
            Backend, "checksum", autospec=True, side_effect=Backend.checksum
        ) as old_path:
            got = FUSED.checksum(u, 0, dtype=np.float64)
        assert old_path.called is not folds
        _assert_bitwise(got, u.sum(axis=0, dtype=np.float64))

    @pytest.mark.parametrize(
        "tiles",
        [
            lambda shape: decompose(shape, (1, 1, 2)),
            lambda shape: decompose(shape, (2, 1, 3)),
            decompose_layers,
        ],
        ids=["1x1x2", "2x1x3", "layers"],
    )
    def test_tiles_split_along_the_last_axis_take_the_base_reduction(
        self, rng, tiles
    ):
        """Their row gaps hold the neighbouring tiles' lanes, which another
        worker of a tiled runner may be writing: the fold must not read
        them, even for a middle tile centred like a padded interior."""
        interior = interior_view(rng.random((10, 9, 14)).astype(np.float32), 1)
        for box in tiles(interior.shape):
            tile = interior[box.slices]
            assert FusedBackend._lane_planes(tile) is None
            with mock.patch.object(
                Backend, "checksum", autospec=True, side_effect=Backend.checksum
            ) as old_path:
                got = FUSED.checksum(tile, 0)
            assert old_path.called
            _assert_bitwise(got, tile.sum(axis=0))

    def test_tiles_split_along_axis1_fold_their_own_rows(self, rng):
        interior = interior_view(rng.random((10, 9, 14)).astype(np.float32), 1)
        for box in decompose(interior.shape, (1, 3, 1)):
            tile = interior[box.slices]
            planes = FusedBackend._lane_planes(tile)
            assert planes is not None and planes.shape[1] < 14 * tile.shape[1]
            _assert_bitwise(FUSED.checksum(tile, 0), tile.sum(axis=0))

    def test_returned_checksums_never_alias(self, rng):
        u = interior_view(rng.random((10, 10, 6)), 1)
        first = FUSED.checksum(u, 0)
        second = FUSED.checksum(u, 0)
        first[...] = -1.0
        _assert_bitwise(second, u.sum(axis=0))


# --------------------------------------------------------------------------
# lever 2: closed borders from checksum space
# --------------------------------------------------------------------------

@st.composite
def closed_border_cases(draw):
    """A refreshed padded domain, its boundary and a checksum to interpolate."""
    ndim = draw(st.sampled_from([2, 3]))
    radius = tuple(draw(st.integers(0, 2)) for _ in range(ndim))
    shape = tuple(draw(st.integers(1, 7)) for _ in range(ndim))
    boundary = BoundarySpec(
        tuple(draw(st.sampled_from(all_boundary_conditions())) for _ in range(ndim))
    )
    return {
        "radius": radius,
        "shape": shape,
        "spec": draw(specs(radius)),
        "boundary": boundary,
        "reduce_axis": draw(st.sampled_from([0, 1])),
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        "constant": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }


def _interpolations(case):
    """``(domain-read form, closed-border form)`` of one interpolation."""
    rng = np.random.default_rng(case["seed"])
    radius, shape, axis = case["radius"], case["shape"], case["reduce_axis"]
    # Values in [1, 101): float64 sums of float32 values are then exact,
    # whatever the order of the additions.
    padded = (rng.random(padded_shape(shape, radius)) * 100 + 1).astype(case["dtype"])
    refresh_ghosts(padded, radius, case["boundary"])
    cs = interior_view(padded, radius).sum(axis=axis, dtype=np.float64)
    constant_sum = (
        rng.random(cs.shape) if case["constant"] else None
    )
    args = (cs, padded, case["spec"], radius, shape, axis, constant_sum)
    return (
        interpolate_checksum_padded(*args),
        interpolate_checksum_padded(*args, boundary=case["boundary"]),
    )


class TestClosedBorders:
    @settings(max_examples=200)
    @given(case=closed_border_cases())
    def test_matches_the_domain_read_form(self, case):
        domain, closed = _interpolations(case)
        if case["dtype"] == np.float32:
            _assert_bitwise(closed, domain)
        else:
            # On float64 domains the two forms may differ by a few ULP,
            # because the domain read does not always add a border in
            # the checksum's order: a border slab that is one lane wide
            # across the non-reduced axes (a width-1 ghost column of a
            # 2D column checksum, or of a 3D row checksum) collapses to
            # a 1-D reduction, which NumPy sums pairwise, while the
            # checksum adds each lane in order.  The closed-border form
            # copies the checksum's entries, so it is the one consistent
            # with the stored checksum.
            np.testing.assert_allclose(closed, domain, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("reduce_axis", [0, 1])
    @pytest.mark.parametrize("constant_axis", [1, 2])
    def test_a_constant_axis_next_to_clamp_keeps_domain_reads(
        self, reduce_axis, constant_axis
    ):
        """The rule is all or nothing: the constant axis owns its corners,
        so every border is read from the domain."""
        conditions = [BoundaryCondition.clamp()] * 3
        conditions[constant_axis] = BoundaryCondition.constant(46.0)
        case = {
            "radius": (1, 2, 1), "shape": (9, 6, 5),
            "spec": seven_point_diffusion_3d(0.1),
            "boundary": BoundarySpec(tuple(conditions)),
            "reduce_axis": reduce_axis,
            "dtype": np.float32, "constant": False, "seed": 3,
        }
        case["spec"] = StencilSpec(
            list(case["spec"]) + [((1, 2, -1), 0.05), ((-1, -2, 1), 0.02)]
        )
        domain, closed = _interpolations(case)
        _assert_bitwise(closed, domain)
        plan = interpolation._domain_plan(
            case["spec"], case["radius"], case["shape"], reduce_axis,
            np.empty(padded_shape(case["shape"], case["radius"])), np.float64,
            case["boundary"],
        )
        if constant_axis == reduce_axis:
            # Summed away: the other two axes are clamp.
            assert plan.closed and not plan.borders
        else:
            assert plan.closed == () and len(plan.borders) == 4

    def test_external_axis_halo_is_read_from_the_domain(self, rng):
        """A halo is not a copy of the interior: ranks pass no boundary,
        so their interpolation reads the axis-0 halo from the domain.
        The rank's own clamp boundary would predict a different row
        checksum than the sweep computes."""
        radius, shape = (1, 1), (8, 6)
        padded = (rng.random(padded_shape(shape, radius)) * 100 + 1).astype(np.float32)
        boundary = BoundarySpec.clamp(2)
        # The axis-0 ghost rows keep their random values: halo data.
        refresh_ghosts(padded, radius, boundary, axes=(1,))
        spec = five_point_diffusion(0.2)
        cs = interior_view(padded, radius).sum(axis=1, dtype=np.float64)
        swept = sweep_padded(padded, spec, radius, shape).sum(axis=1, dtype=np.float64)
        args = (cs, padded, spec, radius, shape, 1)
        np.testing.assert_allclose(interpolate_checksum_padded(*args), swept, rtol=1e-6)
        closed = interpolate_checksum_padded(*args, boundary=boundary)
        assert not np.allclose(closed, swept, rtol=1e-6)

    @pytest.mark.parametrize("n_axes", [1, 3])
    def test_boundary_axis_count_must_match(self, rng, n_axes):
        padded = rng.random((10, 10))
        cs = interior_view(padded, 1).sum(axis=0)
        with pytest.raises(ValueError, match=f"boundary has {n_axes} axes.* has 2"):
            interpolate_checksum_padded(
                cs, padded, five_point_diffusion(), 1, (8, 8), 0,
                boundary=BoundarySpec.clamp(n_axes),
            )

    def test_step_hands_its_grid_boundary_to_both_interpolations(self, rng):
        """The verified column checksum, and after a detection the row
        checksum, are interpolated with the boundary the grid refreshed
        its ghosts from."""
        initial = (rng.random((16, 12, 4)) * 50 + 300).astype(np.float32)
        boundary = BoundarySpec((
            BoundaryCondition.clamp(),
            BoundaryCondition.periodic(),
            BoundaryCondition.zero(),
        ))
        grid = Grid3D(initial, seven_point_diffusion_3d(0.1), boundary)
        protector = OnlineABFT.for_grid(grid)

        def flip(g, iteration):
            if iteration == 2:
                flip_bit_in_array(g.u, (5, 7, 2), 28)

        with mock.patch.object(
            online, "interpolate_checksum_padded",
            side_effect=interpolate_checksum_padded,
        ) as spy:
            reports = [protector.step(grid, inject=flip) for _ in range(3)]
        assert [r.errors_corrected for r in reports] == [0, 1, 0]
        axes = [call.args[5] for call in spy.call_args_list]
        assert axes == [0, 0, 1, 0]
        for call in spy.call_args_list:
            assert call.kwargs["boundary"] is grid.boundary

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_fault_free_ranks_detect_nothing(self, rng, bc):
        initial = (rng.random((48, 40)) * 100).astype(np.float32)
        grid = Grid2D(initial, five_point_diffusion(0.2), bc)
        reference = grid.copy()
        runner = DistributedStencilRunner(grid, n_ranks=3, protect=True)
        runner.run(12)
        reference.run(12)
        assert runner.total_detected() == 0
        _assert_bitwise(runner.gather(), reference.u)

    def test_fault_free_tiles_split_along_axis1_detect_nothing(self, rng):
        initial = (rng.random((12, 30, 4)) * 50 + 300).astype(np.float32)
        grid = Grid3D(initial, seven_point_diffusion_3d(0.1), BoundaryCondition.clamp())
        runner = TiledStencilRunner.with_online_abft(grid, (1, 3, 1))
        try:
            runner.run(8)
        finally:
            runner.shutdown()
        assert runner.total_detected() == 0

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_boundary_and_domain_forms_agree_through_a_correction(self, rng, bc):
        """A grid-protected run (closed-border form) and the same run
        verified through ``process`` without a boundary give identical
        reports.  Clamp, periodic and zero fills close the borders; a
        constant fill keeps the domain reads."""
        initial = (rng.random((16, 12, 4)) * 50 + 300).astype(np.float32)
        spec = seven_point_diffusion_3d(0.1)
        grids = [Grid3D(initial, spec, bc) for _ in range(2)]
        protectors = [OnlineABFT.for_grid(g) for g in grids]

        def flip(grid, iteration):
            if iteration == 4:
                flip_bit_in_array(grid.u, (5, 7, 2), 28)

        reports = []
        for _ in range(10):
            reports.append((
                protectors[0].step(grids[0], inject=flip),
                self._step_without_boundary(protectors[1], grids[1], flip),
            ))
        assert sum(a.errors_corrected for a, _ in reports) >= 1
        for a, b in reports:
            assert (a.errors_detected, a.errors_corrected) == (
                b.errors_detected, b.errors_corrected
            )
            assert a.max_relative_error == b.max_relative_error
        _assert_bitwise(grids[0].u, grids[1].u)

    @staticmethod
    def _step_without_boundary(protector, grid, inject):
        grid.step()
        inject(grid, grid.iteration)
        return protector.process(grid.u, grid.previous_padded, grid.iteration)


# --------------------------------------------------------------------------
# refreshed checksum entries after a correction
# --------------------------------------------------------------------------

class TestRefreshedEntries:
    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("strategy", ["average", "row", "column"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("checksum_dtype", [None, np.float64])
    def test_equal_a_fresh_checksum_of_the_repaired_domain(
        self, rng, ndim, strategy, dtype, checksum_dtype
    ):
        shape = (96, 80) if ndim == 2 else (64, 48, 4)
        initial = (rng.random(shape) * 50 + 300).astype(dtype)
        grid = (Grid2D if ndim == 2 else Grid3D)(
            initial,
            five_point_diffusion(0.2) if ndim == 2 else seven_point_diffusion_3d(0.1),
            BoundaryCondition.clamp(),
        )
        protector = OnlineABFT.for_grid(
            grid, eager_row_checksum=True, checksum_dtype=checksum_dtype,
            correction_strategy=strategy,
        )
        bit = 30 if dtype == np.float32 else 62
        site = (37, 21) if ndim == 2 else (37, 21, 1)

        def flip(g, iteration):
            if iteration == 2:
                flip_bit_in_array(g.u, site, bit)

        protector.step(grid, inject=flip)
        report = protector.step(grid, inject=flip)
        assert report.errors_corrected == 1
        for axis in (0, 1):
            _assert_bitwise(
                protector._prev_cs[axis],
                FUSED.checksum(grid.u, axis, dtype=checksum_dtype),
            )


# --------------------------------------------------------------------------
# the column refresh of the last axis
# --------------------------------------------------------------------------

class TestColumnRefresh:
    @settings(max_examples=200)
    @given(
        ndim=st.sampled_from([2, 3]),
        radius=st.lists(st.integers(0, 2), min_size=3, max_size=3),
        shape=st.lists(st.integers(1, 7), min_size=3, max_size=3),
        boundary=st.lists(
            st.sampled_from(all_boundary_conditions()), min_size=3, max_size=3
        ),
        external=st.lists(st.booleans(), min_size=3, max_size=3),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_equals_the_slab_refresh(
        self, ndim, radius, shape, boundary, external, dtype, seed
    ):
        """A whole buffer takes the column ops, a strided view of the same
        values the slab ops; both end bitwise equal, external ghosts
        (random halo values) included."""
        radius, shape = tuple(radius[:ndim]), tuple(shape[:ndim])
        boundary = BoundarySpec(tuple(boundary[:ndim]))
        axes = None
        if any(external[:ndim]):
            axes = tuple(a for a in range(ndim) if not external[a])
        rng = np.random.default_rng(seed)
        whole = (rng.random(padded_shape(shape, radius)) * 100 - 50).astype(dtype)
        strided = np.zeros(whole.shape[:-1] + (2 * whole.shape[-1],), dtype)[..., ::2]
        strided[...] = whole
        assert whole.shape[-1] == 1 or not strided.flags.c_contiguous
        refresh_ghosts(whole, radius, boundary, axes=axes)
        refresh_ghosts(strided, radius, boundary, axes=axes)
        _assert_bitwise(whole, strided)

    def test_columns_of_the_last_axis(self):
        def columns(shape, radius, boundary, axes=None):
            lanes = shift._build_refresh_plan(shape, radius, boundary, axes).lanes
            return [
                (dst[1], src[1] if isinstance(src, tuple) else src)
                for dst, src in (() if lanes is None else lanes.columns)
            ]

        assert columns((6, 7, 8), (1, 0, 2), BoundarySpec.clamp(3)) == [
            (0, 2), (1, 2), (6, 5), (7, 5)
        ]
        assert columns((6, 8), (1, 2), BoundarySpec.periodic(2)) == [
            (0, 4), (1, 5), (6, 2), (7, 3)
        ]
        assert columns((6, 8), 2, BoundaryCondition.constant(2.5), (1,)) == [
            (0, 2.5), (1, 2.5), (6, 2.5), (7, 2.5)
        ]
        # External or zero-width last axis, degenerate periodic axis.
        assert columns((6, 6), 1, BoundarySpec.clamp(2), (0,)) == []
        assert columns((6, 4), (1, 0), BoundarySpec.clamp(2)) == []
        assert columns((6, 8), (1, 3), BoundarySpec.periodic(2)) == []

    def test_whole_buffers_take_the_columns(self, rng):
        padded = rng.random((6, 5, 4))
        with mock.patch.object(
            shift, "fill_ghosts", side_effect=shift.fill_ghosts
        ) as fill:
            refresh_ghosts(padded, 1, BoundarySpec.clamp(3))
        assert [call.args[0].ndim for call in fill.call_args_list] == [3, 2]


# --------------------------------------------------------------------------
# the refresh-plan cache
# --------------------------------------------------------------------------

class TestRefreshPlanCache:
    def test_cache_is_bounded(self, rng):
        bound = shift._MAX_CACHED_REFRESH_PLANS
        for n in range(3, bound + 12):
            refresh_ghosts(rng.random((n, 4)), 1, BoundaryCondition.clamp())
            assert len(shift._refresh_plans) <= bound
        assert shift._refresh_plans.bound == bound

    @settings(max_examples=100)
    @given(
        radius=st.tuples(*[st.integers(0, 3)] * 3),
        shape=st.tuples(*[st.integers(1, 6)] * 3),
        boundary=st.lists(
            st.sampled_from(all_boundary_conditions()), min_size=3, max_size=3
        ),
        axes=st.one_of(st.none(), st.lists(st.integers(0, 2), unique=True)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_cached_and_fresh_ops_give_identical_buffers(
        self, radius, shape, boundary, axes, seed
    ):
        padded = np.random.default_rng(seed).random(padded_shape(shape, radius))
        fresh, cached = padded.copy(), padded.copy()
        shift._refresh_plans.clear()
        refresh_ghosts(fresh, radius, boundary, axes=axes)
        assert shift._refresh_plans
        refresh_ghosts(cached, list(radius), boundary, axes=axes)
        refresh_ghosts(cached, radius, boundary, axes=axes)
        _assert_bitwise(cached, fresh)
        if axes is None:
            _assert_bitwise(
                fresh, pad_array(interior_view(padded, radius), radius, boundary)
            )

    def test_bad_axes_still_raise_on_every_call(self, rng):
        padded = rng.random((6, 6))
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                refresh_ghosts(padded, 1, BoundaryCondition.clamp(), axes=(2,))
