"""Numerical equivalence of the backend's paths with the reference sweep.

The backend runs each test twice (the ``backend`` fixture): compiled,
and with its native library reading as unavailable, so its NumPy paths
keep the same contract.  A third run, ``base``, stands a backend with
only the reference ``sweep_padded`` in for it (``conftest.BaseRoutes``),
so the :class:`~repro.backends.base.Backend` routes ``FusedBackend``
falls back to keep it too.  Its sweep must match
:func:`~repro.stencil.reference.reference_sweep_padded` within the
detection threshold of :func:`repro.core.thresholds.recommend_epsilon`
across the whole stencil library (2D and 3D, every boundary condition),
and its ``checksum`` of a freshly swept domain must equal post-hoc
``checksum()`` results — otherwise the false-positive/detection
behaviour the paper calibrates would depend on the machine.
"""

import numpy as np
import pytest

from conftest import (
    COMPUTE_PATHS,
    all_boundary_conditions,
    on_path,
    step_plan,
    stencil_library_2d,
    stencil_library_3d,
)

from repro.backends import Backend, FusedBackend, get_backend
from repro.core.checksums import checksum
from repro.core.online import OnlineABFT
from repro.core.thresholds import recommend_epsilon
from repro.faults.injector import FaultInjector, FaultPlan
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.reference import reference_sweep_padded
from repro.stencil.shift import pad_array

SHAPE_2D = (24, 18)
SHAPE_3D = (12, 10, 4)


def _domain(rng, shape):
    return (rng.random(shape) * 100.0).astype(np.float32)


def _relative_mismatch(value, reference):
    scale = np.maximum(np.abs(reference), 1.0)
    return float(np.max(np.abs(value - reference) / scale))


def _spec_id(spec):
    return f"{spec.ndim}d-{spec.npoints}pt"


class TestSweepEquivalence:
    @pytest.mark.parametrize("spec", stencil_library_2d(), ids=_spec_id)
    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_2d_matches_reference(self, rng, backend, spec, bc):
        self._check_sweep(rng, backend, spec, bc, SHAPE_2D, constant=False)

    @pytest.mark.parametrize("spec", stencil_library_3d(), ids=_spec_id)
    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_3d_matches_reference(self, rng, backend, spec, bc):
        self._check_sweep(rng, backend, spec, bc, SHAPE_3D, constant=True)

    def _check_sweep(self, rng, backend, spec, bc, shape, constant):
        u = _domain(rng, shape)
        const = (
            (rng.random(shape) * 0.1).astype(np.float32) if constant else None
        )
        radius = spec.radius()
        padded = pad_array(u, radius, bc)
        reference = reference_sweep_padded(
            padded, spec, radius, shape, constant=const
        )
        result = backend.sweep_padded(
            padded, spec, radius, shape, constant=const
        )
        eps = recommend_epsilon(shape, 0, np.float32, spec)
        assert _relative_mismatch(result, reference) <= eps

    def test_out_parameter_respected(self, rng, backend):
        spec = stencil_library_2d()[0]
        u = _domain(rng, SHAPE_2D)
        padded = pad_array(u, spec.radius(), BoundaryCondition.clamp())
        out = np.full(SHAPE_2D, np.nan, dtype=np.float32)
        result = backend.sweep_padded(
            padded, spec, spec.radius(), SHAPE_2D, out=out
        )
        assert result is out
        reference = reference_sweep_padded(
            padded, spec, spec.radius(), SHAPE_2D
        )
        np.testing.assert_allclose(out, reference, rtol=1e-6)

    def test_out_shape_validated(self, rng, backend):
        spec = stencil_library_2d()[0]
        u = _domain(rng, SHAPE_2D)
        padded = pad_array(u, spec.radius(), BoundaryCondition.clamp())
        with pytest.raises(ValueError, match="out has shape"):
            backend.sweep_padded(
                padded, spec, spec.radius(), SHAPE_2D, out=np.empty((3, 3), np.float32)
            )


class TestSweepInto:
    """The zero-copy primitive must equal the allocating sweep bitwise."""

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_matches_sweep_padded(self, rng, backend, bc):
        from repro.stencil.shift import interior_view, padded_shape

        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        radius = spec.radius()
        padded = pad_array(u, radius, bc)
        reference = backend.sweep_padded(padded, spec, radius, SHAPE_2D)
        dst = np.full(padded_shape(SHAPE_2D, radius), np.nan, dtype=np.float32)
        result = backend.sweep_into(
            padded, dst, spec, radius, SHAPE_2D,
            plan=step_plan(padded, dst, spec, radius, SHAPE_2D, bc),
        )
        assert np.shares_memory(result, dst)
        np.testing.assert_array_equal(result, reference)
        np.testing.assert_array_equal(interior_view(dst, radius), reference)

    def test_dst_shape_validated(self, rng):
        """The pair's plan checks the destination's layout once."""
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        radius = spec.radius()
        padded = pad_array(u, radius, BoundaryCondition.clamp())
        with pytest.raises(ValueError, match=r"back buffer has shape \(5, 5\)"):
            step_plan(padded, np.empty((5, 5), np.float32), spec, radius, SHAPE_2D)

    def test_sweep_into_then_checksum_matches_posthoc(self, rng, backend):
        """The checksum of the destination interior (a view into a padded
        buffer, which ``fused`` folds lane by lane) matches a post-hoc
        reduction."""
        from repro.stencil.shift import padded_shape

        be = backend
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        radius = spec.radius()
        padded = pad_array(u, radius, BoundaryCondition.clamp())
        dst = np.empty(padded_shape(SHAPE_2D, radius), dtype=np.float32)
        new = be.sweep_into(
            padded, dst, spec, radius, SHAPE_2D,
            plan=step_plan(padded, dst, spec, radius, SHAPE_2D),
        )
        for axis in (0, 1):
            # The accumulation *order* is backend-owned, so the float64
            # results need only agree to a few ULPs — orders of
            # magnitude inside the detection epsilon.
            assert _relative_mismatch(
                be.checksum(new, axis, dtype=np.float64),
                checksum(new, axis, dtype=np.float64),
            ) <= 1e-10

    def test_copy_fallback_for_minimal_backend(self, rng):
        """A backend providing only sweep_padded still lands in dst."""
        from repro.stencil.shift import interior_view, padded_shape

        class MinimalBackend(Backend):
            def sweep_padded(self, padded, spec, radius, interior_shape,
                             constant=None, out=None):
                # Deliberately ignores ``out`` — the fallback must copy.
                return reference_sweep_padded(
                    padded, spec, radius, interior_shape, constant=constant
                )

        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        radius = spec.radius()
        padded = pad_array(u, radius, BoundaryCondition.clamp())
        dst = np.full(padded_shape(SHAPE_2D, radius), np.nan, dtype=np.float32)
        result = MinimalBackend().sweep_into(
            padded, dst, spec, radius, SHAPE_2D,
            plan=step_plan(padded, dst, spec, radius, SHAPE_2D),
        )
        np.testing.assert_array_equal(
            interior_view(dst, radius),
            reference_sweep_padded(padded, spec, radius, SHAPE_2D),
        )
        assert np.shares_memory(result, dst)


def test_get_backend_returns_one_shared_instance():
    """Every layer that calls ``get_backend()`` gets the same ``fused``
    instance, so they share its scratch buffers and flat plans."""
    backend = get_backend()
    assert isinstance(backend, FusedBackend)
    assert get_backend() is backend


class TestChecksums:
    @pytest.mark.parametrize(
        "spec",
        stencil_library_2d() + stencil_library_3d(),
        ids=_spec_id,
    )
    @pytest.mark.parametrize("checksum_dtype", [np.float64, None], ids=["f64", "domain"])
    def test_swept_domain_checksums_match_posthoc(
        self, rng, backend, spec, checksum_dtype
    ):
        be = backend
        shape = SHAPE_2D if spec.ndim == 2 else SHAPE_3D
        u = _domain(rng, shape)
        radius = spec.radius()
        padded = pad_array(u, radius, BoundaryCondition.clamp())
        new = be.sweep_padded(padded, spec, radius, shape)
        for axis in (0, 1):
            posthoc = checksum(new, axis, dtype=checksum_dtype)
            eps = recommend_epsilon(shape, axis, np.float32, spec)
            assert _relative_mismatch(
                be.checksum(new, axis, dtype=checksum_dtype), posthoc
            ) <= eps

    def test_sweep_dispatcher_then_checksum(self, rng, backend):
        """The module-level sweep runs on the backend, and the backend's
        domain-dtype checksum of its output matches post-hoc."""
        from repro.stencil.sweep import sweep_padded

        be = backend
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        radius = spec.radius()
        padded = pad_array(u, radius, BoundaryCondition.clamp())
        new = sweep_padded(padded, spec, radius, SHAPE_2D)
        np.testing.assert_array_equal(
            new, be.sweep_padded(padded, spec, radius, SHAPE_2D)
        )
        # dtype=None accumulates in float32, where a backend-owned
        # accumulation order would show at ~1e-7 relative — far below
        # epsilon.
        np.testing.assert_allclose(
            be.checksum(new, 0, dtype=None), checksum(new, 0, dtype=None),
            rtol=1e-6,
        )


class TestGridAndProtectorAcrossBackends:
    def test_grid_runs_are_equivalent(self, rng, backend):
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        bc = BoundaryCondition.clamp()
        ref = u
        for _ in range(8):
            ref = reference_sweep_padded(
                pad_array(ref, spec.radius(), bc), spec, spec.radius(), SHAPE_2D
            )
        other = Grid2D(u, spec, bc)
        other.run(8)
        eps = recommend_epsilon(SHAPE_2D, 0, np.float32, spec)
        assert _relative_mismatch(other.u, ref) <= eps

    def test_grid_step_then_checksum_matches_fresh_fold(self, rng, backend):
        """The column checksum of a 3D grid's new state (an interior view
        of its padded front buffer) is bit for bit a fold of a fresh
        copy, and the next step leaves that state intact as
        ``previous``."""
        be = backend
        spec = stencil_library_3d()[0]
        u = _domain(rng, SHAPE_3D)
        grid = Grid3D(u, spec, BoundaryCondition.clamp())
        new = grid.step()
        fresh = checksum(new.copy(), 0, dtype=np.float64)
        np.testing.assert_array_equal(be.checksum(new, 0, dtype=np.float64), fresh)
        grid.step()
        np.testing.assert_array_equal(
            be.checksum(grid.previous, 0, dtype=np.float64), fresh
        )

    def test_online_abft_detects_and_corrects_on_every_backend(
        self, rng, backend
    ):
        spec = stencil_library_2d()[1]
        u = _domain(rng, (32, 28))
        grid = Grid2D(u, spec, BoundaryCondition.clamp())
        protector = OnlineABFT.for_grid(grid)
        inject = FaultInjector([FaultPlan(iteration=5, index=(10, 12), bit=27)])
        report = protector.run(grid, 12, inject=inject)
        assert report.total_detected >= 1
        assert report.total_corrected >= 1

    def test_online_abft_clean_run_no_false_positives(self, rng, backend):
        spec = stencil_library_2d()[1]
        u = _domain(rng, (32, 28))
        grid = Grid2D(u, spec, BoundaryCondition.clamp())
        protector = OnlineABFT.for_grid(grid)
        report = protector.run(grid, 10)
        assert report.total_detected == 0

    def test_compiled_and_interpreted_protected_runs_agree(self, rng):
        spec = stencil_library_2d()[1]
        u = _domain(rng, (32, 28))
        finals = {}
        for name in COMPUTE_PATHS:
            with on_path(name):
                grid = Grid2D(u, spec, BoundaryCondition.clamp())
                OnlineABFT.for_grid(grid).run(grid, 10)
            finals[name] = grid.u
        np.testing.assert_array_equal(*finals.values())


def _fresh_pair(u, radius, ghost_fill=np.nan):
    """A (src, dst) padded pair with ``u`` in the src interior.

    The halos are poisoned with ``ghost_fill`` so a step that skips the
    ghost refresh (or refreshes the wrong cells) contaminates the sweep
    visibly instead of reusing leftover values.
    """
    from repro.stencil.shift import interior_view, padded_shape

    shape = padded_shape(u.shape, radius)
    src = np.full(shape, ghost_fill, dtype=u.dtype)
    interior_view(src, radius)[...] = u
    dst = np.full(shape, ghost_fill, dtype=u.dtype)
    return src, dst


def _mixed_boundaries(ndim):
    """Per-axis heterogeneous boundary specs (corner semantics matter)."""
    if ndim == 2:
        return [
            (BoundaryCondition.clamp(), BoundaryCondition.constant(2.5)),
            (BoundaryCondition.periodic(), BoundaryCondition.clamp()),
            (BoundaryCondition.constant(1.5), BoundaryCondition.constant(-3.0)),
            (BoundaryCondition.zero(), BoundaryCondition.periodic()),
        ]
    return [
        (
            BoundaryCondition.clamp(),
            BoundaryCondition.periodic(),
            BoundaryCondition.zero(),
        ),
        (
            BoundaryCondition.constant(4.0),
            BoundaryCondition.clamp(),
            BoundaryCondition.constant(-1.0),
        ),
    ]


class TestBackendOwnedStep:
    """``step_into*`` (ghost refresh owned by the backend) must be
    bit-identical to the classic refresh-then-``sweep_into`` sequence —
    for every boundary kind, heterogeneous per-axis boundaries included,
    in 2D and 3D.  This pins any backend that overrides the step to the
    refresh-then-sweep semantics."""

    def _check_step(self, rng, be, boundary, spec, shape, constant=False):
        from repro.stencil.shift import refresh_ghosts

        u = _domain(rng, shape)
        const = (
            (rng.random(shape) * 0.1).astype(np.float32) if constant else None
        )
        radius = spec.radius()

        src_ref, dst_ref = _fresh_pair(u, radius)
        refresh_ghosts(src_ref, radius, boundary)
        expected = be.sweep_into(
            src_ref, dst_ref, spec, radius, shape, constant=const,
            plan=step_plan(src_ref, dst_ref, spec, radius, shape, boundary, const),
        )

        src, dst = _fresh_pair(u, radius)
        result = be.step_into(
            src, dst, step_plan(src, dst, spec, radius, shape, boundary, const)
        )
        assert np.shares_memory(result, dst)
        np.testing.assert_array_equal(result, expected)
        # The source halo must hold the boundary condition afterwards
        # (the protectors interpolate from it), exactly as the
        # interpreted refresh leaves it.
        np.testing.assert_array_equal(src, src_ref)

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_2d_matches_refresh_then_sweep(self, rng, backend, bc):
        self._check_step(rng, backend, bc, stencil_library_2d()[1], SHAPE_2D)

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_3d_matches_refresh_then_sweep(self, rng, backend, bc):
        self._check_step(
            rng, backend, bc, stencil_library_3d()[0], SHAPE_3D,
            constant=True,
        )

    @pytest.mark.parametrize("spec", stencil_library_2d(), ids=_spec_id)
    def test_2d_asymmetric_and_wide_stencils(self, rng, backend, spec):
        self._check_step(
            rng, backend, BoundaryCondition.periodic(), spec, SHAPE_2D
        )

    def test_2d_mixed_axis_boundaries(self, rng, backend):
        for boundary in _mixed_boundaries(2):
            self._check_step(
                rng, backend, boundary, stencil_library_2d()[2], SHAPE_2D
            )

    def test_3d_mixed_axis_boundaries(self, rng, backend):
        for boundary in _mixed_boundaries(3):
            self._check_step(
                rng, backend, boundary, stencil_library_3d()[1], SHAPE_3D
            )

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_step_checksums_match_posthoc(self, rng, backend, bc):
        be = backend
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        src, dst = _fresh_pair(u, spec.radius())
        new = be.step_into(
            src, dst, step_plan(src, dst, spec, spec.radius(), SHAPE_2D, bc)
        )
        for axis in (0, 1):
            assert _relative_mismatch(
                be.checksum(new, axis, dtype=np.float64),
                checksum(new, axis, dtype=np.float64),
            ) <= 1e-10

    def test_degenerate_periodic_halo_handled(self, rng, backend):
        """Ghost wider than the interior: the refresh tiles the periodic
        wrap, and the step stays pad_array-exact."""
        from repro.stencil.spec import StencilSpec

        spec = StencilSpec.from_dict(
            {(-2, 0): 0.2, (2, 0): 0.2, (0, -1): 0.3, (0, 1): 0.3}
        )
        shape = (1, 6)  # interior extent 1 < radius 2 along axis 0
        bc = BoundaryCondition.periodic()
        be = backend
        u = _domain(rng, shape)
        expected = reference_sweep_padded(
            pad_array(u, spec.radius(), bc), spec, spec.radius(), shape
        )
        src, dst = _fresh_pair(u, spec.radius())
        result = be.step_into(
            src, dst, step_plan(src, dst, spec, spec.radius(), shape, bc)
        )
        np.testing.assert_allclose(result, expected, rtol=1e-6)

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    def test_grid_step_fast_path_matches_classic_pipeline(
        self, rng, backend, bc
    ):
        """``Grid2D.step`` (whole iteration delegated to the backend)
        must track the explicit refresh + ``sweep_into`` + swap sequence
        bit for bit over several iterations."""
        be = backend
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        fast = Grid2D(u, spec, bc)
        fast.run(6)
        classic = Grid2D(u, spec, bc)
        for _ in range(6):
            padded = classic.buffers.refresh()
            be.sweep_into(
                padded, classic.buffers.back, spec, classic.radius,
                classic.shape, plan=classic.buffers.plan,
            )
            classic._commit(padded)
        np.testing.assert_array_equal(fast.u, classic.u)
        assert fast.iteration == classic.iteration == 6

    def test_grid_step_uses_backend_owned_step(self, rng, backend):
        """A grid step returns the buffer the pair just swapped in, whose
        checksums the backend reduces, and leaves previous_padded's halo
        valid."""
        from repro.stencil.shift import interior_view

        be = backend
        spec = stencil_library_2d()[1]
        u = _domain(rng, SHAPE_2D)
        grid = Grid2D(u, spec, BoundaryCondition.clamp())
        new = grid.step()
        assert np.shares_memory(new, grid.u)
        for axis in (0, 1):
            assert _relative_mismatch(
                be.checksum(new, axis, dtype=np.float64),
                checksum(grid.u, axis, dtype=np.float64),
            ) <= 1e-10
        # previous_padded must carry a refreshed halo (clamp: ghost rows
        # equal the adjacent interior rows) for the ABFT interpolation.
        prev = grid.previous_padded
        interior = interior_view(prev, grid.radius)
        np.testing.assert_array_equal(prev[0, 1:-1], interior[0])
        np.testing.assert_array_equal(prev[-1, 1:-1], interior[-1])
