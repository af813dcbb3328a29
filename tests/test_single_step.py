"""One stepping path: every layer advances by ``k`` single steps.

The grid's two step primitives (:meth:`~repro.stencil.grid.GridBase.step`
and :meth:`~repro.stencil.grid.GridBase.step_with_checksums`) are the
only way a protector or runner moves a domain forward.  These tests pin
what the layers above rely on:

* after ``k`` steps the front buffer holds step ``k`` — bit-identical to
  ``k`` refresh-then-sweep passes on the same backend — and the back
  buffer holds step ``k - 1``, the only intermediate a protector needs
  for Theorem-1 interpolation;
* a fused step's checksums equal a fresh fold of the state it produced;
* :meth:`OfflineABFT.run` is exactly its ``step`` loop plus ``finalize``,
  only the window-closing sweep fuses the checksum, and an injection
  hook is called once per iteration.
"""

import numpy as np
import pytest

from conftest import all_boundary_conditions
from repro.core.checksums import checksum
from repro.core.offline import OfflineABFT
from repro.core.protector import NoProtection
from repro.faults.injector import FaultInjector, FaultPlan
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion, nine_point_smoothing
from repro.stencil.shift import interior_view, pad_array


def _grid(rng, bc=None, spec=None, shape=(20, 14), constant=False):
    spec = spec or five_point_diffusion(0.2)
    bc = bc or BoundaryCondition.clamp()
    u0 = (rng.random(shape) * 100).astype(np.float32)
    const = (rng.random(shape) * 0.1).astype(np.float32) if constant else None
    return Grid2D(u0, spec, bc, constant=const)


def _padded_sweeps(grid, u, k):
    """``k`` allocating pad-then-sweep passes on the grid's own backend."""
    for _ in range(k):
        padded = pad_array(u, grid.radius, grid.boundary)
        u = grid.backend.sweep_padded(
            padded, grid.spec, grid.radius, grid.shape, constant=grid.constant
        )
    return u


class TestGridSteps:
    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("constant", [False, True], ids=["plain", "const"])
    def test_k_steps_match_padded_sweeps(self, rng, bc, k, constant):
        grid = _grid(rng, bc=bc, constant=constant)
        u0 = grid.u.copy()
        for _ in range(k):
            new = grid.step()
        expected_prev = _padded_sweeps(grid, u0, k - 1)
        expected = _padded_sweeps(grid, expected_prev, 1)
        np.testing.assert_array_equal(new, expected)
        np.testing.assert_array_equal(grid.u, expected)
        # The back buffer holds the true step k-1 state, padded with the
        # ghosts the last sweep read.
        np.testing.assert_array_equal(grid.previous, expected_prev)
        np.testing.assert_array_equal(
            interior_view(grid.previous_padded, grid.radius), expected_prev
        )
        assert grid.iteration == k
        assert grid.last_checksums is None

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    @pytest.mark.parametrize("k", [2, 3])
    def test_step_with_checksums_matches_fresh_fold(self, rng, bc, k):
        grid = _grid(rng, bc=bc, spec=nine_point_smoothing())
        plain = grid.copy()
        for _ in range(k - 1):
            grid.step()
            plain.step()
        new, cs = grid.step_with_checksums((0, 1), checksum_dtype=np.float64)
        ref = plain.step()
        np.testing.assert_array_equal(new, ref)
        np.testing.assert_array_equal(grid.previous, plain.previous)
        assert grid.last_checksums is cs
        for axis in (0, 1):
            np.testing.assert_array_equal(
                cs[axis], checksum(new, axis, dtype=np.float64)
            )


class TestOfflineSingleStepRuns:
    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    @pytest.mark.parametrize("iters", [16, 19])  # aligned + partial window
    def test_run_equals_step_loop_then_finalize(self, rng, bc, iters):
        g_run = _grid(rng, bc=bc)
        g_loop = g_run.copy()
        kwargs = dict(period=8, epsilon=1e-5, track_strips=False)
        rep_run = OfflineABFT.for_grid(g_run, **kwargs).run(g_run, iters)
        looped = OfflineABFT.for_grid(g_loop, **kwargs)
        steps = [looped.step(g_loop) for _ in range(iters)]
        final = looped.finalize(g_loop)
        if final is not None:
            steps.append(final)
        assert (final is None) == (iters % 8 == 0)
        np.testing.assert_array_equal(g_run.u, g_loop.u)
        assert g_run.iteration == g_loop.iteration == iters
        assert len(rep_run.steps) == len(steps)
        for sr, sl in zip(rep_run.steps, steps):
            assert (
                sr.iteration, sr.detection_performed, sr.errors_detected,
                sr.rollback, sr.recomputed_iterations,
            ) == (
                sl.iteration, sl.detection_performed, sl.errors_detected,
                sl.rollback, sl.recomputed_iterations,
            )

    def test_only_the_window_closing_step_fuses_the_checksum(self, rng):
        g = _grid(rng)
        protector = OfflineABFT.for_grid(
            g, period=4, epsilon=1e-5, track_strips=False
        )
        fused = []
        for _ in range(8):
            protector.step(g)
            fused.append(g.last_checksums is not None)
        assert fused == [False, False, False, True] * 2

    def test_flip_inside_window_recovers_to_failure_free_state(self, rng):
        g_clean = _grid(rng, shape=(24, 18))
        g_hit = g_clean.copy()
        kwargs = dict(period=8, epsilon=1e-5, track_strips=False)
        OfflineABFT.for_grid(g_clean, **kwargs).run(g_clean, 16)
        # Iteration 5 sits strictly inside the first 8-step window.
        plan = FaultPlan(iteration=5, index=(11, 7), bit=26)
        rep = OfflineABFT.for_grid(g_hit, **kwargs).run(
            g_hit, 16, inject=FaultInjector([plan])
        )
        assert [s.iteration for s in rep.steps if s.errors_detected] == [8]
        assert rep.total_rollbacks >= 1
        assert rep.total_recomputed_iterations >= 8
        np.testing.assert_array_equal(g_hit.u, g_clean.u)

    def test_inject_hook_called_once_per_iteration(self, rng):
        g = _grid(rng)
        protector = OfflineABFT.for_grid(
            g, period=4, epsilon=1e-5, track_strips=False
        )
        calls = []

        def hook(grid, iteration):
            calls.append(iteration)

        protector.run(g, 9, inject=hook)
        assert calls == list(range(1, 10))

    def test_clean_offline_run_matches_unprotected_run(self, rng):
        g_abft = _grid(rng)
        g_plain = g_abft.copy()
        rep = OfflineABFT.for_grid(
            g_abft, period=8, epsilon=1e-5, track_strips=False
        ).run(g_abft, 19)
        NoProtection().run(g_plain, 19)
        assert rep.total_rollbacks == 0
        np.testing.assert_array_equal(g_abft.u, g_plain.u)
