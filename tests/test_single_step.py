"""One stepping path: every layer advances by ``k`` single steps.

The grid's step primitive (:meth:`~repro.stencil.grid.GridBase.step`)
is the only way a protector moves a domain forward.  These tests pin
what the layers above rely on:

* after ``k`` steps the front buffer holds step ``k`` — bit-identical to
  ``k`` refresh-then-sweep passes on the same backend — and the back
  buffer holds step ``k - 1``, the only intermediate a protector needs
  for Theorem-1 interpolation;
* the backend's checksum of a step's new state equals a fresh fold of
  it, bit for bit;
* :meth:`OfflineABFT.run` is exactly its ``step`` loop plus ``finalize``,
  only the window-closing step takes a checksum, and an injection hook
  is called once per iteration;
* a protected step makes the same backend calls with and without an
  inject hook, and reduces its checksum once, after the hook returns
  (online, window-closing offline and distributed steps alike);
* every layer steps and reduces on the instance ``get_backend()``
  returns, resolved where it is used: objects built before a spy is
  swapped in run on the spy.
"""

from collections import Counter

import numpy as np
import pytest

from conftest import all_boundary_conditions
from repro.backends import get_backend
from repro.core.checksums import checksum
from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection
from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.campaign import CampaignConfig
from repro.faults.engine import CampaignEngine
from repro.faults.injector import FaultInjector, FaultPlan
from repro.parallel.executor import SerialExecutor
from repro.parallel.runner import TiledStencilRunner
from repro.parallel.simmpi import DistributedStencilRunner
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
    """``k`` allocating pad-then-sweep passes on the backend."""
    for _ in range(k):
        padded = pad_array(u, grid.radius, grid.boundary)
        u = get_backend().sweep_padded(
            padded, grid.spec, grid.radius, grid.shape, constant=grid.constant
        )
    return u


def _spy_backend(log):
    """A fresh instance of the backend's class that logs every public
    method called on it.

    Each public method, nested calls included, appends its name to
    ``log`` before it runs; ``use_backend`` swaps it in for the one
    instance.
    """
    backend = type(get_backend())()

    def logged(name, fn):
        def call(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)
        return call

    for name in dir(backend):
        attr = getattr(backend, name)
        if not name.startswith("_") and callable(attr):
            setattr(backend, name, logged(name, attr))
    return backend


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

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    @pytest.mark.parametrize("k", [2, 3])
    def test_step_then_checksum_matches_fresh_fold(self, rng, bc, k):
        """The checksum a protector takes after step ``k`` (the backend's
        reduction of the front buffer's interior view) is bit for bit a
        fold of a fresh copy of the new state."""
        grid = _grid(rng, bc=bc, spec=nine_point_smoothing())
        plain = grid.copy()
        for _ in range(k - 1):
            grid.step()
            plain.step()
        new = grid.step()
        ref = plain.step()
        np.testing.assert_array_equal(new, ref)
        np.testing.assert_array_equal(grid.previous, plain.previous)
        for axis in (0, 1):
            np.testing.assert_array_equal(
                get_backend().checksum(new, axis, dtype=np.float64),
                checksum(new.copy(), axis, dtype=np.float64),
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

    def test_only_the_window_closing_step_takes_a_checksum(
        self, rng, use_backend
    ):
        log = []
        use_backend(_spy_backend(log))
        g = _grid(rng)
        protector = OfflineABFT.for_grid(
            g, period=4, epsilon=1e-5, track_strips=False
        )
        reduced = []
        for _ in range(8):
            del log[:]
            protector.step(g)
            reduced.append(log.count("checksum"))
        # The first step also seeds the initial checkpoint's checksum.
        assert reduced == [1, 0, 0, 1] + [0, 0, 0, 1]

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


def _online_step(u0):
    grid = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())
    protector = OnlineABFT.for_grid(grid, epsilon=1e-5)
    protector.step(grid)  # seeds the t=0 checksum
    return lambda inject: protector.step(grid, inject=inject)


def _offline_step(u0):
    grid = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())
    protector = OfflineABFT.for_grid(grid, period=2, epsilon=1e-5)
    protector.step(grid)  # seeds the checkpoint; the next step closes the window
    return lambda inject: protector.step(grid, inject=inject)


def _distributed_step(u0):
    grid = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())
    runner = DistributedStencilRunner(grid, n_ranks=2)
    runner.step()
    return lambda inject: runner.step(inject=inject)


class TestOneStepPath:
    @pytest.mark.parametrize(
        "make_step,ranks",
        [(_online_step, 1), (_offline_step, 1), (_distributed_step, 2)],
        ids=["online", "offline-window-closing", "distributed"],
    )
    def test_hook_or_not_the_step_makes_the_same_calls(
        self, rng, use_backend, make_step, ranks
    ):
        """With no hook and with a no-op hook, one protected step makes
        the same backend calls; each rank's step reduces one checksum,
        after the hook has returned."""
        u0 = (rng.random((20, 14)) * 100).astype(np.float32)
        log = []
        use_backend(_spy_backend(log))
        step_plain = make_step(u0)
        step_hooked = make_step(u0)
        del log[:]  # the warm-up steps' calls
        step_plain(None)
        plain = log[:]
        del log[:]
        step_hooked(lambda *args: log.append("hook"))
        hooked = log
        assert [call for call in hooked if call != "hook"] == plain
        # One segment per rank step, each opened by its step_into.
        starts = [i for i, call in enumerate(hooked) if call == "step_into"]
        assert len(starts) == ranks
        for lo, hi in zip(starts, starts[1:] + [len(hooked)]):
            segment = hooked[lo:hi]
            assert segment.count("hook") == 1
            assert segment.count("checksum") == 1
            assert segment.index("checksum") > segment.index("hook")


class TestOneSelectionPoint:
    def test_every_layer_calls_the_selected_instance(self, rng, use_backend):
        """Every layer, built and seeded before a spy is swapped in for
        the backend, then steps and reduces on the spy: none keeps a
        backend of its own."""
        grid = _grid(rng)
        online = OnlineABFT.for_grid(grid, epsilon=1e-5)
        online.step(grid)  # seeds the t=0 checksum
        windowed = _grid(rng)
        offline = OfflineABFT.for_grid(windowed, period=2, epsilon=1e-5)
        ranks = DistributedStencilRunner(_grid(rng), n_ranks=2)
        ranks.step()
        tiles = TiledStencilRunner.with_online_abft(
            _grid(rng), (2, 2), executor=SerialExecutor(), epsilon=1e-5
        )
        tiles.step()
        app = make_hotspot_app((8, 8, 2))
        campaign = (
            app.build_grid, make_protector_factory("online-abft"),
            CampaignConfig(iterations=4, repetitions=3, seed=3),
        )
        reference = app.reference_solution(4)
        engine = CampaignEngine(executor="serial")
        # Builds and keeps the worker's stacked batch.
        engine.run(*campaign, reference=reference)

        log = []
        use_backend(_spy_backend(log))

        def calls(run):
            del log[:]
            result = run()
            return Counter(log), result

        # grid.step, then the online checksum.
        made, _ = calls(lambda: online.step(grid))
        assert (made["step_into"], made["checksum"]) == (1, 1)
        # A flip in the first window: the window-closing checksum
        # detects it and rollback_and_recompute replays both steps.
        flip = FaultInjector([FaultPlan(iteration=1, index=(5, 5), bit=27)])
        made, report = calls(lambda: offline.run(windowed, 2, inject=flip))
        assert report.total_rollbacks == 1
        assert made["step_into"] == 4
        assert made["checksum"] >= 2
        made, _ = calls(ranks.step)
        assert (made["step_into"], made["checksum"]) == (2, 2)
        made, _ = calls(tiles.step)
        assert (made["sweep_padded"], made["checksum"]) == (4, 4)
        made, result = calls(lambda: engine.run(*campaign, reference=reference))
        engine.shutdown()
        assert result.strategy_counts() == {"stacked": 3}
        assert made["batch_step_into"] == 4
        assert made["checksum"] >= 4
