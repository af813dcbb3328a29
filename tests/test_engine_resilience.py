"""Campaign-engine resilience to worker failure.

A pool worker that dies or hangs mid-campaign must not lose work or
change results: the engine detects the broken/overdue wave, banks every
batch that did complete, restarts the pool and re-dispatches the losses.
Because each batch replays the same pre-drawn fault plans, the records
of a disturbed campaign are bitwise-identical to an undisturbed one —
``worker_restarts`` is the proof the failure actually struck.  The
failures come from protector factories that sabotage the pool worker
building them, so the engine under test is the one every caller runs.
"""

import os
import time

import pytest

from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.engine import CampaignEngine


class _SabotagesWorker:
    """Protector factory that sabotages the pool worker building it.

    ``action`` is ``"kill"`` (``os._exit``), ``"hang"`` (``time.sleep``)
    or ``"raise"``.  It strikes in a worker process only, so the parent
    can still build its sample protector.  With a ``marker`` file the
    first worker to remove it strikes and every later one builds
    normally, so the failure happens exactly once; without one, every
    worker strikes.
    """

    def __init__(self, action, marker=None):
        self.parent_pid = os.getpid()
        self.action = action
        self.marker = None if marker is None else str(marker)
        self.inner = make_protector_factory("online-abft")

    def _claim(self):
        if self.marker is None:
            return True
        try:
            os.remove(self.marker)
        except FileNotFoundError:
            return False
        return True

    def __call__(self, grid):
        if os.getpid() != self.parent_pid and self._claim():
            if self.action == "kill":
                os._exit(43)
            if self.action == "raise":
                raise ArithmeticError("protector factory failed in a worker")
            time.sleep(3600)
        return self.inner(grid)


def _strikes_once(tmp_path, action):
    marker = tmp_path / f"{action}-once"
    marker.touch()
    return _SabotagesWorker(action, marker)


def _record_key(record):
    return (
        record.run_index,
        record.arithmetic_error,
        record.errors_detected,
        record.errors_corrected,
        record.errors_uncorrected,
        record.rollbacks,
        record.recomputed_iterations,
        tuple((p.iteration, p.index, p.bit) for p in record.faults),
    )


@pytest.fixture(scope="module")
def small_campaign():
    app = make_hotspot_app((16, 16, 4))
    iterations = 8
    reference = app.reference_solution(iterations)
    factory = make_protector_factory("online-abft")
    config = CampaignConfig(iterations=iterations, repetitions=12, seed=9)
    legacy = run_campaign(app.build_grid, factory, config, reference=reference)
    return app, factory, config, reference, [
        _record_key(r) for r in legacy.records
    ]


class TestEngineConfig:
    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="worker_timeout"):
            CampaignEngine(worker_timeout=0)

    def test_bad_timeout_variable_is_named(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "abc")
        with pytest.raises(ValueError, match="REPRO_WORKER_TIMEOUT.*'abc'"):
            CampaignEngine()


class TestWorkerFailureResilience:
    def test_worker_kill_is_survived_bitwise(self, small_campaign, tmp_path):
        app, _, config, reference, want = small_campaign
        factory = _strikes_once(tmp_path, "kill")
        with CampaignEngine(
            executor="process", workers=2, batch_size=3
        ) as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            assert engine.worker_restarts >= 1
        assert [_record_key(r) for r in result.records] == want

    def test_worker_hang_is_timed_out_and_survived(
        self, small_campaign, tmp_path
    ):
        app, _, config, reference, want = small_campaign
        factory = _strikes_once(tmp_path, "hang")
        with CampaignEngine(
            executor="process", workers=2, batch_size=3, worker_timeout=10.0,
        ) as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            assert engine.worker_restarts >= 1
        assert [_record_key(r) for r in result.records] == want

    def test_dispatch_attempts_are_bounded(self, small_campaign):
        """A failure on every wave must end in an error, not a livelock."""
        app, _, config, reference, _ = small_campaign
        factory = _SabotagesWorker("kill")
        with CampaignEngine(
            executor="process", workers=2, batch_size=3
        ) as engine:
            with pytest.raises(
                RuntimeError, match="after 3 dispatch attempts"
            ):
                engine.run(app.build_grid, factory, config, reference=reference)
            assert engine.worker_restarts == 3

    def test_worker_exception_is_surfaced_not_retried(self, small_campaign):
        """A live worker's exception is the cause, not a pool death."""
        app, _, config, reference, _ = small_campaign
        factory = _SabotagesWorker("raise")
        with CampaignEngine(
            executor="process", workers=1, batch_size=12
        ) as engine:
            with pytest.raises(RuntimeError, match="run 0 \\(width 12\\)") as info:
                engine.run(app.build_grid, factory, config, reference=reference)
            assert engine.worker_restarts == 0
        assert isinstance(info.value.__cause__, ArithmeticError)
        assert "protector factory failed" in str(info.value)

    def test_pool_is_reusable_after_a_worker_death(
        self, small_campaign, tmp_path
    ):
        """The restarted pool keeps serving later (clean) campaigns."""
        app, _, config, reference, want = small_campaign
        factory = _strikes_once(tmp_path, "kill")
        with CampaignEngine(
            executor="process", workers=2, batch_size=3
        ) as engine:
            engine.run(app.build_grid, factory, config, reference=reference)
            restarts = engine.worker_restarts
            assert restarts >= 1
            # The marker is spent: later campaigns run undisturbed.
            again = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            assert engine.worker_restarts == restarts
        assert [_record_key(r) for r in again.records] == want
