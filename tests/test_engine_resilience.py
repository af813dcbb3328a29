"""Campaign-engine resilience to worker failure (chaos testing).

A pool worker that dies or hangs mid-campaign must not lose work or
change results: the engine detects the broken/overdue wave, banks every
batch that did complete, restarts the pool and re-dispatches the losses.
Because each batch replays the same pre-drawn fault plans, the records
of a disturbed campaign are bitwise-identical to an undisturbed one —
``worker_restarts`` is the proof the failure actually struck.
"""

import os

import pytest

from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.engine import CampaignEngine


class _RaisesInWorker:
    """Protector factory that works in the parent and raises in a worker."""

    def __init__(self):
        self.parent_pid = os.getpid()
        self.inner = make_protector_factory("online-abft")

    def __call__(self, grid):
        if os.getpid() != self.parent_pid:
            raise ArithmeticError("protector factory failed in a worker")
        return self.inner(grid)


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


class TestChaosConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="chaos"):
            CampaignEngine(chaos="worker-nap")

    def test_env_var_arms_chaos(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "worker-kill")
        assert CampaignEngine().chaos == "worker-kill"

    def test_off_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "worker-kill")
        assert CampaignEngine(chaos="off").chaos is None

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="worker_timeout"):
            CampaignEngine(worker_timeout=0)


class TestWorkerFailureResilience:
    def test_worker_kill_is_survived_bitwise(self, small_campaign):
        app, factory, config, reference, want = small_campaign
        with CampaignEngine(
            executor="process", workers=2, batch_size=3, chaos="worker-kill"
        ) as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            assert engine.worker_restarts >= 1
        assert [_record_key(r) for r in result.records] == want

    def test_worker_hang_is_timed_out_and_survived(self, small_campaign):
        app, factory, config, reference, want = small_campaign
        with CampaignEngine(
            executor="process", workers=2, batch_size=3,
            chaos="worker-hang", worker_timeout=10.0,
        ) as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            assert engine.worker_restarts >= 1
        assert [_record_key(r) for r in result.records] == want

    def test_serial_executor_ignores_chaos(self, small_campaign):
        app, factory, config, reference, want = small_campaign
        with CampaignEngine(
            executor="serial", batch_size=3, chaos="worker-kill"
        ) as engine:
            result = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            assert engine.worker_restarts == 0
        assert [_record_key(r) for r in result.records] == want

    def test_dispatch_attempts_are_bounded(self, small_campaign):
        """A failure on every wave must end in an error, not a livelock."""
        app, factory, config, reference, _ = small_campaign
        with CampaignEngine(
            executor="process", workers=2, batch_size=3,
            chaos="worker-kill", max_dispatch_attempts=1,
        ) as engine:
            with pytest.raises(RuntimeError, match="dispatch attempts"):
                engine.run(app.build_grid, factory, config, reference=reference)

    def test_worker_exception_is_surfaced_not_retried(self, small_campaign):
        """A live worker's exception is the cause, not a pool death."""
        app, _, config, reference, _ = small_campaign
        factory = _RaisesInWorker()
        with CampaignEngine(
            executor="process", workers=1, batch_size=12
        ) as engine:
            with pytest.raises(RuntimeError, match="run 0 \\(width 12\\)") as info:
                engine.run(app.build_grid, factory, config, reference=reference)
            assert engine.worker_restarts == 0
        assert isinstance(info.value.__cause__, ArithmeticError)
        assert "protector factory failed" in str(info.value)

    def test_pool_is_reusable_after_a_chaos_run(self, small_campaign):
        """The restarted pool keeps serving later (clean) campaigns."""
        app, factory, config, reference, want = small_campaign
        with CampaignEngine(
            executor="process", workers=2, batch_size=3, chaos="worker-kill"
        ) as engine:
            engine.run(app.build_grid, factory, config, reference=reference)
            restarts = engine.worker_restarts
            assert restarts >= 1
            engine.chaos = None  # subsequent campaigns run undisturbed
            again = engine.run(
                app.build_grid, factory, config, reference=reference
            )
            assert engine.worker_restarts == restarts
        assert [_record_key(r) for r in again.records] == want
