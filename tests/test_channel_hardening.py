"""SimChannel link-level integrity: CRCs, retransmission, diagnostics.

The simulated interconnect carries every halo strip of the distributed
runner.  Hardening gives it a per-payload CRC32 with sender-side
retention: a corrupted or dropped message is detected at receive time
and recovered by "retransmission" from the pristine copy, with per-tag
accounting, so in-flight faults never silently poison a rank's ghosts.
An empty mailbox raises a :class:`ChannelError` that names the link
instead of a bare ``KeyError``/``IndexError``.
"""

import zlib

import numpy as np
import pytest

from repro.faults.models import DistributedFaultInjector, RegionTargeted
from repro.parallel.simmpi import (
    ChannelError,
    DistributedStencilRunner,
    SimChannel,
)
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion


def _grid_2d(rng, shape=(24, 18)):
    u0 = (rng.random(shape) * 100).astype(np.float32)
    return Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())


class TestChannelError:
    def test_empty_mailbox_names_the_link(self):
        with pytest.raises(ChannelError) as exc:
            SimChannel().recv(3, 7, "to_lo")
        msg = str(exc.value)
        assert "rank 3" in msg
        assert "rank 7" in msg
        assert "'to_lo'" in msg

    def test_subclasses_runtime_error(self):
        # Pre-hardening callers guarded the empty mailbox with
        # ``RuntimeError`` and the message prefix "no message".
        with pytest.raises(RuntimeError, match="no message"):
            SimChannel().recv(0, 1, "halo")


class TestScheduledFaults:
    def test_corrupt_is_detected_and_retransmitted(self):
        channel = SimChannel()
        payload = np.arange(8, dtype=np.float64)
        channel.schedule_fault(1, action="corrupt", index=(3,), bit=62)
        channel.send(0, 1, "halo", payload)
        got = channel.recv(0, 1, "halo")
        np.testing.assert_array_equal(got, payload)
        assert channel.messages_corrupted == 1
        assert channel.messages_retransmitted == 1
        assert channel.corrupted_by_tag == {"halo": 1}
        assert channel.retransmitted_by_tag == {"halo": 1}

    def test_drop_is_detected_and_retransmitted(self):
        channel = SimChannel()
        payload = np.arange(6, dtype=np.float32)
        channel.schedule_fault(1, action="drop")
        channel.send(0, 1, "halo", payload)
        got = channel.recv(0, 1, "halo")
        np.testing.assert_array_equal(got, payload)
        assert channel.messages_dropped == 1
        assert channel.messages_retransmitted == 1
        assert channel.dropped_by_tag == {"halo": 1}

    def test_only_the_scheduled_ordinal_is_hit(self):
        channel = SimChannel()
        channel.schedule_fault(2, action="corrupt", index=(0,), bit=62)
        for i in range(3):
            channel.send(0, 1, "halo", np.full(4, float(i)))
        for i in range(3):
            np.testing.assert_array_equal(
                channel.recv(0, 1, "halo"), np.full(4, float(i))
            )
        assert channel.messages_corrupted == 1
        assert channel.messages_retransmitted == 1

    def test_crc_is_taken_only_for_a_struck_payload(self, monkeypatch):
        # An unstruck payload is its own retention copy and is never
        # checked, so only the struck one pays a CRC32: once when it is
        # sent and once when it is received.
        calls = []
        crc32 = zlib.crc32

        def spy(data, *args):
            calls.append(len(data))
            return crc32(data, *args)

        monkeypatch.setattr(zlib, "crc32", spy)
        channel = SimChannel()
        channel.schedule_fault(4, action="corrupt", index=(1,), bit=62)
        for i in range(10):
            channel.send(0, 1, "halo", np.full(8, float(i)))
        for i in range(10):
            np.testing.assert_array_equal(
                channel.recv(0, 1, "halo"), np.full(8, float(i))
            )
        assert len(calls) == 2
        assert channel.messages_corrupted == 1
        assert channel.messages_retransmitted == 1

    def test_traffic_reports_loss_accounting(self):
        channel = SimChannel()
        channel.schedule_fault(1, action="drop")
        channel.schedule_fault(2, action="corrupt", index=(0,), bit=62)
        channel.send(0, 1, "a", np.zeros(4))
        channel.send(0, 1, "b", np.ones(4))
        channel.recv(0, 1, "a")
        channel.recv(0, 1, "b")
        snapshot = channel.traffic()
        assert snapshot["messages_dropped"] == 1
        assert snapshot["messages_corrupted"] == 1
        assert snapshot["messages_retransmitted"] == 2
        assert snapshot["dropped_by_tag"] == {"a": 1}
        assert snapshot["corrupted_by_tag"] == {"b": 1}
        assert snapshot["retransmitted_by_tag"] == {"a": 1, "b": 1}

    def test_cannot_schedule_a_past_send(self):
        channel = SimChannel()
        channel.send(0, 1, "halo", np.zeros(2))
        with pytest.raises(ValueError):
            channel.schedule_fault(1, action="corrupt", index=(0,), bit=3)


class TestDistributedPayloadFaults:
    """In-flight halo faults end to end on the distributed runner."""

    @pytest.mark.parametrize("action", ["corrupt", "drop"])
    def test_halo_fault_is_recovered_bitwise(self, rng, action):
        grid = _grid_2d(rng)
        clean = DistributedStencilRunner(
            grid.copy(), n_ranks=3, protect=True, epsilon=1e-5
        )
        clean.run(10)

        runner = DistributedStencilRunner(
            grid.copy(), n_ranks=3, protect=True, epsilon=1e-5
        )
        plans = [[] for _ in runner.ranks]
        plans[1] = RegionTargeted(
            region="payload", action=action, bit=27
        ).draw(np.random.default_rng(3), runner.ranks[1].shape, 10)
        inject = DistributedFaultInjector(runner, plans)
        runner.run(10, inject=inject)

        lost = (
            runner.channel.messages_dropped
            + runner.channel.messages_corrupted
        )
        assert lost == 1
        assert runner.channel.messages_retransmitted == 1
        assert runner.total_detected() == 0
        np.testing.assert_array_equal(runner.gather(), clean.gather())

    def test_ghost_fault_fires_after_ingest(self, rng):
        grid = _grid_2d(rng)
        clean = DistributedStencilRunner(
            grid.copy(), n_ranks=3, protect=True, epsilon=1e-5
        )
        clean.run(10)

        runner = DistributedStencilRunner(
            grid.copy(), n_ranks=3, protect=True, epsilon=1e-5
        )
        plans = [[] for _ in runner.ranks]
        plans[1] = RegionTargeted(region="ghost", bit=27).draw(
            np.random.default_rng(5), runner.ranks[1].shape, 10
        )
        inject = DistributedFaultInjector(runner, plans)
        runner.run(10, inject=inject)
        assert inject.fired_count == 1
        # A ghost flipped *after* CRC-verified ingestion corrupts memory,
        # not the wire: the sweep and the checksum interpolation read the
        # same ghost values, so ABFT is structurally blind to it and the
        # trajectory diverges.  (Transport CRCs are the honest defence:
        # the in-flight variant above recovers bitwise.)
        assert not np.array_equal(runner.gather(), clean.gather())

    def test_payload_plans_need_halo_traffic(self, rng):
        grid = _grid_2d(rng)
        runner = DistributedStencilRunner(grid, n_ranks=1, protect=False)
        plans = [RegionTargeted(region="payload").draw(
            np.random.default_rng(0), runner.ranks[0].shape, 5
        )]
        with pytest.raises(ValueError, match="no messages|no neighbours"):
            DistributedFaultInjector(runner, plans)
