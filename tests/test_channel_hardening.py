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
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.injector import FaultPlan
from repro.faults.models import DistributedFaultInjector, RegionTargeted
from repro.parallel.simmpi import (
    ChannelError,
    DistributedStencilRunner,
    SimChannel,
)
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion
from repro.stencil.spec import StencilSpec


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
        channel.send(0, 1, "halo", payload, strike=("corrupt", 3, 62))
        got = channel.recv(0, 1, "halo")
        np.testing.assert_array_equal(got, payload)
        assert channel.messages_corrupted == 1
        assert channel.messages_retransmitted == 1
        assert channel.corrupted_by_tag == {"halo": 1}
        assert channel.retransmitted_by_tag == {"halo": 1}

    def test_drop_is_detected_and_retransmitted(self):
        channel = SimChannel()
        payload = np.arange(6, dtype=np.float32)
        channel.send(0, 1, "halo", payload, strike=("drop", 0, 0))
        got = channel.recv(0, 1, "halo")
        np.testing.assert_array_equal(got, payload)
        assert channel.messages_dropped == 1
        assert channel.messages_retransmitted == 1
        assert channel.dropped_by_tag == {"halo": 1}

    def test_only_the_struck_send_is_hit(self):
        channel = SimChannel()
        for i in range(3):
            strike = ("corrupt", 0, 62) if i == 1 else None
            channel.send(0, 1, "halo", np.full(4, float(i)), strike=strike)
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
        for i in range(10):
            strike = ("corrupt", 1, 62) if i == 3 else None
            channel.send(0, 1, "halo", np.full(8, float(i)), strike=strike)
        for i in range(10):
            np.testing.assert_array_equal(
                channel.recv(0, 1, "halo"), np.full(8, float(i))
            )
        assert len(calls) == 2
        assert channel.messages_corrupted == 1
        assert channel.messages_retransmitted == 1

    def test_traffic_reports_loss_accounting(self):
        channel = SimChannel()
        channel.send(0, 1, "a", np.zeros(4), strike=("drop", 0, 0))
        channel.send(0, 1, "b", np.ones(4), strike=("corrupt", 0, 62))
        channel.recv(0, 1, "a")
        channel.recv(0, 1, "b")
        snapshot = channel.traffic()
        assert snapshot["messages_dropped"] == 1
        assert snapshot["messages_corrupted"] == 1
        assert snapshot["messages_retransmitted"] == 2
        assert snapshot["dropped_by_tag"] == {"a": 1}
        assert snapshot["corrupted_by_tag"] == {"b": 1}
        assert snapshot["retransmitted_by_tag"] == {"a": 1, "b": 1}

    @pytest.mark.parametrize(
        "strike, match",
        [(("mangle", 0, 3), "unknown in-flight fault action"),
         (("corrupt", 2, 3), "offset 2 out of range")],
        ids=["unknown-action", "offset-out-of-range"],
    )
    def test_bad_strike_is_refused_before_posting(self, strike, match):
        channel = SimChannel()
        with pytest.raises(ValueError, match=match):
            channel.send(0, 1, "halo", np.zeros(2), strike=strike)
        assert channel.messages_sent == 0
        assert channel.pending() == 0


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

    def test_ghost_index_outside_the_slab_names_the_plan(self, rng):
        runner = DistributedStencilRunner(_grid_2d(rng), n_ranks=3)
        plan = FaultPlan(
            iteration=2, index=(0, 18), bit=27, target="ghost", side=1
        )
        inject = DistributedFaultInjector(runner, [[], [plan], []])
        with pytest.raises(ValueError, match="target='ghost'.*out of range"):
            runner.run(4, inject=inject)

    def test_ghost_plan_without_axis0_ghosts_is_refused(self, rng):
        # Radius 0 along the distributed axis: no rank has a ghost slab
        # there, so the plan is refused before the run, not at its
        # iteration.
        spec = StencilSpec.from_dict({(0, 0): 0.6, (0, -1): 0.2, (0, 1): 0.2})
        grid = Grid2D(
            (rng.random((24, 18)) * 100).astype(np.float32), spec,
            BoundaryCondition.clamp(),
        )
        runner = DistributedStencilRunner(grid, n_ranks=3)
        plan = FaultPlan(iteration=5, index=(0, 4), bit=27, target="ghost")
        with pytest.raises(ValueError, match="rank 1 has no axis-0 ghost") as exc:
            DistributedFaultInjector(runner, [[], [plan], []])
        assert repr(plan) in str(exc.value)

    @given(
        n_ranks=st.sampled_from([2, 3]),
        iteration=st.integers(min_value=1, max_value=12),
        rank=st.integers(min_value=0, max_value=2),
        side=st.sampled_from([0, 1]),
        action=st.sampled_from(["corrupt", "drop"]),
        offset=st.integers(min_value=0, max_value=10**6),
        crash_after=st.none() | st.integers(min_value=1, max_value=6),
    )
    def test_strike_recovers_bitwise_and_counts_every_firing(
        self, n_ranks, iteration, rank, side, action, offset, crash_after
    ):
        # A payload strike is asked for as the runner posts each strip;
        # one inside a window a crash rolls back fires again on replay.
        # Checkpoints fall every 4 iterations.
        rank %= n_ranks
        grid = _grid_2d(np.random.default_rng(7), shape=(16, 12))
        clean = DistributedStencilRunner(grid.copy(), n_ranks=n_ranks)
        clean.run(12)
        runner = DistributedStencilRunner(
            grid.copy(), n_ranks=n_ranks, checkpoint_period=4
        )
        plans = [[] for _ in range(n_ranks)]
        plans[rank].append(FaultPlan(
            iteration=iteration, index=(offset,), bit=30, target="payload",
            side=side, action=action,
        ))
        crash = None if crash_after is None else iteration + crash_after
        if crash is not None and crash <= 12:
            victim = (rank + 1) % n_ranks
            plans[victim].append(FaultPlan(
                iteration=crash, index=(), bit=0, target="crash", rank=victim
            ))
        else:
            crash = None
        inject = DistributedFaultInjector(runner, plans)
        fired = []
        strike = inject.payload_strike

        def spy(*args):
            fired.append(strike(*args))
            return fired[-1]

        inject.payload_strike = spy
        runner.run(12, inject=inject)

        np.testing.assert_array_equal(runner.gather(), clean.gather())
        assert runner.total_detected() == clean.total_detected()
        strikes = sum(hit is not None for hit in fired)
        channel = runner.channel
        assert channel.messages_corrupted + channel.messages_dropped == strikes
        assert channel.messages_retransmitted == strikes
        replayed = crash is not None and iteration > (crash - 1) // 4 * 4
        assert strikes == 1 + replayed

    @pytest.mark.parametrize("rank", [0, 1], ids=["rank0", "rank1"])
    @pytest.mark.parametrize("first_side", ["closed", "live"],
                             ids=["closed-edge", "live-link"])
    def test_two_plans_on_one_message_are_refused(self, rng, first_side, rank):
        # Each rank of a clamped pair sends one strip, to the other (rank
        # 0 to its high side, rank 1 to its low side); a plan for its
        # closed edge strikes that strip too.
        runner = DistributedStencilRunner(_grid_2d(rng), n_ranks=2)
        live = 1 - rank
        corrupt = FaultPlan(
            iteration=3, index=(0,), bit=30, target="payload",
            side=live if first_side == "live" else rank,
        )
        drop = FaultPlan(
            iteration=3, index=(5,), bit=30, target="payload", side=live,
            action="drop",
        )
        plans = [[], []]
        plans[rank] = [corrupt, drop]
        with pytest.raises(ValueError, match="one strike") as exc:
            DistributedFaultInjector(runner, plans)
        assert repr(corrupt) in str(exc.value)
        assert repr(drop) in str(exc.value)

    def test_one_link_in_two_iterations_fires_both_plans(self, rng):
        """The refusal is per iteration: one link struck in two
        iterations takes both strikes, and recovery repairs both."""
        grid = _grid_2d(rng)
        clean = DistributedStencilRunner(grid.copy(), n_ranks=2)
        clean.run(8)
        runner = DistributedStencilRunner(grid.copy(), n_ranks=2)
        plans = [[
            FaultPlan(iteration=3, index=(0,), bit=30, target="payload", side=1),
            FaultPlan(
                iteration=6, index=(5,), bit=30, target="payload", side=1,
                action="drop",
            ),
        ], []]
        inject = DistributedFaultInjector(runner, plans)
        runner.run(8, inject=inject)
        assert inject.fired_count == 2
        assert runner.channel.messages_corrupted == 1
        assert runner.channel.messages_dropped == 1
        np.testing.assert_array_equal(runner.gather(), clean.gather())

    def test_one_plan_per_link_fires_every_plan(self, rng):
        grid = _grid_2d(rng)
        clean = DistributedStencilRunner(grid.copy(), n_ranks=3)
        clean.run(6)
        runner = DistributedStencilRunner(grid.copy(), n_ranks=3)
        plans = [[], [
            FaultPlan(iteration=3, index=(0,), bit=30, target="payload", side=0),
            FaultPlan(
                iteration=3, index=(5,), bit=30, target="payload", side=1,
                action="drop",
            ),
        ], []]
        inject = DistributedFaultInjector(runner, plans)
        runner.run(6, inject=inject)
        assert inject.fired_count == 2
        assert runner.channel.messages_corrupted == 1
        assert runner.channel.messages_dropped == 1
        np.testing.assert_array_equal(runner.gather(), clean.gather())

    def test_payload_plans_need_halo_traffic(self, rng):
        grid = _grid_2d(rng)
        runner = DistributedStencilRunner(grid, n_ranks=1, protect=False)
        plans = [RegionTargeted(region="payload").draw(
            np.random.default_rng(0), runner.ranks[0].shape, 5
        )]
        with pytest.raises(ValueError, match="no messages|no neighbours"):
            DistributedFaultInjector(runner, plans)
