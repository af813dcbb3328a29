"""Tests for the simulated message-passing (distributed-memory) runner."""

import tracemalloc

import numpy as np
import pytest

from conftest import all_boundary_conditions
from repro.core.online import OnlineABFT
from repro.core.protector import NoProtection
from repro.faults.bitflip import flip_bit_in_array
from repro.metrics.accuracy import l2_error
from repro.parallel.simmpi import DistributedStencilRunner, SimChannel
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.spec import StencilSpec
from repro.stencil.kernels import (
    asymmetric_advection_2d,
    five_point_diffusion,
    seven_point_diffusion_3d,
)


def _grid_2d(rng, shape=(24, 18), bc=None, spec=None):
    spec = spec or five_point_diffusion(0.2)
    bc = bc or BoundaryCondition.clamp()
    u0 = (rng.random(shape) * 100).astype(np.float32)
    return Grid2D(u0, spec, bc)


class TestSimChannel:
    def test_send_recv_fifo(self):
        channel = SimChannel()
        channel.send(0, 1, "halo", np.array([1.0, 2.0]))
        channel.send(0, 1, "halo", np.array([3.0]))
        np.testing.assert_array_equal(channel.recv(0, 1, "halo"), [1.0, 2.0])
        np.testing.assert_array_equal(channel.recv(0, 1, "halo"), [3.0])
        assert channel.pending() == 0

    def test_payload_copied_on_send(self):
        channel = SimChannel()
        payload = np.array([1.0, 2.0])
        channel.send(0, 1, "x", payload)
        payload[0] = 99.0
        np.testing.assert_array_equal(channel.recv(0, 1, "x"), [1.0, 2.0])

    def test_missing_message_raises(self):
        with pytest.raises(RuntimeError, match="no message"):
            SimChannel().recv(0, 1, "halo")

    def test_traffic_counters(self):
        channel = SimChannel()
        channel.send(0, 1, "a", np.zeros(4, dtype=np.float64))
        assert channel.messages_sent == 1
        assert channel.bytes_sent == 32

    def test_per_tag_accounting(self):
        channel = SimChannel()
        channel.send(0, 1, "to_lo", np.zeros(4, dtype=np.float64))
        channel.send(1, 0, "to_hi", np.zeros(2, dtype=np.float64))
        channel.send(2, 1, "to_hi", np.zeros(3, dtype=np.float64))
        assert channel.messages_by_tag == {"to_lo": 1, "to_hi": 2}
        assert channel.bytes_by_tag == {"to_lo": 32, "to_hi": 40}
        snapshot = channel.traffic()
        assert snapshot["messages_sent"] == 3
        assert snapshot["bytes_sent"] == 72
        assert snapshot["messages_by_tag"] == {"to_lo": 1, "to_hi": 2}
        assert snapshot["bytes_by_tag"] == {"to_lo": 32, "to_hi": 40}
        # The snapshot is a copy, not a live view of the counters.
        snapshot["messages_by_tag"]["to_lo"] = 99
        assert channel.messages_by_tag["to_lo"] == 1


class TestDistributedEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
    def test_distributed_run_bitwise_equals_single_grid(self, rng, n_ranks):
        grid = _grid_2d(rng)
        single = grid.copy()
        runner = DistributedStencilRunner(
            grid, n_ranks=n_ranks, protect=False
        )
        runner.run(8)
        NoProtection().run(single, 8)
        np.testing.assert_array_equal(runner.gather(), single.u)

    def test_periodic_boundary_wraps_between_first_and_last_rank(self, rng):
        grid = _grid_2d(rng, bc=BoundaryCondition.periodic())
        single = grid.copy()
        runner = DistributedStencilRunner(
            grid, n_ranks=3, protect=False
        )
        runner.run(6)
        NoProtection().run(single, 6)
        np.testing.assert_array_equal(runner.gather(), single.u)

    def test_asymmetric_stencil_equivalence(self, rng):
        grid = _grid_2d(
            rng, bc=BoundaryCondition.periodic(),
            spec=asymmetric_advection_2d(0.25, 0.15),
        )
        single = grid.copy()
        runner = DistributedStencilRunner(
            grid, n_ranks=4, protect=False
        )
        runner.run(5)
        NoProtection().run(single, 5)
        np.testing.assert_array_equal(runner.gather(), single.u)

    def test_3d_domain_with_constant_term(self, rng):
        u0 = (rng.random((16, 10, 4)) * 50).astype(np.float32)
        constant = (rng.random((16, 10, 4)) * 0.2).astype(np.float32)
        grid = Grid3D(u0, seven_point_diffusion_3d(0.1), BoundaryCondition.clamp(),
                      constant=constant)
        single = grid.copy()
        runner = DistributedStencilRunner(
            grid, n_ranks=4, protect=False
        )
        runner.run(6)
        NoProtection().run(single, 6)
        np.testing.assert_array_equal(runner.gather(), single.u)

    def test_halo_messages_flow_every_iteration(self, rng):
        grid = _grid_2d(rng)
        runner = DistributedStencilRunner(grid, n_ranks=4, protect=False)
        runner.run(3)
        # 4 ranks in a line: 3 interfaces x 2 directions x 3 iterations.
        assert runner.channel.messages_sent == 18
        assert runner.channel.pending() == 0

    def test_invalid_rank_count(self, rng):
        with pytest.raises(ValueError):
            DistributedStencilRunner(_grid_2d(rng), n_ranks=0)

    @pytest.mark.parametrize("protect", [False, True], ids=["unprot", "prot"])
    def test_unknown_keyword_rejected(self, rng, protect):
        with pytest.raises(TypeError, match="'chekpoint_period'"):
            DistributedStencilRunner(
                _grid_2d(rng), n_ranks=2, protect=protect, chekpoint_period=4
            )

    @pytest.mark.parametrize("protect", [False, True], ids=["unprot", "prot"])
    def test_runner_set_keyword_rejected(self, rng, protect):
        # The runner sets each rank's shape itself; it is no ABFT option.
        with pytest.raises(TypeError, match="'shape'"):
            DistributedStencilRunner(
                _grid_2d(rng), n_ranks=2, protect=protect, shape=(4, 4)
            )

    def test_abft_keyword_accepted_unprotected(self, rng):
        runner = DistributedStencilRunner(
            _grid_2d(rng), n_ranks=2, protect=False, epsilon=1e-5
        )
        assert all(rank.protector is None for rank in runner.ranks)


class TestDistributedProtection:
    def test_error_free_no_detection(self, rng):
        grid = _grid_2d(rng)
        runner = DistributedStencilRunner(grid, n_ranks=3, protect=True, epsilon=1e-5)
        runner.run(10)
        assert runner.total_detected() == 0

    def test_rank_local_detection_and_correction(self, rng):
        grid = _grid_2d(rng)
        reference = grid.copy()
        reference.run(10)

        target_global = (15, 7)
        runner = DistributedStencilRunner(grid, n_ranks=3, protect=True, epsilon=1e-5)
        target_rank, target_local = runner.rank_of_global_index(target_global)

        def inject(run, iteration, rank):
            from repro.faults.bitflip import flip_bit_in_array

            if iteration == 4 and rank.rank == target_rank:
                flip_bit_in_array(rank.interior, target_local, 26)

        runner.run(10, inject=inject)
        assert runner.total_detected() >= 1
        assert runner.total_corrected() >= 1
        # Only the struck rank's protector fired.
        for r in runner.ranks:
            if r.rank == target_rank:
                assert r.protector.total_detections >= 1
            else:
                assert r.protector.total_detections == 0
        assert l2_error(reference.u, runner.gather()) < 1.0

    def test_3d_rank_local_detection_and_correction(self, rng):
        u0 = (rng.random((18, 10, 4)) * 50 + 300).astype(np.float32)
        constant = (rng.random((18, 10, 4)) * 0.2).astype(np.float32)
        grid = Grid3D(
            u0, seven_point_diffusion_3d(0.1), BoundaryCondition.clamp(),
            constant=constant,
        )
        reference = grid.copy()
        reference.run(8)
        runner = DistributedStencilRunner(grid, n_ranks=3, protect=True, epsilon=1e-5)
        target_rank, target_local = runner.rank_of_global_index((7, 4, 2))

        def inject(run, iteration, rank):
            if iteration == 3 and rank.rank == target_rank:
                flip_bit_in_array(rank.interior, target_local, 28)

        runner.run(8, inject=inject)
        assert runner.total_corrected() >= 1
        # Only the struck rank's protector fired.
        assert [r.protector.total_detections > 0 for r in runner.ranks] == [
            r.rank == target_rank for r in runner.ranks
        ]
        assert l2_error(reference.u, runner.gather()) < 1.0

    def test_rank_of_global_index(self, rng):
        grid = _grid_2d(rng, shape=(10, 6))
        runner = DistributedStencilRunner(grid, n_ranks=2, protect=False)
        rank, local = runner.rank_of_global_index((7, 3))
        assert rank == 1
        assert local == (2, 3)
        with pytest.raises(ValueError):
            runner.rank_of_global_index((99, 0))

    def test_rank_of_global_index_on_uneven_blocks(self, rng):
        runner = DistributedStencilRunner(
            _grid_2d(rng, shape=(23, 6)), n_ranks=4, protect=False
        )
        assert [r.shape[0] for r in runner.ranks] == [6, 6, 6, 5]
        owners = []
        for x in range(23):
            rank, local = runner.rank_of_global_index((x, 5))
            assert runner.ranks[rank].global_offset + local[0] == x
            assert local[1] == 5
            owners.append(rank)
        assert owners == [0] * 6 + [1] * 6 + [2] * 6 + [3] * 5


class TestZeroCopyRankLifecycle:
    """The buffer-pair rank lifecycle: bit-identity and zero allocation."""

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    @pytest.mark.parametrize("protect", [False, True], ids=["unprot", "prot"])
    @pytest.mark.parametrize("rows", [24, 23], ids=["even", "uneven"])
    def test_2d_gather_bitwise_equals_serial_steps(self, rng, bc, protect, rows):
        grid = _grid_2d(rng, shape=(rows, 18), bc=bc)
        serial = grid.copy()
        runner = DistributedStencilRunner(
            grid, n_ranks=4, protect=protect, epsilon=1e-5
        )
        runner.run(7)
        if protect:
            protector = OnlineABFT.for_grid(serial, epsilon=1e-5)
            for _ in range(7):
                protector.step(serial)
        else:
            for _ in range(7):
                serial.step()
        np.testing.assert_array_equal(runner.gather(), serial.u)
        if protect:
            assert runner.total_detected() == 0

    @pytest.mark.parametrize("bc", all_boundary_conditions(), ids=lambda b: b.kind)
    @pytest.mark.parametrize("protect", [False, True], ids=["unprot", "prot"])
    def test_3d_gather_bitwise_equals_serial_steps(self, rng, bc, protect):
        u0 = (rng.random((16, 10, 4)) * 50).astype(np.float32)
        constant = (rng.random((16, 10, 4)) * 0.2).astype(np.float32)
        grid = Grid3D(
            u0, seven_point_diffusion_3d(0.1), bc, constant=constant
        )
        serial = grid.copy()
        runner = DistributedStencilRunner(
            grid, n_ranks=4, protect=protect, epsilon=1e-5
        )
        runner.run(5)
        if protect:
            protector = OnlineABFT.for_grid(serial, epsilon=1e-5)
            for _ in range(5):
                protector.step(serial)
        else:
            for _ in range(5):
                serial.step()
        np.testing.assert_array_equal(runner.gather(), serial.u)

    def test_injected_run_bitwise_equals_serial_injected_run(self, rng):
        """A flip at a global index is detected on exactly the owning rank
        and repaired to the same bits the serial protector produces.

        The row strategy corrects from sums over non-distributed axes
        only, so the rank computes exactly the numbers the serial
        protector computes and the repaired domains match bit for bit.
        """
        grid = _grid_2d(rng, shape=(96, 64))
        serial = grid.copy()
        target_global = (70, 20)
        runner = DistributedStencilRunner(
            grid, n_ranks=4, protect=True, epsilon=1e-5,
            correction_strategy="row",
        )
        target_rank, target_local = runner.rank_of_global_index(target_global)

        def inject_rank(run, iteration, rank):
            if iteration == 4 and rank.rank == target_rank:
                flip_bit_in_array(rank.interior, target_local, 26)

        runner.run(8, inject=inject_rank)

        protector = OnlineABFT.for_grid(
            serial, epsilon=1e-5, correction_strategy="row"
        )

        def inject_serial(g, iteration):
            if iteration == 4:
                flip_bit_in_array(g.u, target_global, 26)

        for _ in range(8):
            protector.step(serial, inject=inject_serial)

        np.testing.assert_array_equal(runner.gather(), serial.u)
        assert runner.total_detected() == protector.total_detections
        assert runner.total_corrected() == protector.total_corrections
        for r in runner.ranks:
            expected = protector.total_detections if r.rank == target_rank else 0
            assert r.protector.total_detections == expected

    def test_interior_is_live_view_of_buffer_pair(self, rng):
        grid = _grid_2d(rng)
        runner = DistributedStencilRunner(grid, n_ranks=2, protect=False)
        rank = runner.ranks[0]
        assert rank.interior.base is not None
        assert np.may_share_memory(rank.interior, rank.buffers.front)

    def test_protected_step_allocates_no_full_block(self, rng):
        """Tracemalloc gate: the rank lifecycle never materialises a block.

        The legacy path allocated three full blocks per rank per
        iteration (stack_with_halos concatenate, pad_array ghost block,
        fresh sweep output); the zero-copy lifecycle's peak transient
        footprint must stay well under a single block.
        """
        # Blocks must dwarf the fixed transient footprint of a protected
        # step (~100 KB of checksum vectors, interpolation strips and
        # halo payloads) for the half-block threshold to discriminate:
        # 4 ranks x 128x512 float32 = 256 KB per block.
        grid = _grid_2d(rng, shape=(512, 512))
        runner = DistributedStencilRunner(
            grid, n_ranks=4, protect=True, epsilon=1e-5
        )
        runner.run(3)  # warm-up: scratch buffers, first checksums
        block_bytes = runner.ranks[0].interior.nbytes
        tracemalloc.start()
        runner.run(1)  # absorb steady-state churn under tracing
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        runner.run(5)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - baseline < block_bytes // 2


def _radius2_cross():
    """A radius-2 cross: halos two cells deep along either axis."""
    return StencilSpec(
        [((0, 0), 0.4), ((2, 0), 0.15), ((-2, 0), 0.15),
         ((0, 2), 0.15), ((0, -2), 0.15)]
    )


class TestSingleStepSchedule:
    """One halo exchange per sweep, halos exactly one stencil radius deep."""

    @pytest.mark.parametrize("protect", [False, True], ids=["unprot", "prot"])
    @pytest.mark.parametrize("n_ranks", [2, 3, 4])
    def test_periodic_radius2_bitwise_equals_serial(self, rng, n_ranks, protect):
        grid = _grid_2d(rng, bc=BoundaryCondition.periodic(),
                        spec=_radius2_cross())
        serial = grid.copy()
        runner = DistributedStencilRunner(
            grid, n_ranks=n_ranks, protect=protect, epsilon=1e-5
        )
        assert runner.halo_width == 2
        runner.run(7)
        NoProtection().run(serial, 7)
        np.testing.assert_array_equal(runner.gather(), serial.u)
        assert runner.iteration == 7
        assert runner.total_detected() == 0

    @pytest.mark.parametrize("n_ranks", [2, 3])
    def test_3d_periodic_bitwise_equals_serial(self, rng, n_ranks):
        u0 = (rng.random((18, 8, 6)) * 50).astype(np.float32)
        grid = Grid3D(u0, seven_point_diffusion_3d(0.1),
                      BoundaryCondition.periodic())
        serial = grid.copy()
        runner = DistributedStencilRunner(grid, n_ranks=n_ranks, protect=False)
        runner.run(5)
        NoProtection().run(serial, 5)
        np.testing.assert_array_equal(runner.gather(), serial.u)

    @pytest.mark.parametrize(
        "offsets, width",
        [
            ([((3, 0), 0.25), ((0, -1), 0.25)], 3),
            ([((-2, 0), 0.25), ((0, 3), 0.25)], 2),
            ([((1, 1), 0.25), ((0, -2), 0.25)], 1),
            ([((0, 1), 0.25), ((0, -1), 0.25)], 0),
        ],
        ids=["reach-3", "reach-2-wider-on-axis1", "reach-1-diagonal", "reach-0"],
    )
    def test_halo_width_is_stencil_radius(self, rng, offsets, width):
        """The halo is as deep as the stencil's axis-0 reach, whatever it
        reaches along axis 1 or on the other side; with no reach, ranks
        exchange nothing."""
        spec = StencilSpec([((0, 0), 0.5), *offsets])
        grid = _grid_2d(rng, bc=BoundaryCondition.periodic(), spec=spec)
        serial = grid.copy()
        runner = DistributedStencilRunner(grid, n_ranks=3, protect=False)
        assert runner.halo_width == spec.radius()[0] == width
        runner.run(4)
        NoProtection().run(serial, 4)
        np.testing.assert_array_equal(runner.gather(), serial.u)
        assert (runner.channel.messages_sent == 0) == (width == 0)

    def test_one_exchange_per_step(self, rng):
        """7 iterations on a 4-rank ring: seven exchange rounds, each
        4 interfaces x 2 directions = 8 messages of one radius-deep slab."""
        grid = _grid_2d(rng, bc=BoundaryCondition.periodic())
        runner = DistributedStencilRunner(grid, n_ranks=4, protect=False)
        runner.run(7)
        assert runner.channel.messages_sent == 7 * 8
        assert runner.channel.pending() == 0
        per_msg = grid.shape[1] * runner.halo_width * grid.u.itemsize
        assert runner.channel.bytes_sent == 7 * 8 * per_msg

    def test_inject_hook_sees_every_iteration_and_rank(self, rng):
        grid = _grid_2d(rng, bc=BoundaryCondition.periodic())
        runner = DistributedStencilRunner(grid, n_ranks=3, protect=False)
        seen = []

        def inject(run, iteration, rank):
            seen.append((iteration, rank.rank))

        runner.run(5, inject=inject)
        assert runner.channel.messages_sent == 5 * 6
        assert seen == [(i, r) for i in range(1, 6) for r in range(3)]

    @pytest.mark.parametrize("period", [0, -2])
    def test_invalid_checkpoint_period(self, rng, period):
        with pytest.raises(ValueError, match="checkpoint_period must be >= 1"):
            DistributedStencilRunner(
                _grid_2d(rng), n_ranks=2, protect=False,
                checkpoint_period=period,
            )
