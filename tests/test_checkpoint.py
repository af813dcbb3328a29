"""Unit tests for the Snapshot type and rollback recovery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointCorrupt,
    ProtectorState,
    Snapshot,
    rollback_and_recompute,
)
from repro.parallel.simmpi import DistributedStencilRunner
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion


def _integrity(u):
    return np.sum(u, axis=0, dtype=np.float64)


def _assert_same_array(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same_snapshot(a: Snapshot, b: Snapshot) -> None:
    """Bit-for-bit equality of every field, protector state included."""
    assert a.iteration == b.iteration
    _assert_same_array(a.interior, b.interior)
    _assert_same_array(a.checksum, b.checksum)
    _assert_same_array(a.checksum_dup, b.checksum_dup)
    if a.protector is None or b.protector is None:
        assert a.protector is None and b.protector is None
        return
    assert a.protector.counters == b.protector.counters
    assert sorted(a.protector.prev_cs) == sorted(b.protector.prev_cs)
    for axis, cs in a.protector.prev_cs.items():
        _assert_same_array(cs, b.protector.prev_cs[axis])


class TestSnapshot:
    def test_snapshot_isolated_from_grid(self, small_grid_2d):
        grid = small_grid_2d
        original = grid.u.copy()
        snap = grid.snapshot()
        grid.u[0, 0] = 1e9
        grid.run(2)
        assert snap.iteration == 0
        np.testing.assert_array_equal(snap.interior, original)

    def test_seal_keeps_an_independent_duplicate(self, small_grid_2d):
        snap = small_grid_2d.snapshot().seal(_integrity(small_grid_2d.u))
        assert snap.checksum_dup is not snap.checksum
        np.testing.assert_array_equal(snap.checksum, snap.checksum_dup)

    @pytest.mark.parametrize("payload", [True, False])
    def test_duplicate_mismatch_is_repaired_and_reported(
        self, small_grid_2d, payload
    ):
        snap = small_grid_2d.snapshot().seal(_integrity(small_grid_2d.u))
        truth = snap.checksum.copy()
        snap.checksum[3] += 1.0
        assert snap.verify(_integrity, payload=payload) is True
        np.testing.assert_array_equal(snap.checksum, truth)
        np.testing.assert_array_equal(snap.checksum_dup, truth)
        assert snap.checksum_dup is not snap.checksum
        assert snap.verify(_integrity, payload=payload) is False

    def test_payload_mismatch_raises(self, small_grid_2d):
        snap = small_grid_2d.snapshot().seal(_integrity(small_grid_2d.u))
        snap.interior[0, 0] += 1.0
        with pytest.raises(CheckpointCorrupt, match="rank 7 at iteration 0"):
            snap.verify(_integrity, name="checkpoint of rank 7")

    def test_payload_check_is_opt_out(self, small_grid_2d):
        # Without the payload check agreeing copies are trusted as they
        # stand and no recomputation runs.
        snap = small_grid_2d.snapshot().seal(_integrity(small_grid_2d.u))
        snap.interior[0, 0] += 1.0

        def never(_):
            raise AssertionError("recomputed without a duplicate mismatch")

        assert snap.verify(never, payload=False) is False

    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3)),
        ),
        protected=st.booleans(),
        cs_dtype=st.sampled_from([np.float32, np.float64]),
        missing_axis=st.sampled_from([None, 0, 1]),
        iteration=st.integers(0, 10**6),
        counters=st.tuples(*[st.integers(0, 10**6)] * 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_meta_round_trip_is_bit_exact(
        self, shape, protected, cs_dtype, missing_axis, iteration, counters, seed
    ):
        rng = np.random.default_rng(seed)
        interior = rng.standard_normal(shape).astype(np.float32)
        state = None
        if protected:
            prev_cs = {}
            for axis in (0, 1):
                axis_shape = tuple(n for ax, n in enumerate(shape) if ax != axis)
                prev_cs[axis] = (
                    None
                    if axis == missing_axis
                    else rng.standard_normal(axis_shape).astype(cs_dtype)
                )
            state = ProtectorState(prev_cs=prev_cs, counters=counters)
        snap = Snapshot(
            iteration=iteration, interior=interior, protector=state
        ).seal(_integrity(interior))
        back = Snapshot.from_meta(snap.meta(), interior, cs_dtype)
        _assert_same_snapshot(back, snap)

    def test_buddy_copy_matches_own_checkpoint(self):
        u0 = (np.random.default_rng(3).random((16, 12)) * 100.0).astype(
            np.float32
        )
        grid = Grid2D(u0, five_point_diffusion(0.2), BoundaryCondition.clamp())
        runner = DistributedStencilRunner(
            grid, n_ranks=4, checkpoint_period=3, checksum_dtype=None
        )
        runner.run(7)
        for rank in runner.ranks:
            holder = runner.ranks[runner.buddy_of[rank.rank]]
            _assert_same_snapshot(holder.buddy_store[rank.rank], rank.own_checkpoint)


class TestRollbackAndRecompute:
    def test_recompute_reproduces_clean_run(self, small_grid_2d):
        grid = small_grid_2d
        ckpt = grid.snapshot()
        clean = grid.copy()
        clean.run(6)
        # Corrupt the grid arbitrarily, then recover.
        grid.run(6)
        grid.u[3, 3] = 1e12
        recomputed = rollback_and_recompute(grid, ckpt, 6)
        assert recomputed == 6
        assert grid.iteration == 6
        np.testing.assert_array_equal(grid.u, clean.u)

    def test_on_step_callback_invoked_per_sweep(self, small_grid_2d):
        grid = small_grid_2d
        ckpt = grid.snapshot()
        grid.run(4)
        seen = []
        rollback_and_recompute(grid, ckpt, 4, on_step=lambda g: seen.append(g.iteration))
        assert seen == [1, 2, 3, 4]

    def test_inject_hook_forwarded(self, small_grid_2d):
        grid = small_grid_2d
        ckpt = grid.snapshot()
        grid.run(3)
        calls = []
        rollback_and_recompute(
            grid, ckpt, 3, inject=lambda g, it: calls.append(it)
        )
        assert calls == [1, 2, 3]

    def test_negative_iterations_rejected(self, small_grid_2d):
        with pytest.raises(ValueError):
            rollback_and_recompute(small_grid_2d, small_grid_2d.snapshot(), -1)
