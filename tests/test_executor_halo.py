"""Unit tests for executors and halo helpers."""

import numpy as np
import pytest

from repro.parallel.decomposition import decompose
from repro.parallel.executor import (
    SerialExecutor,
    ThreadPoolTileExecutor,
    make_executor,
)
from repro.parallel.halo import (
    boundary_strip,
    ghost_slab,
    ingest_halo,
    padded_tile_view,
    synthesize_ghost_into,
    tile_constant,
)
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.shift import pad_array


class TestExecutors:
    def test_serial_map_preserves_order(self):
        ex = SerialExecutor()
        assert ex.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_thread_pool_map_matches_serial(self):
        items = list(range(50))
        with ThreadPoolTileExecutor(workers=4) as pool:
            result = pool.map(lambda x: x * x, items)
        assert result == [x * x for x in items]

    def test_thread_pool_invalid_workers(self):
        with pytest.raises(ValueError):
            ThreadPoolTileExecutor(workers=0)

    def test_thread_pool_shutdown_idempotent(self):
        pool = ThreadPoolTileExecutor(workers=2)
        pool.map(lambda x: x, [1])
        pool.shutdown()
        pool.shutdown()

    def test_serial_context_manager(self):
        with SerialExecutor() as ex:
            assert ex.map(len, ["ab"]) == [2]

    def test_make_executor(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("threads", workers=2), ThreadPoolTileExecutor)
        with pytest.raises(ValueError):
            make_executor("mpi")

    def test_none_workers_uses_cpu_count(self):
        import os

        expected = max(1, os.cpu_count() or 1)
        assert ThreadPoolTileExecutor(workers=None).workers == expected
        assert ThreadPoolTileExecutor().workers == expected
        assert make_executor("threads").workers == expected
        assert make_executor("threads", workers=None).workers == expected


class TestPaddedTileView:
    def test_interior_tile_halo_holds_neighbor_data(self, rng):
        u = rng.random((8, 8))
        padded = pad_array(u, 1, BoundaryCondition.clamp())
        boxes = decompose(u.shape, (2, 2))
        # tile (1, 1): its low-side ghost rows must be the last row of tile (0, 1)
        box = [b for b in boxes if b.index == (1, 1)][0]
        view = padded_tile_view(padded, box, 1)
        assert view.shape == (6, 6)
        np.testing.assert_array_equal(view[0, 1:-1], u[3, 4:8])

    def test_domain_edge_tile_halo_holds_boundary_condition(self, rng):
        u = rng.random((6, 6))
        padded = pad_array(u, 1, BoundaryCondition.constant(9.0))
        box = decompose(u.shape, (2, 2))[0]  # tile (0, 0) touches the domain edge
        view = padded_tile_view(padded, box, 1)
        assert view[0, 0] == 9.0

    def test_tile_interior_preserved(self, rng):
        u = rng.random((9, 7))
        padded = pad_array(u, 2, BoundaryCondition.zero())
        for box in decompose(u.shape, (3, 1)):
            view = padded_tile_view(padded, box, 2)
            np.testing.assert_array_equal(view[2:-2, 2:-2], u[box.slices])


class TestTileConstant:
    def test_none_passthrough(self):
        box = decompose((4, 4), (2, 2))[0]
        assert tile_constant(None, box) is None

    def test_slicing(self, rng):
        c = rng.random((6, 6))
        box = decompose((6, 6), (2, 2))[3]
        np.testing.assert_array_equal(tile_constant(c, box), c[3:, 3:])


class TestHaloStrips:
    def test_boundary_strip_low_high(self, rng):
        u = rng.random((5, 4))
        np.testing.assert_array_equal(boundary_strip(u, 0, "low", 2), u[:2])
        np.testing.assert_array_equal(boundary_strip(u, 0, "high", 1), u[4:])
        np.testing.assert_array_equal(boundary_strip(u, 1, "high", 2), u[:, 2:])

    def test_boundary_strip_is_a_copy(self, rng):
        u = rng.random((4, 4))
        strip = boundary_strip(u, 0, "low", 1)
        u[0, 0] = 77.0
        assert strip[0, 0] != 77.0

    def test_boundary_strip_validation(self, rng):
        u = rng.random((4, 4))
        with pytest.raises(ValueError):
            boundary_strip(u, 0, "middle", 1)
        with pytest.raises(ValueError):
            boundary_strip(u, 0, "low", 0)


class TestInPlaceHaloIngestion:
    """The zero-copy receive path: ghost slabs written in place."""

    def test_ghost_slab_is_view_excluding_corners(self, rng):
        padded = rng.random((8, 7))  # interior (4, 5) with radius (2, 1)
        lo = ghost_slab(padded, (2, 1), 0, "low")
        hi = ghost_slab(padded, (2, 1), 0, "high")
        assert lo.base is padded and hi.base is padded
        np.testing.assert_array_equal(lo, padded[0:2, 1:6])
        np.testing.assert_array_equal(hi, padded[6:8, 1:6])
        side = ghost_slab(padded, (2, 1), 1, "low")
        np.testing.assert_array_equal(side, padded[2:6, 0:1])

    def test_ghost_slab_validation(self, rng):
        padded = rng.random((6, 5))
        with pytest.raises(ValueError, match="radius 0"):
            ghost_slab(padded, (1, 0), 1, "low")
        with pytest.raises(ValueError, match="side"):
            ghost_slab(padded, (1, 1), 0, "middle")

    def test_ingest_halo_writes_payload_in_place(self, rng):
        padded = np.zeros((6, 5))
        payload = rng.random((1, 3))
        slab = ingest_halo(padded, (1, 1), 0, "low", payload)
        assert slab.base is padded
        np.testing.assert_array_equal(padded[0:1, 1:4], payload)
        # Corners stay untouched: they belong to the later axes' refresh.
        assert padded[0, 0] == 0.0 and padded[0, 4] == 0.0

    def test_ingest_halo_shape_mismatch_rejected(self, rng):
        padded = np.zeros((6, 5))
        with pytest.raises(ValueError, match="ghost slab expects"):
            ingest_halo(padded, (1, 1), 0, "low", rng.random((2, 3)))

    @pytest.mark.parametrize(
        "bc",
        [
            BoundaryCondition.clamp(),
            BoundaryCondition.zero(),
            BoundaryCondition.constant(4.5),
        ],
        ids=lambda b: b.kind,
    )
    def test_synthesize_into_matches_pad_array(self, rng, bc):
        """The slab holds the ghost rows ``pad_array`` builds from ``bc``."""
        u = rng.random((4, 3))
        closed = pad_array(u, (2, 0), bc)
        for side, rows in (("low", closed[:2]), ("high", closed[-2:])):
            padded = pad_array(u, (2, 1), BoundaryCondition.zero())
            slab = synthesize_ghost_into(padded, (2, 1), 0, side, bc)
            np.testing.assert_array_equal(slab, rows)
            assert slab.base is padded

    def test_synthesize_into_periodic_rejected(self, rng):
        padded = np.zeros((5, 5))
        with pytest.raises(ValueError, match="exchanged"):
            synthesize_ghost_into(
                padded, (1, 1), 0, "low", BoundaryCondition.periodic()
            )
