"""Tests for per-processor schedules (repro.codegen.schedule)."""

import numpy as np
import pytest

from repro.core.loopnest import IterationSpace
from repro.core.tiles import ParallelepipedTile, RectangularTile
from repro.codegen.schedule import TileSchedule, processor_bounds
from repro.core.tiles import Tiling
from repro.exceptions import PartitionError
from repro.sim.trace import deal_tiles


class TestProcessorBounds:
    def test_interior(self):
        sp = IterationSpace([1, 1], [12, 12])
        b = processor_bounds(sp, [3, 12], (1, 0))
        assert b == [(4, 6), (1, 12)]

    def test_boundary_clamped(self):
        sp = IterationSpace([1, 1], [10, 10])
        b = processor_bounds(sp, [4, 10], (2, 0))
        assert b == [(9, 10), (1, 10)]

    def test_empty_region(self):
        sp = IterationSpace([1, 1], [4, 4])
        assert processor_bounds(sp, [4, 4], (1, 0)) is None


class TestTileSchedule:
    def make(self, p=4, grid=(4, 1), sides=(3, 12), ext=(12, 12)):
        sp = IterationSpace([1, 1], list(ext))
        return TileSchedule(sp, RectangularTile(list(sides)), p, grid=grid)

    def test_grid_coord_roundtrip(self):
        s = self.make(p=6, grid=(2, 3), sides=(6, 4))
        for proc in range(6):
            assert s.proc_of_coord(s.grid_coord(proc)) == proc

    def test_grid_validation(self):
        with pytest.raises(PartitionError):
            self.make(p=4, grid=(2, 3))

    def test_grid_requires_rect(self):
        sp = IterationSpace([0, 0], [7, 7])
        with pytest.raises(PartitionError):
            TileSchedule(sp, ParallelepipedTile([[2, 1], [0, 4]]), 4, grid=(2, 2))

    def test_bounds_cover_space(self):
        s = self.make()
        seen = set()
        for p in range(4):
            b = s.bounds(p)
            assert b is not None
            for i in range(b[0][0], b[0][1] + 1):
                for j in range(b[1][0], b[1][1] + 1):
                    seen.add((i, j))
        assert len(seen) == 144

    def test_iterations_match_bounds(self):
        s = self.make()
        its = s.iterations(2)
        b = s.bounds(2)
        assert its.shape[0] == (b[0][1] - b[0][0] + 1) * (b[1][1] - b[1][0] + 1)

    def test_iteration_counts_balanced(self):
        s = self.make()
        counts = s.iteration_counts()
        assert sum(counts) == 144
        assert max(counts) == min(counts)  # 12 divisible by 3

    def test_owner_of(self):
        s = self.make()
        for p in range(4):
            for it in s.iterations(p)[:5]:
                assert s.owner_of(it) == p

    def test_owner_of_parallelepiped(self):
        sp = IterationSpace([0, 0], [5, 5])
        sched = TileSchedule(sp, ParallelepipedTile([[3, 0], [0, 6]]), 2)
        for p in range(2):
            its = sched.iterations(p)
            for it in its[:3]:
                assert sched.owner_of(it) == p

    def test_no_grid_falls_back_to_tiling(self):
        sp = IterationSpace([0, 0], [5, 5])
        sched = TileSchedule(sp, RectangularTile([3, 3]), 4)
        total = sum(sched.iterations(p).shape[0] for p in range(4))
        assert total == 36

    def test_closed_form_bounds_require_grid(self):
        sp = IterationSpace([0, 0], [5, 5])
        sched = TileSchedule(sp, RectangularTile([3, 3]), 4)
        with pytest.raises(PartitionError):
            sched.bounds(0)

    def test_empty_tail_processor(self):
        """Over-provisioned grid: trailing processors own nothing."""
        sp = IterationSpace([1, 1], [5, 5])
        sched = TileSchedule(sp, RectangularTile([3, 5]), 3, grid=(3, 1))
        counts = sched.iteration_counts()
        assert counts == [15, 10, 0]

    def test_fewer_tiles_than_grid_cells_matches_dealing(self):
        """9 columns in sides of 3 make 3 tiles on a 4-wide grid: each
        processor must run the tiles the simulator deals it, and the two
        processors past the 2x3 tiles are idle."""
        sp = IterationSpace([1, 1], [8, 9])
        tile = RectangularTile([4, 3])
        sched = TileSchedule(sp, tile, 8, grid=(2, 4))
        dealing = deal_tiles(Tiling(sp, tile), 8)
        for p in range(8):
            ours = sorted(map(tuple, sched.iterations(p).tolist()))
            assert ours == sorted(map(tuple, dealing.block(p).tolist())), p
            assert all(sched.owner_of(it) == p for it in ours)
        assert sched.grid_coord(3) == (1, 0)
        assert sched.bounds(6) is None and sched.bounds(7) is None
        assert sched.iteration_counts() == dealing.counts()

    def test_grid_with_too_few_cells_rejected(self):
        sp = IterationSpace([1, 1], [8, 9])
        with pytest.raises(PartitionError, match="fewer cells"):
            TileSchedule(sp, RectangularTile([4, 2]), 8, grid=(2, 4))
