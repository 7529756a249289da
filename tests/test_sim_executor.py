"""Integration tests: simulator vs the analytical footprint model."""

import numpy as np
import pytest

from repro.core import RectangularTile, estimate_traffic, partition_references
from repro.core.cumulative import cumulative_footprint_size_exact
from repro.lang import compile_nest
from repro.sim import simulate_nest
from repro.sim.trace import deal_tiles, reference_streams, split_streams
from repro.core.tiles import Tiling


class TestTrace:
    def test_reads_before_writes(self, example2_nest):
        streams = reference_streams(example2_nest, np.array([[101, 1]]))
        kinds = [s.kind for s in streams]
        assert kinds == ["read", "read", "write"]

    def test_coords_correct(self, example2_nest):
        streams = reference_streams(example2_nest, np.array([[101, 1]]))
        # B[i+j, i-j-1] at (101,1) = (102, 99)
        assert streams[0].array == "B" and streams[0].coords.tolist() == [[102, 99]]
        assert streams[2].array == "A" and streams[2].coords.tolist() == [[101, 1]]

    def test_assign_round_robin(self, example2_nest):
        tiling = Tiling(example2_nest.space, RectangularTile([50, 50]))
        assert deal_tiles(tiling, 2).counts() == [5000, 5000]

    def test_split_streams_structure(self, example2_nest):
        deal = deal_tiles(Tiling(example2_nest.space, RectangularTile([100, 50])), 2)
        streams = split_streams(
            reference_streams(example2_nest, deal.iterations), deal.offsets
        )
        assert set(streams) == {0, 1}
        assert [s.coords.shape[0] for s in streams[0]] == [5000] * 3


class TestSimulatorVsModel:
    def test_example2_strip(self, example2_nest):
        r = simulate_nest(example2_nest, RectangularTile([100, 1]), 100)
        assert r.mean_footprint("B") == 104.0
        assert r.shared_elements["B"] == 0
        assert r.shared_elements["A"] == 0
        assert r.invalidations == 0

    def test_example2_block(self, example2_nest):
        r = simulate_nest(example2_nest, RectangularTile([10, 10]), 100)
        assert r.mean_footprint("B") == 140.0
        assert r.shared_elements["B"] > 0

    def test_misses_equal_footprint_single_sweep(self, example2_nest):
        """Infinite caches, one sweep: every processor's misses = its
        cumulative footprint (Section 3.3)."""
        for sides in ([100, 1], [10, 10], [20, 5]):
            r = simulate_nest(example2_nest, RectangularTile(sides), 100)
            for p in r.processors:
                assert p.misses == p.total_footprint

    def test_predicted_equals_measured(self, example8_nest):
        tile = RectangularTile([12, 12, 12])
        est = estimate_traffic(example8_nest, tile, method="exact")
        r = simulate_nest(example8_nest, tile, 8)
        assert r.mean_misses_per_processor() == est.cold_misses

    def test_example10_predicted_equals_measured(self, example10_nest):
        tile = RectangularTile([18, 12])
        est = estimate_traffic(example10_nest, tile, method="exact")
        r = simulate_nest(example10_nest, tile, 6)
        assert r.mean_misses_per_processor() == est.cold_misses

    def test_interleave_equivalent_for_disjoint_writes(self, example2_nest):
        a = simulate_nest(example2_nest, RectangularTile([10, 10]), 100,
                          interleave="roundrobin")
        b = simulate_nest(example2_nest, RectangularTile([10, 10]), 100,
                          interleave="sequential")
        assert a.total_misses == b.total_misses


class TestDoseqSweeps:
    def test_figure9_steady_state(self, figure9_nest):
        """Figure 9: after the first sweep, traffic is pure coherence on
        the tile-boundary data."""
        tile = RectangularTile([6, 6, 6])
        r = simulate_nest(figure9_nest, tile, 8)
        assert r.sweeps == 3
        assert r.coherence_misses > 0
        assert r.invalidations > 0

    def test_comm_free_partition_no_steady_traffic(self, example2_nest):
        """A communication-free partition stays silent across sweeps."""
        r = simulate_nest(example2_nest, RectangularTile([100, 1]), 100, sweeps=3)
        assert r.coherence_misses == 0
        assert r.invalidations == 0
        # Second and third sweeps are all hits except write upgrades never
        # happen (A privately owned, B read-only shared-nothing).
        total_expected_misses = sum(p.total_footprint for p in r.processors)
        assert r.total_misses == total_expected_misses

    def test_block_partition_recurring_traffic(self, example2_nest):
        """With B also written (emulated via a write nest), block tiles
        invalidate across sweeps."""
        nest = compile_nest(
            """
            Doseq (t, 1, 3)
              Doall (i, 1, 30)
                Doall (j, 1, 30)
                  B[i,j] = B[i-1,j] + B[i+1,j]
                EndDoall
              EndDoall
            EndDoseq
            """
        )
        r = simulate_nest(nest, RectangularTile([10, 30]), 3)
        assert r.coherence_misses > 0
        second = simulate_nest(nest, RectangularTile([10, 30]), 3, sweeps=1)
        assert second.coherence_misses == 0 or second.sweeps > 1

    def test_sweeps_validation(self, example2_nest):
        with pytest.raises(Exception):
            simulate_nest(example2_nest, RectangularTile([10, 10]), 100, sweeps=0)

    def test_bad_interleave(self, example2_nest):
        with pytest.raises(Exception):
            simulate_nest(
                example2_nest, RectangularTile([10, 10]), 100, interleave="magic"
            )


class TestMatmulSync:
    def test_sync_accumulates_are_writes(self, matmul_nest):
        tile = RectangularTile([4, 4, 8])
        r = simulate_nest(matmul_nest, tile, 4)
        # C is written by every k-slice owner: upgrades/invalidations occur
        # when k is cut; with k uncut C is private per (i,j) tile.
        assert r.shared_elements["C"] == 0
        tile2 = RectangularTile([8, 8, 4])  # cut k -> C shared
        r2 = simulate_nest(matmul_nest, tile2, 2)
        assert r2.shared_elements["C"] > 0
        assert r2.invalidations > 0

    def test_square_tiles_beat_strips(self, matmul_nest):
        """The motivating matmul claim: blocks reuse better than rows."""
        blocks = simulate_nest(matmul_nest, RectangularTile([4, 4, 8]), 4)
        rows = simulate_nest(matmul_nest, RectangularTile([2, 8, 8]), 4)
        assert blocks.total_misses < rows.total_misses


class TestStatsSurface:
    def test_miss_rate(self, example2_nest):
        r = simulate_nest(example2_nest, RectangularTile([10, 10]), 100)
        assert 0 < r.miss_rate < 1

    def test_empty_processor_stats(self, example2_nest):
        # more processors than tiles: some idle
        r = simulate_nest(example2_nest, RectangularTile([100, 100]), 4)
        active = [p for p in r.processors if p.iterations]
        assert len(active) == 1
        assert r.mean_misses_per_processor() == active[0].misses

    def test_machine_reuse_rejected_on_size_mismatch(self, example2_nest):
        from repro.sim import Machine

        with pytest.raises(Exception):
            simulate_nest(
                example2_nest, RectangularTile([10, 10]), 100, machine=Machine(4)
            )

    def test_check_invariants_flag(self, example2_nest):
        r = simulate_nest(
            example2_nest, RectangularTile([50, 50]), 4, check_invariants=True
        )
        assert r.total_misses > 0
