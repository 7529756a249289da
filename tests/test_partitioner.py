"""Tests for the top-level LoopPartitioner and the cost model."""

import numpy as np
import pytest

from repro.core import partitioner as partitioner_mod
from repro.core.cost import estimate_traffic
from repro.core.partitioner import LoopPartitioner
from repro.core.tiles import ParallelepipedTile, RectangularTile
from repro.exceptions import PartitionError, SingularMatrixError
from repro.lang import compile_nest


class TestPartitioner:
    def test_example2_partition(self, example2_nest):
        res = LoopPartitioner(example2_nest, 100).partition()
        assert res.method == "rectangular"
        assert res.tile.sides.tolist() == [100, 1]
        assert res.is_communication_free
        assert res.comm_free_basis.shape[0] == 1

    def test_example8_partition(self, example8_nest):
        res = LoopPartitioner(example8_nest, 8).partition()
        assert res.tile.sides.tolist() == [12, 12, 12]
        assert res.grid == (2, 2, 2)
        assert not res.is_communication_free

    def test_example10_partition(self, example10_nest):
        res = LoopPartitioner(example10_nest, 6).partition()
        assert res.tile.sides.tolist() == [18, 12]
        assert res.comm_free_basis.shape[0] == 0

    def test_auto_prefers_cheaper(self, example3_nest):
        part = LoopPartitioner(example3_nest, 4)
        res = part.partition(method="auto")
        rect = part.partition(method="rectangular")
        assert res.estimate.cold_misses <= rect.estimate.cold_misses + 1e-9

    def test_auto_keeps_rectangular_when_theorem2_is_singular(self):
        """A 1-D array read in a 2-D nest has a rank-deficient G′: Theorem 2
        has no objective, so 'auto' returns the rectangular partition and
        only an explicit 'parallelepiped' request raises."""
        nest = compile_nest(
            """
            Doall (i, 1, 16)
              Doall (j, 1, 16)
                B[i,j] = A[i]
              EndDoall
            EndDoall
            """
        )
        part = LoopPartitioner(nest, 4)
        res = part.partition(method="auto")
        rect = part.partition(method="rectangular")
        assert res.method == "rectangular"
        assert np.array_equal(res.tile.l_matrix, rect.tile.l_matrix)
        assert res.grid == rect.grid
        assert res.estimate == rect.estimate
        with pytest.raises(SingularMatrixError):
            part.partition(method="parallelepiped")

    @pytest.mark.parametrize("method,calls", [("rectangular", 1), ("auto", 2)])
    def test_each_candidate_estimated_once(self, example3_nest, monkeypatch, method, calls):
        seen = []

        def counting(sets, tile, **kw):
            seen.append(tile)
            return estimate_traffic(sets, tile, **kw)

        monkeypatch.setattr(partitioner_mod, "estimate_traffic", counting)
        res = LoopPartitioner(example3_nest, 4).partition(method=method)
        assert len(seen) == calls
        assert res.estimate == estimate_traffic(example3_nest, res.tile, method="exact")

    def test_parallelepiped_method(self, example3_nest):
        res = LoopPartitioner(example3_nest, 4).partition(method="parallelepiped")
        assert res.method == "parallelepiped"
        assert res.grid is None

    def test_bad_method(self, example2_nest):
        with pytest.raises(PartitionError):
            LoopPartitioner(example2_nest, 4).partition(method="bogus")

    def test_bad_processors(self, example2_nest):
        with pytest.raises(PartitionError):
            LoopPartitioner(example2_nest, 0)

    def test_tiling_accessor(self, example2_nest):
        part = LoopPartitioner(example2_nest, 100)
        res = part.partition()
        tiling = part.tiling(res)
        assert tiling.num_tiles_rect() == 100

    def test_estimate_matches_direct(self, example2_nest):
        res = LoopPartitioner(example2_nest, 100).partition()
        direct = estimate_traffic(example2_nest, res.tile, method="exact")
        assert direct.cold_misses == res.estimate.cold_misses


class TestEstimateTraffic:
    def test_example2_breakdown(self, example2_nest):
        est = estimate_traffic(example2_nest, RectangularTile([10, 10]))
        by = est.by_array()
        assert by["A"] == 100
        assert by["B"] == 140
        assert est.cold_misses == 240
        assert est.tile_iterations == 100

    def test_boundary_terms(self, example2_nest):
        est = estimate_traffic(example2_nest, RectangularTile([10, 10]))
        # B: cumulative 140 - single 100 = 40 shared; A: 0
        assert est.coherence_traffic == 40

    def test_comm_free_tile_zero_boundary(self, example2_nest):
        est = estimate_traffic(example2_nest, RectangularTile([100, 1]))
        assert est.coherence_traffic == 4  # strip: 104 - 100
        est2 = estimate_traffic(example2_nest, RectangularTile([100, 1]), method="exact")
        assert est2.cold_misses == 204

    def test_theorem_methods_close(self, example8_nest):
        t = RectangularTile([12, 12, 12])
        exact = estimate_traffic(example8_nest, t, method="exact")
        thm4 = estimate_traffic(example8_nest, t, method="theorem4")
        thm2 = estimate_traffic(example8_nest, t, method="theorem2")
        assert thm4.cold_misses >= exact.cold_misses
        assert abs(thm2.cold_misses - exact.cold_misses) / exact.cold_misses < 0.2

    def test_accepts_uisets(self, example8_nest):
        from repro.core.classify import partition_references

        sets = partition_references(example8_nest.accesses)
        t = RectangularTile([12, 12, 12])
        a = estimate_traffic(sets, t)
        b = estimate_traffic(example8_nest, t)
        assert a.cold_misses == b.cold_misses

    def test_parallelepiped_tile(self, example6_nest):
        t = ParallelepipedTile([[5, 5], [7, 0]])
        est = estimate_traffic(example6_nest, t, method="exact")
        assert est.cold_misses > 0
        assert est.tile_iterations == t.volume

    def test_unknown_method(self, example2_nest):
        with pytest.raises(ValueError):
            estimate_traffic(example2_nest, RectangularTile([10, 10]), method="nope")
