"""Additional coverage for the cost model and trace layers."""

import numpy as np
import pytest

from repro.core import LoopNest, RectangularTile
from repro.core.cost import ClassTraffic, estimate_traffic
from repro.sim.trace import RefStream, deal_tiles, reference_streams
from repro.core.tiles import Tiling


def simple_nest(n=8):
    return LoopNest.from_subscripts(
        {"i": (1, n), "j": (1, n)},
        [
            ("A", [{"i": 1}, {"j": 1}], "write"),
            ("B", [{"i": 1, "": -1}, {"j": 1}], "read"),
            ("C", [{"i": 1}, {"j": 1}], "sync"),
        ],
    )


class TestClassTraffic:
    def test_boundary_nonnegative(self):
        from repro.core.classify import partition_references

        nest = simple_nest()
        sets = partition_references(nest.accesses)
        ct = ClassTraffic(uiset=sets[0], footprint=90.0, single_footprint=100.0)
        assert ct.boundary == 0.0  # clamped

    def test_by_array_sums(self):
        nest = simple_nest()
        est = estimate_traffic(nest, RectangularTile([4, 8]))
        by = est.by_array()
        assert set(by) == {"A", "B", "C"}
        assert sum(by.values()) == est.cold_misses

    def test_single_ref_classes_no_boundary(self):
        nest = simple_nest()
        est = estimate_traffic(nest, RectangularTile([4, 8]))
        assert est.coherence_traffic == 0.0  # all classes single-reference

    def test_raw_access_list_accepted(self):
        nest = simple_nest()
        est1 = estimate_traffic(list(nest.accesses), RectangularTile([4, 8]))
        est2 = estimate_traffic(nest, RectangularTile([4, 8]))
        assert est1.cold_misses == est2.cold_misses


class TestTraceLayer:
    def test_sync_kind_string(self):
        nest = simple_nest()
        streams = reference_streams(nest, np.array([[1, 1]]))
        kinds = {(s.array, s.kind) for s in streams}
        assert ("C", "sync") in kinds
        assert ("A", "write") in kinds
        assert ("B", "read") in kinds

    def test_ref_stream_immutable(self):
        stream = RefStream("A", "read", np.array([[1, 2]]))
        with pytest.raises(AttributeError):
            stream.kind = "write"

    def test_more_tiles_than_processors_wraps(self):
        nest = simple_nest()
        tiling = Tiling(nest.space, RectangularTile([2, 2]))
        deal = deal_tiles(tiling, 3)
        # 16 tiles over 3 processors: every processor busy, union complete.
        assert all(count > 0 for count in deal.counts())
        assert sum(deal.counts()) == nest.space.volume

    def test_fewer_tiles_than_processors_idle(self):
        nest = simple_nest()
        tiling = Tiling(nest.space, RectangularTile([8, 8]))
        assert sorted(deal_tiles(tiling, 4).counts()) == [0, 0, 0, 64]

    def test_empty_iteration_block(self):
        nest = simple_nest()
        streams = reference_streams(nest, np.empty((0, 2), dtype=np.int64))
        assert len(streams) == 3
        assert all(s.coords.shape == (0, 2) for s in streams)
