"""LatticeCountCache: canonical-key invariances, counters and optimiser
wiring."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper_programs import example8, matmul_sync
from repro.core.classify import partition_references
from repro.core.footprint import footprint_size
from repro.core.affine import AffineRef
from repro.core.optimize import factorizations, optimize_rectangular
from repro.core.tiles import RectangularTile
from repro.lattice.points import (
    DEFAULT_LATTICE_CACHE,
    LatticeCountCache,
    count_distinct_images,
    parallelepiped_lattice_points,
)


class TestCanonicalKey:
    def test_row_permutation_invariant(self):
        g = [[1, 0], [0, 2], [1, 1]]
        ext = [3, 4, 5]
        k1 = LatticeCountCache.canonical_key(g, ext)
        k2 = LatticeCountCache.canonical_key(
            [g[2], g[0], g[1]], [ext[2], ext[0], ext[1]]
        )
        assert k1 == k2

    def test_row_sign_invariant(self):
        k1 = LatticeCountCache.canonical_key([[1, -2], [0, 1]], [3, 4])
        k2 = LatticeCountCache.canonical_key([[-1, 2], [0, 1]], [3, 4])
        assert k1 == k2

    def test_zero_rows_and_extents_dropped(self):
        base = LatticeCountCache.canonical_key([[1, 1]], [5])
        with_zero_row = LatticeCountCache.canonical_key(
            [[1, 1], [0, 0]], [5, 7]
        )
        with_zero_extent = LatticeCountCache.canonical_key(
            [[1, 1], [2, 3]], [5, 0]
        )
        assert base == with_zero_row == with_zero_extent

    def test_gcd_not_divided_out(self):
        # Scaling one row of a multi-column G changes the image lattice:
        # (2,0) over [0,3] hits {0,2,4,6} but (1,0) hits {0..3}.
        k1 = LatticeCountCache.canonical_key([[2, 0], [0, 1]], [3, 3])
        k2 = LatticeCountCache.canonical_key([[1, 0], [0, 1]], [3, 3])
        assert k1 != k2

    def test_negative_extent_is_empty(self):
        assert LatticeCountCache.canonical_key([[1, 0]], [-1]) == ("empty",)


class TestMemoisedCounts:
    def test_count_matches_oracle(self):
        cache = LatticeCountCache()
        g = np.array([[1, 0], [0, 2], [1, 1]], dtype=np.int64)
        ext = np.array([3, 4, 5], dtype=np.int64)
        want = count_distinct_images(g, np.zeros(3, dtype=np.int64), ext)
        assert cache.count_distinct_images(g, ext) == want
        assert (cache.hits, cache.misses) == (0, 1)

    def test_equivalent_queries_hit(self):
        cache = LatticeCountCache()
        v1 = cache.count_distinct_images([[1, -2], [0, 1]], [3, 4])
        v2 = cache.count_distinct_images([[-1, 2], [0, 1]], [3, 4])
        v3 = cache.count_distinct_images([[0, 1], [1, -2]], [4, 3])
        assert v1 == v2 == v3
        assert (cache.hits, cache.misses) == (2, 1)
        assert len(cache) == 1

    def test_degenerate_values(self):
        cache = LatticeCountCache()
        assert cache.count_distinct_images([[0, 0]], [5]) == 1
        assert cache.count_distinct_images([[1, 1]], [-2]) == 0

    def test_parallelepiped_matches_oracle(self):
        cache = LatticeCountCache()
        q = np.array([[3, 1], [1, 2]], dtype=np.int64)
        want = parallelepiped_lattice_points(q)
        assert cache.parallelepiped_lattice_points(q) == want
        # Sign-flip + row swap of Q translates/reflects S(Q): same count.
        assert cache.parallelepiped_lattice_points([[-1, -2], [3, 1]]) == want
        assert (cache.hits, cache.misses) == (1, 1)

    def test_get_or_compute(self):
        cache = LatticeCountCache()
        calls = []

        def fn():
            calls.append(1)
            return 42

        assert cache.get_or_compute(("k", 1), fn) == 42
        assert cache.get_or_compute(("k", 1), fn) == 42
        assert calls == [1]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_clear(self):
        """``clear`` drops the entries; the counters keep running."""
        cache = LatticeCountCache()
        cache.count_distinct_images([[1, 0]], [3])
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 1)
        cache.count_distinct_images([[1, 0]], [3])
        assert (len(cache), cache.hits, cache.misses) == (1, 0, 2)

    def test_clear_keeps_counters(self):
        """Clearing a table keeps every counter that ``stats`` reports,
        only ``entries`` drops."""
        cache = LatticeCountCache()
        cache.get_or_compute(("k", 1), lambda: 4)
        cache.get_or_compute(("k", 1), lambda: 0)
        cache.get_or_compute(("k", 2), lambda: 5)
        before = cache.stats()
        assert before == {"entries": 2, "hits": 1, "misses": 2}
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {**before, "entries": 0}

    def test_default_caches_in_analytic_stats(self):
        from repro.lattice import analytic_cache_stats

        stats = analytic_cache_stats()
        assert set(stats) == {"footprint_table", "lattice_cache"}
        for section in stats.values():
            assert set(section) == {"entries", "hits", "misses"}


class TestFootprintWiring:
    def test_footprint_size_uses_default_cache(self):
        # Dependent rows, 2-D reduced G: the cached enumeration path.
        ref = AffineRef("A", [[1, 0], [0, 1], [1, 1]], [0, 0])
        tile = RectangularTile([4, 5, 6])
        before = (DEFAULT_LATTICE_CACHE.hits, DEFAULT_LATTICE_CACHE.misses)
        first = footprint_size(ref, tile)
        second = footprint_size(ref, tile)
        assert first == second
        after = (DEFAULT_LATTICE_CACHE.hits, DEFAULT_LATTICE_CACHE.misses)
        assert after[0] >= before[0] + 1  # the repeat query hit


class TestOptimizerWiring:
    def test_example8_enumeration_budget(self):
        """Exact-scoring grid search performs at most one distinct
        enumeration per (class, candidate grid) — and far fewer total
        evaluations than the non-memoised search would."""
        nest = example8(12)
        sets = partition_references(nest.accesses)
        grids = [
            g
            for g in factorizations(8, nest.space.depth)
            if all(p <= n for p, n in zip(g, nest.space.extents))
        ]
        cache = LatticeCountCache()
        optimize_rectangular(sets, nest.space, 8, scoring="exact", cache=cache)
        assert cache.misses <= len(grids) * len(sets)

    def test_theorem4_scoring_needs_no_enumeration(self):
        """All Example 8 classes have spread coefficients: the default
        scoring never falls back to lattice enumeration."""
        nest = example8(12)
        cache = LatticeCountCache()
        optimize_rectangular(
            partition_references(nest.accesses), nest.space, 8, cache=cache
        )
        assert (cache.hits, cache.misses) == (0, 0)

    @pytest.mark.parametrize("make", [example8, matmul_sync], ids=["e8", "mm"])
    def test_shared_cache_second_run_all_hits(self, make):
        nest = make(12)
        sets = partition_references(nest.accesses)
        cache = LatticeCountCache()
        r1 = optimize_rectangular(sets, nest.space, 8, scoring="exact", cache=cache)
        h, m = cache.hits, cache.misses
        assert m > 0
        r2 = optimize_rectangular(sets, nest.space, 8, scoring="exact", cache=cache)
        assert cache.misses == m  # nothing re-enumerated
        assert cache.hits > h
        assert r1.tile.sides.tolist() == r2.tile.sides.tolist()
        assert r1.grid == r2.grid
        assert r1.predicted_cost == r2.predicted_cost

    def test_cache_does_not_change_result(self):
        nest = matmul_sync(10)
        sets = partition_references(nest.accesses)
        base = optimize_rectangular(sets, nest.space, 12, scoring="exact")
        cached = optimize_rectangular(
            sets, nest.space, 12, scoring="exact", cache=LatticeCountCache()
        )
        assert base.tile.sides.tolist() == cached.tile.sides.tolist()
        assert base.grid == cached.grid
        assert base.predicted_cost == cached.predicted_cost
