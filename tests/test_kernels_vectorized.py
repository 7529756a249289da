"""Differential tests: vectorized lattice kernels vs their scalar oracles.

The vectorized fast paths of :mod:`repro.lattice.points`
(`union_of_boxes_size`, `parallelepiped_lattice_points`, `_corner_points`)
must *bit-match* the original scalar implementations, which are kept as
``*_scalar`` oracles.  Inputs are drawn from the
same seeded generator that drives ``repro check``
(:mod:`repro.check.generator`), so the distribution matches what the
pipeline actually feeds the kernels, plus pinned regressions on the
paper workloads (Examples 8 and 10 — the E7/E10 experiment classes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.generator import generate_case
from repro.core.classify import partition_references
from repro.lattice.points import (
    _corner_points,
    parallelepiped_lattice_points,
    union_of_boxes_size,
)

from .lattice_oracles import (
    _corner_points_scalar,
    parallelepiped_lattice_points_scalar,
    union_of_boxes_size_scalar,
)

N_FUZZ_CASES = 200


def _spec_workloads(n_cases: int):
    """(offsets, extents, q) triples drawn from generator case specs.

    Each generated class contributes its member offsets as a union-of-boxes
    workload (extents: a tile-sized box per dimension) and its reference
    matrix scaled by the tile sides as a parallelepiped ``Q = L·G``.
    """
    for case_id in range(n_cases):
        spec = generate_case(case_id, seed=20260806, max_accesses=4000)
        rng = np.random.default_rng(1000 + case_id)
        for cls in spec.classes:
            g = cls.g_array()
            offsets = np.asarray(cls.offsets, dtype=np.int64)
            d = offsets.shape[1]
            extents = rng.integers(0, 9, size=d).astype(np.int64)
            sides = rng.integers(1, 7, size=g.shape[0]).astype(np.int64)
            q = (np.diag(sides) @ g).astype(np.int64)
            yield offsets, extents, q


class TestUnionDifferential:
    def test_fuzz_matches_scalar_oracle(self):
        checked = 0
        for offsets, extents, _q in _spec_workloads(N_FUZZ_CASES):
            vec = union_of_boxes_size(offsets, extents)
            ref = union_of_boxes_size_scalar(offsets, extents)
            assert vec == ref, (offsets.tolist(), extents.tolist())
            checked += 1
        assert checked >= N_FUZZ_CASES  # every case yields >= 1 class

    def test_random_dense_overlaps(self):
        # Denser boxes than the generator produces: many partial overlaps.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            r = int(rng.integers(1, 9))
            d = int(rng.integers(1, 4))
            offsets = rng.integers(-6, 7, size=(r, d)).astype(np.int64)
            extents = rng.integers(0, 6, size=d).astype(np.int64)
            assert union_of_boxes_size(offsets, extents) == (
                union_of_boxes_size_scalar(offsets, extents)
            )


def _both_paths(q):
    """(vectorized, scalar) results; rank-deficient Q raises on both paths
    beyond 2-D by design, and the two must agree on that too."""
    try:
        vec = parallelepiped_lattice_points(q)
    except ValueError:
        with pytest.raises(ValueError):
            parallelepiped_lattice_points_scalar(q)
        return None
    return vec, parallelepiped_lattice_points_scalar(q)


class TestParallelepipedDifferential:
    def test_fuzz_matches_scalar_oracle(self):
        compared = 0
        for _offsets, _extents, q in _spec_workloads(N_FUZZ_CASES):
            got = _both_paths(q)
            if got is not None:
                assert got[0] == got[1], q.tolist()
                compared += 1
        assert compared >= N_FUZZ_CASES // 2

    def test_rectangular_tall_and_wide(self):
        # m < n (need row-space reconstruction) and m == n (slab path).
        compared = 0
        for seed in range(60):
            rng = np.random.default_rng(100 + seed)
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m, 4))
            q = rng.integers(-5, 6, size=(m, n)).astype(np.int64)
            got = _both_paths(q)
            if got is not None:
                assert got[0] == got[1], q.tolist()
                compared += 1
        assert compared >= 30

    def test_corner_points_match(self):
        for seed in range(25):
            rng = np.random.default_rng(200 + seed)
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            q = rng.integers(-7, 8, size=(m, n)).astype(np.int64)
            assert np.array_equal(_corner_points(q), _corner_points_scalar(q))


class TestPaperRegressions:
    """Pin `union_of_boxes_size` on the Example 8 / Example 10 classes
    (the E7/E10 experiment workloads): the vectorized kernel must keep
    reproducing the scalar oracle's historical counts exactly."""

    @pytest.mark.parametrize("tile", [(1, 1, 1), (4, 3, 2), (8, 8, 8)])
    def test_example8_stencil_offsets(self, example8_nest, tile):
        uisets = partition_references(example8_nest.accesses)
        (b_class,) = [u for u in uisets if u.array == "B"]
        extents = np.asarray(tile, dtype=np.int64) - 1
        got = union_of_boxes_size(b_class.offsets, extents)
        assert got == union_of_boxes_size_scalar(b_class.offsets, extents)

    def test_example8_pinned_counts(self, example8_nest):
        uisets = partition_references(example8_nest.accesses)
        (b_class,) = [u for u in uisets if u.array == "B"]
        # Spread of B's offsets is (2, 3, 4); a 4x4x4 tile's union covers
        # 3 overlapping boxes of 4^3 points each.
        extents = np.array([3, 3, 3], dtype=np.int64)
        assert union_of_boxes_size(b_class.offsets, extents) == 162

    def test_example10_all_classes(self, example10_nest):
        uisets = partition_references(example10_nest.accesses)
        assert len(uisets) >= 2
        for u in uisets:
            d = u.offsets.shape[1]
            for base in (1, 5, 9):
                extents = np.full(d, base - 1, dtype=np.int64)
                got = union_of_boxes_size(u.offsets, extents)
                assert got == union_of_boxes_size_scalar(u.offsets, extents)
