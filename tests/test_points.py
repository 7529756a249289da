"""Tests for exact point counting (repro.lattice.points)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import box_points_array, int_det
from repro.lattice.points import (
    box_image_union_size,
    count_distinct_images,
    distinct_values_1d,
    enumerate_footprint,
    parallelepiped_lattice_points,
    parallelogram_boundary_points,
    union_of_boxes_size,
)


class TestDistinctImages:
    def test_identity(self):
        assert count_distinct_images([[1, 0], [0, 1]], [0, 0], [3, 4]) == 20

    def test_stride_two(self):
        assert count_distinct_images([[2]], [0], [9]) == 10

    def test_collapsing(self):
        # A[i+j]: values 0..6 over a 4x4 box
        assert count_distinct_images([[1], [1]], [0, 0], [3, 3]) == 7

    def test_offset_invariance(self):
        a = enumerate_footprint([[1], [1]], [0, 0], [3, 3])
        b = enumerate_footprint([[1], [1]], [0, 0], [3, 3], offset=[10])
        assert a.shape == b.shape
        assert np.array_equal(a + 10, b)

    def test_empty_box(self):
        assert count_distinct_images([[1]], [2], [1]) == 0


def _enumerated_union(g, offsets, sides) -> int:
    """The oracle: enumerate the box, map it, unique over all translates."""
    g = np.array(g, dtype=np.int64)
    pts = box_points_array([0] * len(sides), [s - 1 for s in sides]) @ g
    imgs = np.vstack([pts + np.array(o, dtype=np.int64) for o in offsets])
    return int(np.unique(imgs, axis=0).shape[0])


@st.composite
def _sumset_inputs(draw):
    """``(G, offsets, sides)`` with ``l, d′ ≤ 3`` and entries in [-4, 4].

    Rows are fresh, zero, a copy of an earlier row or a multiple of one,
    so dependent, repeated and zero rows all occur besides independent
    ones.
    """
    l = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    entry = st.integers(-4, 4)
    rows = []
    for _ in range(l):
        kind = draw(st.sampled_from(["fresh", "zero", "copy", "multiple"]))
        if kind == "zero":
            rows.append([0] * d)
        elif kind in ("copy", "multiple") and rows:
            base = draw(st.sampled_from(rows))
            k = 1 if kind == "copy" else draw(st.sampled_from([-2, -1, 2]))
            rows.append([max(-4, min(4, k * x)) for x in base])
        else:
            rows.append(draw(st.lists(entry, min_size=d, max_size=d)))
    offsets = draw(
        st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d), min_size=1, max_size=4)
    )
    sides = draw(st.lists(st.integers(1, 6), min_size=l, max_size=l))
    return rows, offsets, sides


class TestBoxImageUnionSize:
    @given(_sumset_inputs())
    def test_matches_enumeration(self, args):
        g, offsets, sides = args
        assert box_image_union_size(g, offsets, sides) == _enumerated_union(g, offsets, sides)

    def test_cij_three_translates_on_a_100_cube(self):
        # C[i,j], C[i+1,j], C[i,j+1] in a 3-deep nest: the k row is zero.
        g = [[1, 0], [0, 1], [0, 0]]
        offsets = [[0, 0], [1, 0], [0, 1]]
        assert box_image_union_size(g, offsets, [100, 100, 100]) == 10_200

    def test_cij_through_the_cumulative_footprint(self):
        from repro.core.affine import AffineRef
        from repro.core.classify import partition_references
        from repro.core.cumulative import cumulative_footprint_size_exact
        from repro.core.tiles import RectangularTile

        g = [[1, 0], [0, 1], [0, 0]]
        refs = [AffineRef("C", g, o) for o in ([0, 0], [1, 0], [0, 1])]
        (s,) = partition_references(refs)
        assert s.u is None
        tile = RectangularTile([100, 100, 100])
        assert cumulative_footprint_size_exact(s, tile) == 10_200

    def test_beyond_the_enumeration_cap(self):
        # 400**3 = 64M iterations: more than box_points_array enumerates.
        g = [[1, 0], [0, 1], [0, 0]]
        with pytest.raises(ValueError, match="too large"):
            box_points_array([0, 0, 0], [399, 399, 399])
        assert box_image_union_size(g, [[0, 0], [1, 1]], [400, 400, 400]) == 2 * 160_000 - 399**2
        assert count_distinct_images(g, [0, 0, 0], [399, 399, 399]) == 160_000
        # 300**3 = 27M: above the former 20M cap of the 1-D count.
        assert distinct_values_1d([1, 2, 3], [0, 0, 0], [299, 299, 299]) == 6 * 299 + 1

    def test_code_radix_covers_negative_offsets(self):
        # The radix must bound |coordinate|, not the largest coordinate:
        # (-3, 1) and (0, 0) would share a code under radix 3.
        assert box_image_union_size([[1, 0]], [[-3, 1], [0, 0]], [2]) == 4

    def test_empty_and_degenerate(self):
        assert box_image_union_size([[1]], [[0]], [0]) == 0
        assert box_image_union_size([[1]], np.empty((0, 1), dtype=np.int64), [3]) == 0
        assert box_image_union_size([[0, 0]], [[5, 5]], [7]) == 1
        assert box_image_union_size([[1, 1]], [[0, 0], [0, 0]], [4]) == 4

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            box_image_union_size([[1, 0]], [[0, 0]], [2, 2])
        with pytest.raises(ValueError):
            box_image_union_size([[1, 0]], [[0]], [2])


class TestParallelepiped:
    def test_example6_formula(self):
        """Figure 6: footprint of skewed tile L=[[L1,L1],[L2,0]] wrt
        B[i+j,j] is the parallelogram LG with L1L2 + L1 + L2 (+1) points."""
        for l1, l2 in [(5, 7), (10, 10), (3, 12)]:
            lg = [[2 * l1, l1], [l2, 0]]
            assert parallelepiped_lattice_points(lg) == l1 * l2 + l1 + l2 + 1

    def test_unit_square(self):
        assert parallelepiped_lattice_points([[1, 0], [0, 1]]) == 4

    def test_degenerate_segment(self):
        # Q rows collinear: the hull is a segment 0..(4,0) u (2,0)
        assert parallelepiped_lattice_points([[2, 0], [2, 0]]) == 5

    def test_degenerate_zero(self):
        assert parallelepiped_lattice_points([[0, 0], [0, 0]]) == 1

    def test_3d_cube(self):
        q = np.eye(3, dtype=int) * 2
        assert parallelepiped_lattice_points(q) == 27

    def test_3d_skewed_vs_enumeration(self):
        q = np.array([[2, 0, 0], [1, 3, 0], [0, 1, 2]])
        # brute force: points x = a.q with 0<=a<=1 -> enumerate unit-cube
        # grid finely is wrong for non-integer coefficients; instead check
        # against the integer points inside using the same membership rule
        # exercised in 2-D by Pick's theorem equivalence below.
        n = parallelepiped_lattice_points(q)
        assert n >= abs(int_det(q))  # at least the volume

    @given(
        st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2)
    )
    def test_pick_consistency(self, m):
        """For nondegenerate 2x2 Q, count = Area + B/2 + 1 (Pick)."""
        q = np.array(m)
        if int_det(q) == 0:
            return
        area = abs(int_det(q))
        b = parallelogram_boundary_points(q)
        assert parallelepiped_lattice_points(q) == area + b // 2 + 1

    @given(
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2)
    )
    def test_matches_direct_enumeration(self, m):
        """Check S(Q) membership count against a rational brute force."""
        from fractions import Fraction

        q = np.array(m)
        if int_det(q) == 0:
            return
        corners = np.array(
            [[0, 0], q[0], q[1], q[0] + q[1]]
        )
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        det = int_det(q)
        count = 0
        for p in box_points_array(lo, hi):
            # solve a·q = p exactly via Cramer
            a1 = Fraction(int(p[0] * q[1][1] - p[1] * q[1][0]), det)
            a2 = Fraction(int(p[1] * q[0][0] - p[0] * q[0][1]), det)
            if 0 <= a1 <= 1 and 0 <= a2 <= 1:
                count += 1
        assert parallelepiped_lattice_points(q) == count


class TestBoundary:
    def test_unit(self):
        assert parallelogram_boundary_points([[1, 0], [0, 1]]) == 4

    def test_example6(self):
        assert parallelogram_boundary_points([[10, 5], [7, 0]]) == 2 * (5 + 7)

    def test_requires_2x2(self):
        with pytest.raises(ValueError):
            parallelogram_boundary_points([[1, 0, 0], [0, 1, 0]])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            parallelogram_boundary_points([[1, 1], [2, 2]])


class TestUnionOfBoxes:
    def test_single(self):
        assert union_of_boxes_size([[0, 0]], [2, 3]) == 12

    def test_disjoint(self):
        assert union_of_boxes_size([[0], [10]], [2]) == 6

    def test_overlap(self):
        assert union_of_boxes_size([[0], [2]], [3]) == 6

    def test_nested(self):
        assert union_of_boxes_size([[0, 0], [0, 0]], [1, 1]) == 4

    def test_negative_extent(self):
        assert union_of_boxes_size([[0]], [-1]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            union_of_boxes_size([[0, 0]], [1])

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=2, max_size=2),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.integers(0, 4), min_size=2, max_size=2),
    )
    def test_against_brute_force(self, offsets, extents):
        offsets = np.array(offsets)
        extents = np.array(extents)
        pts = set()
        for off in offsets:
            for p in box_points_array(off, off + extents):
                pts.add(tuple(p))
        assert union_of_boxes_size(offsets, extents) == len(pts)

    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.integers(0, 2), min_size=3, max_size=3),
    )
    def test_three_dims(self, offsets, extents):
        offsets = np.array(offsets)
        extents = np.array(extents)
        pts = set()
        for off in offsets:
            for p in box_points_array(off, off + extents):
                pts.add(tuple(p))
        assert union_of_boxes_size(offsets, extents) == len(pts)


class TestDistinctValues1D:
    def test_single_dim(self):
        assert distinct_values_1d([3], [0], [9]) == 10

    def test_constant(self):
        assert distinct_values_1d([0, 0], [0, 0], [5, 5]) == 1

    def test_empty(self):
        assert distinct_values_1d([1], [3], [1]) == 0

    def test_small_box_frobenius(self):
        # 2i+3j, i<=4, j<=3 -> 16 (misses 1 and 16)
        assert distinct_values_1d([2, 3], [0, 0], [4, 3]) == 16

    def test_coprime_large_box(self):
        # closed form branch
        assert distinct_values_1d([2, 3], [0, 0], [10, 10]) == 2 * 10 + 3 * 10 + 1 - 2

    def test_mixed_signs(self):
        v1 = distinct_values_1d([2, -3], [0, 0], [5, 4])
        v2 = distinct_values_1d([2, 3], [0, 0], [5, 4])
        assert v1 == v2

    def test_three_vars(self):
        # enumeration branch
        got = distinct_values_1d([1, 2, 4], [0, 0, 0], [1, 1, 1])
        vals = {i + 2 * j + 4 * k for i in (0, 1) for j in (0, 1) for k in (0, 1)}
        assert got == len(vals)

    @given(
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.integers(0, 8),
        st.integers(0, 8),
    )
    def test_two_vars_vs_enumeration(self, a, b, n1, n2):
        vals = {a * i + b * j for i in range(n1 + 1) for j in range(n2 + 1)}
        assert distinct_values_1d([a, b], [0, 0], [n1, n2]) == len(vals)

    @given(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    def test_three_vars_vs_enumeration(self, coeffs, ext):
        import itertools

        vals = {
            sum(c * x for c, x in zip(coeffs, pt))
            for pt in itertools.product(*(range(e + 1) for e in ext))
        }
        assert distinct_values_1d(coeffs, [0, 0, 0], ext) == len(vals)
