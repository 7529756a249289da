"""Unit tests for the exact integer helpers in repro._util."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    as_int_matrix,
    as_int_vector,
    box_points_array,
    box_volume,
    exact_inverse,
    exact_solve,
    gcd_many,
    int_det,
    int_rank,
    is_integer_array,
    iter_box,
    minors_gcd,
    row_codes,
    run_heads,
    sort_by_key,
    vector_gcd,
)
from repro.exceptions import NonIntegerMatrixError, SingularMatrixError
from repro.lattice.unimodular import maximal_independent_columns


def square(draw_lo=-6, hi=6, n=3):
    return st.lists(
        st.lists(st.integers(draw_lo, hi), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )


class TestCoercion:
    def test_accepts_lists(self):
        m = as_int_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.int64 and m.shape == (2, 2)

    def test_accepts_integral_floats(self):
        m = as_int_matrix(np.array([[1.0, 2.0]]))
        assert m.tolist() == [[1, 2]]

    def test_rejects_fractional_floats(self):
        with pytest.raises(NonIntegerMatrixError):
            as_int_matrix([[0.5, 1.0]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(NonIntegerMatrixError):
            as_int_matrix([1, 2, 3])

    def test_vector(self):
        v = as_int_vector([1, -2])
        assert v.tolist() == [1, -2]

    def test_is_integer_array(self):
        assert is_integer_array(np.array([1, 2]))
        assert is_integer_array(np.array([1.0, 2.0]))
        assert not is_integer_array(np.array([1.5]))
        assert not is_integer_array(np.array(["a"]))


class TestDet:
    def test_known(self):
        assert int_det([[1, 2], [3, 4]]) == -2
        assert int_det([[2]]) == 2
        assert int_det(np.eye(4, dtype=int)) == 1

    def test_empty(self):
        assert int_det(np.zeros((0, 0), dtype=int)) == 1

    def test_singular(self):
        assert int_det([[1, 2], [2, 4]]) == 0

    def test_rejects_nonsquare(self):
        with pytest.raises(SingularMatrixError):
            int_det([[1, 2, 3], [4, 5, 6]])

    def test_pivot_swap_path(self):
        assert int_det([[0, 1], [1, 0]]) == -1

    @given(square())
    def test_matches_numpy(self, m):
        a = np.array(m)
        assert int_det(a) == round(np.linalg.det(a.astype(float)))

    def test_no_overflow_on_big_entries(self):
        big = 10**12
        m = [[big, 0], [0, big]]
        assert int_det(m) == big * big


class TestRank:
    def test_known(self):
        assert int_rank([[1, 2], [2, 4]]) == 1
        assert int_rank([[1, 0], [0, 1]]) == 2
        assert int_rank([[0, 0], [0, 0]]) == 0
        assert int_rank([[1, 2, 1], [0, 0, 1]]) == 2

    @given(square(n=3))
    def test_matches_numpy(self, m):
        a = np.array(m)
        assert int_rank(a) == np.linalg.matrix_rank(a.astype(float))


class TestGcd:
    def test_gcd_many(self):
        assert gcd_many([4, 6, 8]) == 2
        assert gcd_many([]) == 0
        assert gcd_many([0, 0]) == 0
        assert gcd_many([5]) == 5
        assert gcd_many([-4, 6]) == 2

    def test_vector_gcd(self):
        assert vector_gcd([2, 4]) == 2
        assert vector_gcd([0, 0]) == 0

    def test_minors_gcd(self):
        # columns of [[1,2,1],[0,0,2]]: maximal minors of order 2
        assert minors_gcd([[1, 2, 1], [0, 0, 2]], 2) == 2
        assert minors_gcd([[1, 0], [0, 1]], 2) == 1
        with pytest.raises(ValueError):
            minors_gcd([[1, 2]], 2)


class TestExactSolve:
    def test_square_solvable(self):
        a = [[1, 1], [1, -1]]
        x = exact_solve(a, [4, 2])
        assert x == [Fraction(3), Fraction(1)]

    def test_fractional_solution(self):
        x = exact_solve([[2, 0], [0, 2]], [1, 1])
        assert x == [Fraction(1, 2), Fraction(1, 2)]

    def test_inconsistent(self):
        # x * [[1,1]] = (1, 2) has no solution (needs equal components)
        assert exact_solve([[1, 1]], [1, 2]) is None

    def test_underdetermined_returns_particular(self):
        a = [[1, 0], [1, 0]]  # rows dependent
        x = exact_solve(a, [3, 0])
        assert x is not None
        total = x[0] * 1 + x[1] * 1
        assert total == 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            exact_solve([[1, 2]], [1, 2, 3])

    @given(square(n=2), st.lists(st.integers(-5, 5), min_size=2, max_size=2))
    def test_solution_verifies(self, m, xs):
        a = np.array(m)
        b = np.array(xs) @ a
        sol = exact_solve(a, b)
        assert sol is not None
        recon = [
            sum(sol[r] * int(a[r, c]) for r in range(2)) for c in range(2)
        ]
        assert recon == [int(v) for v in b]


class TestExactInverse:
    def test_identity(self):
        inv = exact_inverse([[1, 0], [0, 1]])
        assert inv == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]

    def test_known(self):
        inv = exact_inverse([[2, 0], [0, 4]])
        assert inv[0][0] == Fraction(1, 2) and inv[1][1] == Fraction(1, 4)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            exact_inverse([[1, 2], [2, 4]])

    def test_nonsquare_raises(self):
        with pytest.raises(SingularMatrixError):
            exact_inverse([[1, 2, 3], [4, 5, 6]])

    @given(square(n=3))
    def test_roundtrip(self, m):
        a = np.array(m)
        if int_det(a) == 0:
            return
        inv = exact_inverse(a)
        n = 3
        prod = [
            [sum(Fraction(int(a[i][k])) * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert all(prod[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


class TestBoxes:
    def test_iter_box(self):
        pts = list(iter_box([0, 0], [1, 2]))
        assert len(pts) == 6
        assert pts[0] == (0, 0) and pts[-1] == (1, 2)

    def test_box_volume(self):
        assert box_volume([0, 0], [1, 2]) == 6
        assert box_volume([2], [1]) == 0
        assert box_volume([5], [5]) == 1

    def test_box_points_array(self):
        pts = box_points_array([0, 0], [1, 1])
        assert pts.shape == (4, 2)
        assert {tuple(p) for p in pts.tolist()} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_box_points_empty(self):
        pts = box_points_array([1, 1], [0, 5])
        assert pts.shape == (0, 2)

    def test_box_points_too_large(self):
        with pytest.raises(ValueError):
            box_points_array([0] * 4, [100] * 4)

    def test_mismatched_bounds(self):
        with pytest.raises(ValueError):
            list(iter_box([0], [1, 2]))

    @given(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        st.lists(st.integers(0, 4), min_size=2, max_size=2),
    )
    def test_volume_matches_enumeration(self, lo, ext):
        lo = np.array(lo)
        hi = lo + np.array(ext)
        assert box_volume(lo, hi) == box_points_array(lo, hi).shape[0]


# ----------------------------------------------------------------------
# Differential tests: the integer eliminations against Fraction oracles.


def fraction_rank(m) -> int:
    """Rank by Gaussian elimination over ``Fraction`` (the former
    ``int_rank``), kept as an independent oracle."""
    a = np.asarray(m)
    rows = [[Fraction(int(x)) for x in row] for row in a]
    nr, nc = a.shape
    rank = 0
    col = 0
    while rank < nr and col < nc:
        pivot_row = next((r for r in range(rank, nr) if rows[r][col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, nr):
            if rows[r][col] != 0:
                factor = rows[r][col] / pivot
                rows[r] = [rows[r][c] - factor * rows[rank][c] for c in range(nc)]
        rank += 1
        col += 1
    return rank


def fraction_solve(a, b):
    """``x·a = b`` by Gauss-Jordan over ``Fraction`` (the former
    ``exact_solve``): free variables 0, ``None`` when inconsistent."""
    a = np.asarray(a)
    m, n = a.shape
    aug = [[Fraction(int(a[r][c])) for r in range(m)] + [Fraction(int(b[c]))] for c in range(n)]
    pivots = []
    row = 0
    for col in range(m):
        pr = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pr is None:
            continue
        aug[row], aug[pr] = aug[pr], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [aug[r][c] - f * aug[row][c] for c in range(m + 1)]
        pivots.append((row, col))
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if all(aug[r][c] == 0 for c in range(m)) and aug[r][m] != 0:
            return None
    x = [Fraction(0)] * m
    for r, c in pivots:
        x[c] = aug[r][m]
    return x


def greedy_columns(m) -> tuple:
    """Left-to-right independent columns, each tested by the oracle rank."""
    a = np.asarray(m)
    chosen: list[int] = []
    for c in range(a.shape[1]):
        if fraction_rank(a[:, chosen + [c]]) == len(chosen) + 1:
            chosen.append(c)
    return tuple(chosen)


BIG = 2**40


@st.composite
def int_matrices(draw, max_dim=4):
    """Matrices up to ``max_dim``×``max_dim``, 0-row and 0-column shapes
    included: small entries, entries within 16 of ±2**40, or a rank-
    deficient product ``B·C`` of a thin inner dimension."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["small", "big", "deficient"]))
    if kind == "small":
        entries = st.integers(-6, 6)
    elif kind == "big":
        entries = st.one_of(st.integers(BIG - 16, BIG + 16), st.integers(-BIG - 16, -BIG + 16), st.integers(-2, 2))
    else:
        k = draw(st.integers(0, max(0, min(r, c) - 1)))
        b = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=r, max_size=r)), dtype=np.int64).reshape(r, k)
        cm = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=c, max_size=c), min_size=k, max_size=k)), dtype=np.int64).reshape(k, c)
        return b @ cm
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    return np.array(rows, dtype=np.int64).reshape(r, c)


class TestFractionFreeElimination:
    @given(int_matrices())
    def test_rank_matches_fraction_oracle(self, m):
        assert int_rank(m) == fraction_rank(m)

    @given(int_matrices())
    def test_independent_columns_are_the_greedy_selection(self, m):
        assert maximal_independent_columns(m) == greedy_columns(m)

    @given(int_matrices(), st.data())
    def test_exact_solve_matches_fraction_oracle(self, m, data):
        r, c = m.shape
        if data.draw(st.booleans()):
            x = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r)), dtype=object)
            b = [int(v) for v in (x @ m.astype(object))] if r else [0] * c
        else:
            b = data.draw(st.lists(st.integers(-BIG, BIG), min_size=c, max_size=c))
        b = np.array(b, dtype=np.int64).reshape(c)
        assert exact_solve(m, b) == fraction_solve(m, b)

    def test_zero_shapes(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            m = np.zeros(shape, dtype=np.int64)
            assert int_rank(m) == 0
            assert maximal_independent_columns(m) == ()
        assert exact_solve(np.zeros((0, 2), dtype=np.int64), [0, 0]) == []
        assert exact_solve(np.zeros((0, 2), dtype=np.int64), [0, 1]) is None
        assert exact_solve(np.zeros((2, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)) == [0, 0]

    def test_big_entries_stay_exact(self):
        m = np.array([[BIG, BIG + 1], [BIG + 1, BIG + 2], [1, 1]], dtype=np.int64)
        assert int_rank(m) == 2 == fraction_rank(m)
        sol = exact_solve(m[:2], [1, 0])
        assert sol == fraction_solve(m[:2], [1, 0])
        assert all(isinstance(x, Fraction) for x in sol)


class TestValidateOnce:
    def test_frozen_int64_is_returned_as_is(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.int64)
        a.setflags(write=False)
        assert as_int_matrix(a) is a

    def test_writable_input_is_copied(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.int64)
        m = as_int_matrix(a)
        assert m is not a and not np.shares_memory(m, a)
        m[0, 0] = 99
        assert a[0, 0] == 1
        v = np.array([5, 6], dtype=np.int64)
        assert not np.shares_memory(as_int_vector(v), v)

    def test_non_contiguous_frozen_input_is_copied(self):
        a = np.arange(6, dtype=np.int64).reshape(2, 3)
        a.setflags(write=False)
        m = as_int_matrix(a.T)
        assert m.flags.c_contiguous and m.flags.writeable
        assert m.tolist() == a.T.tolist()

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float64, object])
    def test_other_dtypes_are_copied(self, dtype):
        a = np.array([[1, 2], [3, 4]], dtype=dtype)
        m = as_int_matrix(a)
        assert m.dtype == np.int64 and not np.shares_memory(m, a)

    def test_rejects_non_integral_floats(self):
        with pytest.raises(NonIntegerMatrixError):
            as_int_matrix(np.array([[1.0, 2.5]]))
        with pytest.raises(NonIntegerMatrixError):
            as_int_vector(np.array([np.nan]))

    def test_rejects_non_int_objects(self):
        for bad in ([[Fraction(1, 2)]], [[1, "2"]], [[1.0]]):
            with pytest.raises(NonIntegerMatrixError):
                as_int_matrix(np.array(bad, dtype=object))

    def test_affine_ref_freezes_its_arrays(self):
        from repro.core.affine import AffineRef

        g = np.array([[1, 0], [0, 1]], dtype=np.int64)
        ref = AffineRef("A", g, [0, 1])
        assert not ref.g.flags.writeable and not ref.offset.flags.writeable
        g[0, 0] = 7  # the caller's array is not the reference's
        assert ref.g[0, 0] == 1
        assert as_int_matrix(ref.g) is ref.g


class TestPointArrayKeys:
    """Order-preserving 1-D keys for point arrays."""

    @pytest.mark.parametrize("scale", [1, 2**60])
    def test_row_codes_sort_like_rows(self, scale):
        """Bounding-box codes, and distinct-row ranks when the box times
        ``scale`` would overflow."""
        rng = np.random.default_rng(1)
        rows = rng.integers(-3, 4, (60, 2))
        codes, n = row_codes(rows, scale)
        distinct = np.unique(rows, axis=0).shape[0]
        assert n == (49 if scale == 1 else distinct)
        assert codes.min() >= 0 and codes.max() < n
        order = np.lexsort(rows.T[::-1])
        assert np.all(np.diff(codes[order]) >= 0)
        same = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
        np.testing.assert_array_equal(codes[:, None] == codes[None, :], same)

    def test_row_codes_empty_and_zero_width(self):
        assert row_codes(np.empty((0, 2), dtype=np.int64))[0].shape == (0,)
        codes, n = row_codes(np.empty((3, 0), dtype=np.int64))
        assert codes.tolist() == [0, 0, 0] and n == 1

    def test_sort_by_key_is_a_stable_argsort(self):
        keys = np.random.default_rng(2).integers(0, 5, 100)
        positions, sorted_keys = sort_by_key(keys)
        np.testing.assert_array_equal(positions, np.argsort(keys, kind="stable"))
        np.testing.assert_array_equal(sorted_keys, np.sort(keys))

    def test_run_heads(self):
        assert run_heads(np.array([1, 1, 2, 5, 5, 5])).tolist() == [
            True, False, True, True, False, False,
        ]
        assert run_heads(np.empty(0, dtype=np.int64)).shape == (0,)
