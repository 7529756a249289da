"""Tests for the Smith normal form and integer solving (repro.lattice.snf)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import int_det, int_rank
from repro.lattice.snf import (
    integer_kernel_basis,
    lattice_index,
    smith_normal_form,
    solve_integer,
)


def matrices(rows, cols, lo=-5, hi=5):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


class TestSNFStructure:
    def test_known(self):
        assert smith_normal_form([[2, 0], [0, 3]]).invariant_factors == (1, 6)

    def test_transform_relation(self):
        a = np.array([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        res = smith_normal_form(a)
        assert np.array_equal(res.u @ a @ res.v, res.d)
        assert abs(int_det(res.u)) == 1
        assert abs(int_det(res.v)) == 1

    def test_divisibility_chain(self):
        a = np.array([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        f = smith_normal_form(a).invariant_factors
        for i in range(len(f) - 1):
            if f[i + 1] != 0:
                assert f[i + 1] % f[i] == 0

    def test_zero_matrix(self):
        res = smith_normal_form(np.zeros((2, 2), dtype=int))
        assert res.invariant_factors == (0, 0)
        assert res.rank == 0

    def test_rectangular(self):
        res = smith_normal_form([[2, 0, 0], [0, 3, 0]])
        assert res.rank == 2
        assert np.array_equal(
            res.u @ np.array([[2, 0, 0], [0, 3, 0]]) @ res.v, res.d
        )

    def test_nonnegative_factors(self):
        res = smith_normal_form([[-5]])
        assert res.invariant_factors == (5,)

    @given(matrices(3, 3))
    def test_properties_random(self, m):
        a = np.array(m)
        res = smith_normal_form(a)
        assert np.array_equal(res.u @ a @ res.v, res.d)
        assert abs(int_det(res.u)) == 1
        assert abs(int_det(res.v)) == 1
        # diagonal (off-diagonal zero)
        d = res.d
        for i in range(d.shape[0]):
            for j in range(d.shape[1]):
                if i != j:
                    assert d[i, j] == 0
        f = res.invariant_factors
        for i in range(len(f) - 1):
            assert f[i] >= 0
            if f[i + 1] != 0 and f[i] != 0:
                assert f[i + 1] % f[i] == 0
        assert res.rank == int_rank(a)

    @given(matrices(2, 4))
    def test_properties_wide(self, m):
        a = np.array(m)
        res = smith_normal_form(a)
        assert np.array_equal(res.u @ a @ res.v, res.d)


class TestSolveInteger:
    def test_example10_decomposition(self):
        x = solve_integer([[1, 1], [1, -1]], [4, 2])
        assert x is not None and x.tolist() == [3, 1]

    def test_no_solution_parity(self):
        # x*(1,1) + y*(1,-1) = (1,0): needs x+y=1, x-y=0 -> x=1/2
        assert solve_integer([[1, 1], [1, -1]], [1, 0]) is None

    def test_nonintersecting_strides(self):
        # A[2i] vs A[2i+1]: x*2 = 1 unsolvable
        assert solve_integer([[2]], [1]) is None
        assert solve_integer([[2]], [4]) is not None

    def test_underdetermined(self):
        x = solve_integer([[1, 0], [0, 1], [1, 1]], [5, 7])
        assert x is not None
        assert (x @ np.array([[1, 0], [0, 1], [1, 1]]) == np.array([5, 7])).all()

    def test_overdetermined_inconsistent(self):
        # x*(1,2) = (1,1): x=1 and 2x=1 conflict
        assert solve_integer([[1, 2]], [1, 1]) is None

    def test_zero_rhs(self):
        x = solve_integer([[3, 6]], [0, 0])
        assert x is not None and (x @ np.array([[3, 6]]) == 0).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_integer([[1, 2]], [1, 2, 3])

    @given(matrices(2, 3), st.lists(st.integers(-4, 4), min_size=2, max_size=2))
    def test_complete_on_solvable(self, m, xs):
        """If b is constructed as x·A the solver must find a solution."""
        a = np.array(m)
        b = np.array(xs) @ a
        sol = solve_integer(a, b)
        assert sol is not None
        assert np.array_equal(sol @ a, b)

    @given(
        st.integers(1, 4).flatmap(lambda r: st.integers(1, 4).flatmap(
            lambda c: st.tuples(matrices(r, c), st.lists(st.integers(-8, 8), min_size=c, max_size=c))
        ))
    )
    def test_precomputed_snf_gives_the_same_answer(self, case):
        m, bs = case
        a = np.array(m)
        fresh = solve_integer(a, bs)
        reused = solve_integer(a, bs, snf=smith_normal_form(a))
        assert (fresh is None) == (reused is None)
        if fresh is not None:
            assert fresh.tolist() == reused.tolist()

    def test_snf_result_is_read_only(self):
        res = smith_normal_form([[2, 4], [6, 8]])
        assert not any(x.flags.writeable for x in (res.d, res.u, res.v))

    @given(matrices(2, 2), st.lists(st.integers(-8, 8), min_size=2, max_size=2))
    def test_sound(self, m, bs):
        """Whatever the solver returns must actually solve the system."""
        a = np.array(m)
        b = np.array(bs)
        sol = solve_integer(a, b)
        if sol is not None:
            assert np.array_equal(sol @ a, b)


class TestLatticeIndex:
    def test_square(self):
        assert lattice_index([[1, 1], [1, -1]]) == 2
        assert lattice_index([[1, 0], [0, 1]]) == 1

    def test_rank_deficient(self):
        assert lattice_index([[1, 2], [2, 4]]) == 0

    def test_tall(self):
        # rows (2,0),(0,2),(1,1) generate the checkerboard lattice: index 2
        assert lattice_index([[2, 0], [0, 2], [1, 1]]) == 2

    @given(matrices(2, 2))
    def test_equals_abs_det_square_fullrank(self, m):
        a = np.array(m)
        d = abs(int_det(a))
        if d != 0:
            assert lattice_index(a) == d


class TestIntegerKernel:
    def test_full_rank_empty(self):
        k = integer_kernel_basis([[1, 0], [0, 1]])
        assert k.shape == (0, 2)

    def test_known_kernel(self):
        k = integer_kernel_basis([[1], [2]])
        assert k.shape == (1, 2)
        assert (k @ np.array([[1], [2]]) == 0).all()

    def test_zero_matrix_full_kernel(self):
        k = integer_kernel_basis(np.zeros((2, 2), dtype=int))
        assert k.shape == (2, 2)
        assert abs(int_det(k)) == 1

    @given(matrices(3, 2))
    def test_precomputed_snf_gives_the_same_kernel(self, m):
        a = np.array(m)
        reused = integer_kernel_basis(a, smith_normal_form(a))
        assert reused.tolist() == integer_kernel_basis(a).tolist()

    @given(matrices(3, 2))
    def test_kernel_annihilates(self, m):
        a = np.array(m)
        k = integer_kernel_basis(a)
        assert k.shape[0] == 3 - int_rank(a)
        if k.size:
            assert np.all(k @ a == 0)

    @given(matrices(3, 2), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    def test_kernel_complete(self, m, xs):
        """Any integer kernel vector is an integer combination of the basis."""
        a = np.array(m)
        x = np.array(xs)
        if np.any(x @ a != 0):
            return
        k = integer_kernel_basis(a)
        if np.all(x == 0):
            return
        assert k.size > 0
        assert solve_integer(k, x) is not None
