"""Tests for symbolic footprint polynomials against the paper's formulas."""

import numpy as np
import pytest

from repro.core import RectangularTile, cumulative_footprint_rect, partition_references
from repro.core.symbolic import (
    RectFootprintPolynomial,
    class_polynomial,
    loop_polynomial,
)


def evaluate(poly: RectFootprintPolynomial, sides) -> float:
    """The polynomial at concrete tile sides."""
    sides = np.asarray(sides, dtype=float)
    return float(sum(c * np.prod(sides[list(dims)]) for dims, c in poly.terms))


class TestPolynomialAlgebra:
    def test_from_dict_drops_zeros(self):
        p = RectFootprintPolynomial.from_dict({(0,): 0.0, (1,): 2.0}, ("i", "j"))
        assert p.coefficient((0,)) == 0.0
        assert p.coefficient((1,)) == 2.0

    def test_add(self):
        a = RectFootprintPolynomial.from_dict({(0, 1): 1.0, (0,): 2.0}, ("i", "j"))
        b = RectFootprintPolynomial.from_dict({(0, 1): 1.0, (1,): 3.0}, ("i", "j"))
        c = a + b
        assert c.coefficient((0, 1)) == 2.0
        assert c.coefficient((0,)) == 2.0
        assert c.coefficient((1,)) == 3.0

    def test_add_name_mismatch(self):
        a = RectFootprintPolynomial.from_dict({}, ("i",))
        b = RectFootprintPolynomial.from_dict({}, ("j",))
        with pytest.raises(ValueError):
            a + b

    def test_evaluate(self):
        p = RectFootprintPolynomial.from_dict(
            {(0, 1): 1.0, (0,): 2.0, (): 5.0}, ("i", "j")
        )
        assert evaluate(p, [3, 4]) == 12 + 6 + 5

    def test_str_zero(self):
        assert str(RectFootprintPolynomial.from_dict({}, ("i",))) == "0"

    def test_str_ordering_volume_first(self):
        p = RectFootprintPolynomial.from_dict(
            {(0,): 2.0, (0, 1): 1.0}, ("i", "j")
        )
        assert str(p) == "i*j + 2*i"

    def test_partition_sensitive(self):
        p = RectFootprintPolynomial.from_dict(
            {(0, 1): 1.0, (0,): 2.0}, ("i", "j")
        )
        q = p.partition_sensitive()
        assert q.coefficient((0, 1)) == 0.0
        assert q.coefficient((0,)) == 2.0


class TestPaperPolynomials:
    def test_example8_string(self, example8_nest):
        poly = loop_polynomial(list(example8_nest.accesses), ("Li", "Lj", "Lk"))
        # A contributes one volume term, B another + the spread terms.
        assert str(poly) == "2*Li*Lj*Lk + 4*Li*Lj + 3*Li*Lk + 2*Lj*Lk"

    def test_example8_b_class_matches_paper(self, example8_nest):
        sets = partition_references(example8_nest.accesses)
        b = next(s for s in sets if s.array == "B")
        poly = class_polynomial(b, ("Li", "Lj", "Lk"))
        assert str(poly) == "Li*Lj*Lk + 4*Li*Lj + 3*Li*Lk + 2*Lj*Lk"

    def test_example9_total(self, example9_nest):
        """The determinant-consistent total: 3 volume terms + 4L11 + 4L22."""
        poly = loop_polynomial(list(example9_nest.accesses), ("L11", "L22"))
        assert poly.coefficient((0, 1)) == 3.0  # A, B, C volume terms
        assert poly.coefficient((0,)) == 4.0
        assert poly.coefficient((1,)) == 4.0

    def test_example10_objective(self, example10_nest):
        poly = loop_polynomial(list(example10_nest.accesses), ("Li", "Lj"))
        sens = poly.partition_sensitive()
        # paper: minimise 2(L_i+1) + 3(L_j+1) -> coefficients (2, 3) on the
        # *sides*: term in s_i comes from u_j and vice versa.
        assert sens.coefficient((0,)) == 2.0
        assert sens.coefficient((1,)) == 3.0

    def test_evaluate_matches_theorem4(self, example10_nest):
        sets = partition_references(example10_nest.accesses)
        poly = loop_polynomial(sets, ("i", "j"))
        for sides in ([6, 4], [18, 12]):
            t = RectangularTile(sides)
            direct = sum(cumulative_footprint_rect(s, t) for s in sets)
            assert evaluate(poly, sides) == direct

    def test_singular_class_volume_only(self):
        """A[i+j] has no Theorem-4 polynomial: volume term only."""
        from repro.core import AffineRef

        refs = [
            AffineRef("A", [[1], [1]], [0]),
            AffineRef("A", [[1], [1]], [1]),
        ]
        poly = loop_polynomial(refs, ("i", "j"))
        assert str(poly) == "i*j"
