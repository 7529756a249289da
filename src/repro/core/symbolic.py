"""Symbolic cumulative-footprint polynomials.

The paper communicates every cost function as a polynomial in the tile
sides — ``L_iL_jL_k + 2L_jL_k + 3L_iL_k + 4L_iL_j`` (Example 8),
``2L11L22 + 4L11 + 4L22`` (Example 9, after its determinants), and so on.
This module produces those polynomials programmatically, so a compiler
(or a reader) can see *what* is being minimised, not just the minimiser's
output.

A :class:`RectFootprintPolynomial` is ``Σ_T c_T · Π_{j∈T} s_j`` over
subsets ``T`` of loop dimensions, where ``s_j`` is the tile side
(iterations) in dimension ``j``.  For a uniformly intersecting class with
Theorem-4 coefficients ``u``, the polynomial is::

    Π_j s_j  +  Σ_i u_i · Π_{j≠i} s_j

and the loop-level polynomial is the sum over classes (Section 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import SingularMatrixError
from .classify import UISet, as_uisets
from .cumulative import spread_coefficients

__all__ = [
    "RectFootprintPolynomial",
    "class_polynomial",
    "loop_polynomial",
]


@dataclass(frozen=True)
class RectFootprintPolynomial:
    """``Σ_T coeff_T · Π_{j∈T} s_j`` with human-readable rendering.

    ``terms`` maps a sorted tuple of dimension indices to its
    coefficient; ``names`` are the loop-index display names.
    """

    terms: tuple[tuple[tuple[int, ...], float], ...]
    names: tuple[str, ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, ...], float], names) -> "RectFootprintPolynomial":
        cleaned = {
            tuple(sorted(k)): float(v) for k, v in d.items() if v != 0
        }
        ordered = sorted(
            cleaned.items(), key=lambda kv: (-len(kv[0]), kv[0])
        )
        return RectFootprintPolynomial(tuple(ordered), tuple(names))

    def coefficient(self, dims) -> float:
        key = tuple(sorted(dims))
        for k, v in self.terms:
            if k == key:
                return v
        return 0.0

    def __add__(self, other: "RectFootprintPolynomial") -> "RectFootprintPolynomial":
        if self.names != other.names:
            raise ValueError("polynomials over different index names")
        d: dict[tuple[int, ...], float] = {}
        for k, v in self.terms + other.terms:
            d[k] = d.get(k, 0.0) + v
        return RectFootprintPolynomial.from_dict(d, self.names)

    def evaluate(self, sides) -> float:
        """Plug in concrete tile sides."""
        sides = np.asarray(sides, dtype=float)
        total = 0.0
        for dims, c in self.terms:
            prod = c
            for j in dims:
                prod *= sides[j]
            total += prod
        return float(total)

    def partition_sensitive(self) -> "RectFootprintPolynomial":
        """Drop the full-volume term (constant under load balancing) —
        what is left is the traffic being minimised (Figure 9 argument)."""
        full = tuple(range(len(self.names)))
        return RectFootprintPolynomial.from_dict(
            {k: v for k, v in self.terms if k != full}, self.names
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for dims, c in self.terms:
            prod = "*".join(self.names[j] for j in dims) if dims else "1"
            if c == 1 and dims:
                parts.append(prod)
            elif c == int(c):
                parts.append(f"{int(c)}*{prod}" if dims else f"{int(c)}")
            else:
                parts.append(f"{c:g}*{prod}" if dims else f"{c:g}")
        return " + ".join(parts)


def class_polynomial(uiset: UISet, names) -> RectFootprintPolynomial:
    """Theorem-4 polynomial of one uniformly intersecting class.

    ``Π_j s_j + Σ_i u_i Π_{j≠i} s_j`` with the class's spread
    coefficients ``u``.  Classes whose reduced ``G`` has dependent rows
    have no Theorem-4 form; :class:`~repro.exceptions.SingularMatrixError`
    propagates.  Single-reference classes yield just the volume term.
    """
    names = tuple(names)
    l = len(names)
    d: dict[tuple[int, ...], float] = {tuple(range(l)): 1.0}
    if uiset.size > 1 and np.any(uiset.spread()):
        for i, ui in enumerate(spread_coefficients(uiset)):
            if ui:
                dims = tuple(j for j in range(l) if j != i)
                d[dims] = d.get(dims, 0.0) + float(ui)
    return RectFootprintPolynomial.from_dict(d, names)


def loop_polynomial(accesses_or_sets, names) -> RectFootprintPolynomial:
    """Sum of class polynomials — the paper's total cost expression.

    Classes without a Theorem-4 form contribute their volume term only
    (with a conservative note: their true footprint is partition-dependent
    but lacks a closed polynomial; the numeric optimizer handles them
    exactly).
    """
    names = tuple(names)
    total = RectFootprintPolynomial.from_dict({}, names)
    l = len(names)
    for s in as_uisets(accesses_or_sets):
        try:
            total = total + class_polynomial(s, names)
        except SingularMatrixError:
            total = total + RectFootprintPolynomial.from_dict(
                {tuple(range(l)): 1.0}, names
            )
    return total
