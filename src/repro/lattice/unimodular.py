"""Unimodularity and mapping-property tests for reference matrices.

Implements the linear-algebraic conditions of Section 3.4:

* Lemma 1 — ``i ↦ i·G`` is one-to-one iff the *rows* of ``G`` are linearly
  independent.
* Lemma 2 — the map is onto (every integer point of the image space is
  hit) iff the *columns* of ``G`` are independent and the gcd of the
  maximal-order subdeterminants is 1 (Hermite normal form theorem).
* Theorem 1 — for square ``G``, the footprint of tile ``L`` is exactly the
  integer points of the parallelepiped ``L·G`` when ``G`` is unimodular.
* Section 3.4.1 — when the columns of ``G`` are dependent, select a maximal
  independent subset of columns (preferring one that makes the reduced
  matrix unimodular) and analyse the lower-dimensional reference.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .._util import as_int_matrix, det_rows, eliminate, int_det, int_rank, minors_gcd
from ..exceptions import SingularMatrixError

__all__ = [
    "is_unimodular",
    "is_nonsingular",
    "is_one_to_one",
    "is_onto",
    "maximal_independent_columns",
    "select_unimodular_columns",
]


def is_unimodular(g) -> bool:
    """True iff ``g`` is square with determinant ±1."""
    g = as_int_matrix(g, name="G")
    if g.shape[0] != g.shape[1]:
        return False
    return abs(int_det(g)) == 1


def is_nonsingular(g) -> bool:
    """True iff ``g`` is square with nonzero determinant."""
    g = as_int_matrix(g, name="G")
    if g.shape[0] != g.shape[1]:
        return False
    return int_det(g) != 0


def is_one_to_one(g) -> bool:
    """Lemma 1: the map ``i ↦ i·G`` is injective iff rows are independent."""
    g = as_int_matrix(g, name="G")
    return int_rank(g) == g.shape[0]


def is_onto(g) -> bool:
    """Lemma 2: ``i ↦ i·G`` is onto Z^d iff columns are independent and the
    gcd of the order-``d`` subdeterminants is 1."""
    g = as_int_matrix(g, name="G")
    l, d = g.shape
    if int_rank(g) < d:
        return False
    return minors_gcd(g, d) == 1


def maximal_independent_columns(g) -> tuple[int, ...]:
    """Indices of a maximal set of linearly independent columns of ``g``.

    Greedy left-to-right selection (so e.g. for Example 7's
    ``[[1,2,1],[0,0,1]]`` it picks columns ``(0, 2)`` giving
    ``[[1,1],[0,1]]``, the paper's choice): the pivot columns of one
    row elimination.
    """
    g = as_int_matrix(g, name="G")
    return tuple(c for _, c in eliminate(g.tolist(), g.shape[1]))


def _square_selections(g: np.ndarray):
    """``(cols, det)`` for every ``l``-column square submatrix of ``g``."""
    l, d = g.shape
    rows = g.tolist()
    for cols in combinations(range(d), l):
        yield cols, det_rows([[row[c] for c in cols] for row in rows])


def select_unimodular_columns(g, *, rank: int | None = None) -> tuple[int, ...] | None:
    """Find column indices making a square *unimodular* submatrix of ``g``.

    Section 3.4.1: "We derive a G' from G by choosing a maximal set of
    independent columns from G, such that G' is unimodular."  Searches all
    size-``rank`` column subsets; returns ``None`` when no unimodular
    selection exists ("It is possible that none of the maximal independent
    columns satisfy the conditions in Theorem 1").

    Only meaningful when ``rank(G) == l`` (full row rank); otherwise no
    square submatrix with ``l`` rows exists and ``None`` is returned.
    ``rank`` is ``rank(G)`` when the caller already knows it.
    """
    g = as_int_matrix(g, name="G")
    if (int_rank(g) if rank is None else rank) < g.shape[0]:
        return None
    return next((cols for cols, det in _square_selections(g) if abs(det) == 1), None)


def nonsingular_column_selection(g) -> tuple[int, ...]:
    """Column indices of a nonsingular ``l×l`` submatrix (needed by Thm 4).

    Prefers a unimodular selection when one exists; falls back to any
    nonsingular one (Theorem 4 only requires nonsingularity).  Raises
    :class:`SingularMatrixError` when ``rank(G) < l`` (the map is not
    injective; footprint needs the Theorem 5 / general-case treatment).
    """
    g = as_int_matrix(g, name="G")
    if int_rank(g) < g.shape[0]:
        raise SingularMatrixError(
            "G has dependent rows; no nonsingular column selection exists"
        )
    nonsingular = None
    for cols, det in _square_selections(g):
        if abs(det) == 1:
            return cols
        if det != 0 and nonsingular is None:
            nonsingular = cols
    if nonsingular is None:  # pragma: no cover - full row rank has one
        raise SingularMatrixError("no nonsingular column selection found")
    return nonsingular


__all__.append("nonsingular_column_selection")
__all__.append("is_nonsingular")
