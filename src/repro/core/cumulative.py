"""Cumulative footprints of uniformly intersecting classes (Section 3.5).

Three evaluation paths, from most faithful-to-the-paper to most exact:

* :func:`cumulative_footprint_size` — Theorem 2's determinant
  approximation ``|det LG| + Σ_i |det LG_{i→â}|`` for a general
  hyperparallelepiped tile (valid as stated for unimodular ``G``; we apply
  the same column reduction the paper prescribes otherwise).
* :func:`cumulative_footprint_rect` — Theorem 4 for rectangular tiles and
  any *nonsingular* ``G``: ``Π(λ_j+1) + Σ_i u_i·Π_{j≠i}(λ_j+1)`` with
  ``â = Σ u_i g_i``.
* :func:`cumulative_footprint_size_exact` — exact union size.  For
  rectangular tiles this uses the bounded-lattice union (Lemma 3
  generalised to any number of members via exact box-union counting);
  for general tiles it enumerates.  This path is the repository's
  sharpening of the paper: the paper approximates via the spread, we can
  also count exactly.

The loop-level total (:func:`loop_footprint_size`) sums classes — "the
total communication generated by non-uniformly intersecting sets of
references is essentially the sum" (Section 3.5).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .._util import exact_solve, int_det, int_rank
from ..exceptions import SingularMatrixError
from ..lattice.lattice import BoundedLattice
from .classify import UISet, partition_references
from .footprint import footprint_size
from .tiles import ParallelepipedTile, RectangularTile

__all__ = [
    "Theorem2Objective",
    "cumulative_footprint_size",
    "cumulative_footprint_rect",
    "cumulative_footprint_size_exact",
    "loop_footprint_size",
    "spread_coefficients",
    "cumulative_line_footprint_exact",
]


def _reduced(uiset: UISet):
    """Column-reduce the class: shared G′ plus per-member reduced offsets.

    Zero columns are dropped first (Example 1), then a maximal independent
    column set is kept (Section 3.4.1).  Within a uniformly intersecting
    class this preserves footprint sizes and overlaps exactly (see
    :meth:`AffineRef.reduce_columns`).
    """
    base = uiset.base_ref().drop_zero_columns()
    cols_nonzero = [c for c in range(uiset.g.shape[1]) if uiset.g[:, c].any()]
    sub = base.reduced_columns()
    keep = [cols_nonzero[c] for c in sub]
    g = uiset.g[:, keep]
    offsets = uiset.offsets[:, keep]
    return g, offsets


def spread_coefficients(uiset: UISet) -> np.ndarray:
    """The ``u`` of Theorems 3-4: solve ``â = Σ u_i g_i`` (absolute values).

    Solved exactly over the rationals on the column-reduced ``G′``; the
    result is float (Theorem 4 is an approximation anyway and Example 10
    shows non-unimodular ``G`` with integral ``u``; fractional ``u`` just
    means the extreme offsets do not lie on the footprint lattice and the
    dilation is fractional).
    """
    g, offsets = _reduced(uiset)
    if int_rank(g) < g.shape[0]:
        raise SingularMatrixError(
            "spread coefficients require independent rows of G (Theorem 4)"
        )
    a_hat = offsets.max(axis=0) - offsets.min(axis=0)
    sol = exact_solve(g, a_hat)
    if sol is None:  # pragma: no cover - â lies in the row space by construction
        raise SingularMatrixError("spread vector not in the row space of G")
    return np.abs(np.array([float(c) for c in sol]))


class Theorem2Objective:
    """Theorem 2's objective, compiled once for a fixed list of classes.

    ``Σ_classes [|det LG′| + Σ_i |det LG′_{i→â}|]`` as a function of the
    flattened ``l × l`` tile matrix ``L``.  The column reduction ``G′``
    and the spread vector ``â`` depend only on the classes, never on
    ``L``, so they are computed here once; each call then stacks every
    class's ``l + 1`` matrices and takes one batched determinant.  The
    ``|det|`` values are summed per class and then across classes in the
    order of the per-matrix formula, so values are bit-identical to it.

    Raises :class:`SingularMatrixError` at construction when some class's
    ``L·G′`` is not square (dependent rows of ``G`` after reduction).
    Holds only numpy arrays, so it pickles into process-pool workers.
    """

    def __init__(self, uisets, l: int):
        self.l = int(l)
        gs, a_hats = [], []
        for s in uisets:
            g, offsets = _reduced(s)
            if g.shape[0] != g.shape[1]:
                raise SingularMatrixError(
                    "Theorem 2 needs full-row-rank G after reduction"
                )
            gs.append(g)
            a_hats.append((offsets.max(axis=0) - offsets.min(axis=0)).astype(float))
        self._g = np.array(gs, dtype=float).reshape(len(gs), self.l, self.l)
        self._a_hat = np.array(a_hats, dtype=float).reshape(len(gs), 1, self.l)

    def __call__(self, l_flat) -> float:
        l = self.l
        lm = np.asarray(l_flat, dtype=float).reshape(l, l)
        # stack[k, 0] = L·G′_k; stack[k, i + 1] = the same with row i → â_k.
        stack = np.repeat((lm @ self._g)[:, None], l + 1, axis=1)
        rows = np.arange(l)
        stack[:, rows + 1, rows, :] = self._a_hat
        total = 0.0
        for dets in np.abs(np.linalg.det(stack)).tolist():
            class_total = dets[0]
            for d in dets[1:]:
                class_total += d
            total += class_total
        return total


def cumulative_footprint_size(uiset: UISet, tile: ParallelepipedTile) -> float:
    """Theorem 2: ``|det LG| + Σ_{i=1..d} |det LG_{i→â}|``.

    ``LG_{i→â}`` replaces the ``i``-th row of ``LG`` with the spread
    vector ``â``.  Requires square ``L·G′`` (full-row-rank reference after
    reduction).  Continuous estimate — compare with the exact path in
    tests and benchmarks.  A one-class :class:`Theorem2Objective`.
    """
    lm = np.asarray(tile.l_matrix, dtype=float)
    return Theorem2Objective([uiset], lm.shape[0])(lm)


def cumulative_footprint_rect(uiset: UISet, tile: RectangularTile) -> float:
    """Theorem 4 for rectangular tiles and nonsingular reduced ``G``.

    ``Π_j (λ_j+1) + Σ_i u_i Π_{j≠i} (λ_j+1)`` — note the paper keeps only
    the first-order terms of Lemma 3's exact expansion (the ``−Π u_i``
    cross term is dropped).
    """
    u = spread_coefficients(uiset)
    sides = tile.sides.astype(float)  # λ_j + 1
    total = float(np.prod(sides))
    for i, ui in enumerate(u):
        total += float(ui) * float(np.prod(np.delete(sides, i)))
    return total


def cumulative_footprint_size_exact(
    uiset: UISet, tile: ParallelepipedTile, *, closed: bool | None = None
) -> int:
    """Exact cumulative footprint ``|∪_r F(r)|`` for the tile.

    Rectangular tiles with independent-row reduced ``G`` use the exact
    bounded-lattice union (coordinate-compressed box union in coefficient
    space — Lemma 3's generalisation); everything else enumerates.

    ``closed`` selects the tile-boundary convention for parallelepipeds:
    the paper's closed tiles (default, matches its figures) or the
    half-open tiles of a homogeneous tiling (each iteration in exactly one
    tile — the fair convention when comparing tile shapes of equal
    volume).  Rectangular tiles always use their half-open ``sides``.
    """
    g, offsets = _reduced(uiset)
    if isinstance(tile, RectangularTile) and int_rank(g) == g.shape[0]:
        bl = BoundedLattice(g, tile.extents)
        base = offsets[0]
        translations = [o - base for o in offsets]
        return bl.union_size_many(translations)
    # Enumeration oracle.
    if closed is None:
        closed = not isinstance(tile, RectangularTile)
    iters = tile.enumerate_iterations(closed=closed)
    pts = [iters @ g + o for o in offsets]
    return int(np.unique(np.vstack(pts), axis=0).shape[0])


def loop_footprint_size(
    accesses_or_sets,
    tile: ParallelepipedTile,
    *,
    method: str = "exact",
) -> float:
    """Total cumulative footprint of a tile over all reference classes.

    ``accesses_or_sets`` may be raw accesses/references (classified here)
    or a pre-computed list of :class:`UISet`.  ``method`` is one of
    ``'exact'``, ``'theorem2'``, ``'theorem4'``.

    The per-class sizes are summed; classes are disjoint-or-mostly-
    disjoint by construction (Section 3.3).
    """
    sets = (
        list(accesses_or_sets)
        if accesses_or_sets and isinstance(accesses_or_sets[0], UISet)
        else partition_references(accesses_or_sets)
    )
    total = 0.0
    for s in sets:
        if method == "exact":
            total += cumulative_footprint_size_exact(s, tile)
        elif method == "theorem2":
            total += cumulative_footprint_size(s, tile)
        elif method == "theorem4":
            if not isinstance(tile, RectangularTile):
                raise TypeError("theorem4 applies to rectangular tiles")
            total += cumulative_footprint_rect(s, tile)
        else:
            raise ValueError(f"unknown method {method!r}")
    return total


def cumulative_line_footprint_exact(
    uiset: UISet, tile: ParallelepipedTile, line_size: int, *, origin=None
) -> int:
    """Exact cumulative footprint in *cache lines* of ``line_size``.

    Section 2.2's unit-line assumption lifted the way reference [6]
    (Abraham & Hudak) suggests: consecutive elements of the array's last
    dimension share a line, so a tile wide in the contiguous dimension
    touches fewer lines per element.  Counted by enumeration (the exact
    lattice shortcut does not survive the floor-division).

    Unlike element footprints (Proposition 1), line footprints are *not*
    translation-invariant — a tile misaligned with the line grid straddles
    one extra line per row.  ``origin`` (default the zero vector) places
    the tile at its absolute iteration-space position; pass the space's
    lower corner for the first tile of a real loop.
    """
    if line_size < 1:
        raise ValueError(f"line_size must be >= 1, got {line_size}")
    closed = not isinstance(tile, RectangularTile)
    iters = tile.enumerate_iterations(closed=closed)
    if origin is not None:
        iters = iters + np.asarray(origin, dtype=np.int64)
    lines = set()
    for r in uiset.refs:
        pts = r.map_points(iters)
        pts = pts.copy()
        pts[:, -1] = np.floor_divide(pts[:, -1], line_size)
        lines |= {tuple(p) for p in pts.tolist()}
    return len(lines)
