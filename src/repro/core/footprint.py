"""Footprint of a tile with respect to a single reference (Section 3.4).

The footprint (Definition 3) is the set of array elements touched through
one reference by the iterations of one tile.  Its *size* is what the
partitioning cost model needs.  This module provides:

* :func:`footprint_size_exact` — the enumeration oracle (any tile, any G).
* :func:`footprint_det_size` — the continuous estimate ``|det L·G′|``
  (Equation 2) after column reduction.
* :func:`footprint_size` — the best exact/closed form the paper's theory
  licenses for the given ``(G, tile)``:

  ==========================  =========================================
  condition                   method
  ==========================  =========================================
  rows of G independent       Theorem 5: footprint = tile point count
  rect tile, d = 1 or rank 1  Section 3.8 closed forms / sumset count
  rect tile, otherwise        sumset count (Minkowski sum of segments)
  parallelepiped tile         exact enumeration
  ==========================  =========================================

The sumset count (:func:`~repro.lattice.points.box_image_union_size`)
never enumerates the tile: a rectangular tile's image is the Minkowski
sum of the segments ``{k·g_i : 0 ≤ k < s_i}``.

Zero columns are always dropped first (Example 1), and dependent columns
reduced per Section 3.4.1 / Example 7.
"""

from __future__ import annotations

import numpy as np

from .._util import int_det, int_rank, vector_gcd
from ..lattice.points import DEFAULT_FOOTPRINT_TABLE, DEFAULT_LATTICE_CACHE
from .affine import AffineRef
from .tiles import ParallelepipedTile, RectangularTile

__all__ = [
    "footprint_size",
    "collapsed_rect_footprint",
    "footprint_size_exact",
    "footprint_det_size",
    "footprint_points",
    "footprint_size_theorem1",
]


def footprint_points(ref: AffineRef, tile: ParallelepipedTile, *, closed: bool | None = None) -> np.ndarray:
    """All distinct data points of the footprint (enumeration, Def 3).

    ``closed`` selects the tile boundary convention; defaults to the
    natural one per tile type (half-open for :class:`RectangularTile`
    whose ``sides`` already count iterations, closed for general
    parallelepipeds as in the paper's figures).
    """
    if closed is None:
        closed = not isinstance(tile, RectangularTile)
    iters = tile.enumerate_iterations(closed=closed)
    return np.unique(ref.map_points(iters), axis=0)


def footprint_size_exact(ref: AffineRef, tile: ParallelepipedTile, *, closed: bool | None = None) -> int:
    """Exact footprint size by enumeration — the validation oracle."""
    return int(footprint_points(ref, tile, closed=closed).shape[0])


def footprint_det_size(ref: AffineRef, tile: ParallelepipedTile) -> float:
    """Equation 2: ``|det(L·G′)|`` — the continuous-volume estimate.

    ``G′`` is the reference matrix after zero-column drop and
    dependent-column reduction (Section 3.4.1), making ``L·G′`` square.
    Boundary points are not included ("for brevity, we will drop explicit
    mention of the integer points on the boundary", Section 3.4).
    """
    r = ref.drop_zero_columns()
    r = r.reduce_columns()
    lg = tile.l_matrix @ r.g
    if lg.shape[0] != lg.shape[1]:
        # rank(G) < l: the parallelepiped is degenerate in data space; its
        # d′-volume is not a footprint estimate the paper defines.  Fall
        # back to the exact count.
        return float(footprint_size(ref, tile))
    return float(abs(int_det(lg)))


def footprint_size(ref: AffineRef, tile: ParallelepipedTile) -> int:
    """Best exact footprint size available for ``(ref, tile)``.

    Dispatches per the table in the module docstring; always exact
    (falls back to enumeration rather than approximate).
    """
    r = ref.drop_zero_columns()
    rank = int_rank(r.g)

    # Theorem 5: independent rows => G injective => footprint size equals
    # the number of iterations in the tile.
    if rank == r.g.shape[0]:
        if isinstance(tile, RectangularTile):
            return tile.iterations
        return int(tile.enumerate_iterations(closed=True).shape[0])

    # Rows dependent: the map collapses iterations.
    if isinstance(tile, RectangularTile):
        return collapsed_rect_footprint(r.reduce_columns().g, tile, rank=rank)

    # General parallelepiped with dependent rows: enumerate.
    return footprint_size_exact(r, tile)


def collapsed_rect_footprint(g, tile: RectangularTile, *, rank: int | None = None) -> int:
    """Footprint size of a rectangular tile under a column-reduced ``G′``
    with dependent rows (the map collapses iterations).

    ``rank`` is ``rank(G′)`` when the caller knows it (a class reads its
    own, :attr:`~repro.core.classify.UISet.rank`).
    """
    if g.shape[1] == 1:
        # 1-D array case (Section 3.8): exact closed forms for l<=2 and
        # large boxes, the memoised sumset count (the paper's "table
        # lookup") otherwise.
        return DEFAULT_FOOTPRINT_TABLE.lookup(g[:, 0], tile.extents)
    if (int_rank(g) if rank is None else rank) == 1:
        # All rows are multiples of one primitive direction: the image
        # lies on a line and the count is a 1-D problem (Section 3.8's
        # l = 2 closed-form case, for any d).  Write g_k = c_k * v with
        # v the primitive direction; distinct points = distinct sums
        # of the c_k over the tile box.
        pivot = next(row for row in g if row.any())
        v = pivot // vector_gcd(pivot)
        j = int(np.nonzero(v)[0][0])
        coeffs = [int(row[j]) // int(v[j]) for row in g]
        return DEFAULT_FOOTPRINT_TABLE.lookup(coeffs, tile.extents)
    return DEFAULT_LATTICE_CACHE.count_distinct_images(g, tile.extents)


def footprint_size_theorem1(ref: AffineRef, tile: ParallelepipedTile) -> int:
    """Theorem 1 count: integer points on or inside ``S(L·G)``.

    Valid (equal to the true footprint) when ``G`` is unimodular; exposed
    separately so tests can exercise the theorem's sufficiency and its
    failure modes for non-unimodular ``G``.
    """
    r = ref.drop_zero_columns().reduce_columns()
    lg = tile.l_matrix @ r.g
    if lg.shape[0] != lg.shape[1]:
        raise ValueError("Theorem 1 needs a square L·G (full-rank reference)")
    return DEFAULT_LATTICE_CACHE.parallelepiped_lattice_points(lg)
