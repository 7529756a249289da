"""Exact integer-point counting.

This module is the *oracle* layer: every closed-form footprint expression
in the paper (Eq 2, Theorems 1-5, Lemma 3) is validated against the exact
counts computed here.

Contents
--------
* :func:`box_image_union_size` — exact size of the union of translates
  of a box's image under ``G``, counted as a Minkowski sum of segments
  (never enumerating the box); :func:`count_distinct_images` is its
  one-reference case and :func:`enumerate_footprint` the enumeration
  oracle (Definition 3 verbatim).
* :func:`parallelepiped_lattice_points` — integer points on or inside the
  parallelepiped ``S(Q)`` of Definition 7 (Pick's theorem in 2-D, chunked
  exact-integer membership enumeration in general).
* :func:`parallelogram_boundary_points` — boundary lattice points of a 2-D
  parallelogram (the "+ L1 + L2" term of Example 6).
* :func:`union_of_boxes_size` — exact size of a union of translated integer
  boxes by coordinate compression; this gives the *exact* cumulative
  footprint for rectangular tiles, sharpening the paper's Theorem 4
  approximation.
* :func:`distinct_values_1d` — distinct values of a 1-D affine form over a
  box (the hard ``d = 1`` case of Section 3.8).

The hot kernels (:func:`union_of_boxes_size`,
:func:`parallelepiped_lattice_points`) are vectorized NumPy
implementations.  Their original scalar loops are differential oracles
kept with the tests (``tests/lattice_oracles.py``);
``tests/test_kernels_vectorized.py`` asserts both variants bit-match on
fuzzed inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np

from .._util import (
    as_int_matrix,
    as_int_vector,
    box_points_array,
    box_volume,
    int_adjugate,
    int_det,
    int_rank,
    iter_box_chunks,
    vector_gcd,
)
from ..obs.tracing import span as _span
from .memo import MemoTable, analytic_cache_stats

__all__ = [
    "box_image_union_size",
    "count_distinct_images",
    "enumerate_footprint",
    "parallelepiped_lattice_points",
    "parallelogram_boundary_points",
    "union_of_boxes_size",
    "distinct_values_1d",
    "analytic_cache_stats",
    "FootprintTable",
    "DEFAULT_FOOTPRINT_TABLE",
    "LatticeCountCache",
    "DEFAULT_LATTICE_CACHE",
]

#: Bounding-box point budget of the chunked vectorized general-case
#: parallelepiped count.  Peak memory is bounded by the chunk size, not
#: this cap.
PARALLELEPIPED_ENUM_CAP = 50_000_000
_MEMBERSHIP_CHUNK = 1 << 18


def enumerate_footprint(g, lo, hi, offset=None) -> np.ndarray:
    """All *distinct* data points ``i·G + a`` for ``i`` in the box ``[lo, hi]``.

    Returns an ``(N, d)`` int64 array of unique points — the footprint of
    Definition 3 for a rectangular tile, computed by brute force.
    """
    g = as_int_matrix(g, name="G")
    pts = box_points_array(lo, hi)
    imgs = pts @ g
    if offset is not None:
        imgs = imgs + as_int_vector(offset, name="offset")
    return np.unique(imgs, axis=0)


def count_distinct_images(g, lo, hi) -> int:
    """Exact footprint *size* of the box tile ``[lo, hi]`` under ``G``.

    The offset vector does not change the size (Proposition 1: footprints
    of uniformly generated references are translations of one another), so
    none is taken.  Counted as a sumset (:func:`box_image_union_size`);
    :func:`enumerate_footprint` is the enumeration oracle.
    """
    lo = as_int_vector(lo, name="lo")
    hi = as_int_vector(hi, name="hi")
    g = as_int_matrix(g, name="G")
    return box_image_union_size(g, np.zeros((1, g.shape[1]), dtype=np.int64), hi - lo + 1)


def _sumset_steps(rows: list, sides: list) -> list:
    """The ``(row, side)`` segments a box image is summed from.

    Zero rows and sides of 1 add only the zero vector, so they are skipped.
    """
    return [(row, s) for row, s in zip(rows, sides) if s > 1 and any(row)]


def box_image_union_size(g, offsets, sides) -> int:
    """Exact ``|∪_r (a_r + B)|`` for the box image ``B = {x·G : 0 ≤ x < s}``.

    ``g`` is ``(l, d′)``, ``offsets`` the ``(R, d′)`` member offsets
    ``a_r`` and ``sides`` the ``l`` iteration counts ``s_i``.  The image
    of the box is the Minkowski sum of the segments
    ``{k·g_i : 0 ≤ k < s_i}``, so it is built one row at a time, removing
    duplicates after each step; the box itself is never materialised and
    the cost grows with the size of the image, not with ``R`` times the
    box volume.  Every ``d′``-vector is encoded as one Python int by a
    linear mixed-radix code whose radix on each coordinate is more than
    twice the largest magnitude that coordinate reaches in the union, so
    the code is injective there and sums of vectors are sums of codes.
    Exact for any ``G`` (dependent, repeated or zero rows).
    """
    g = as_int_matrix(g, name="G")
    offsets = as_int_matrix(offsets, name="offsets")
    sides = as_int_vector(sides, name="sides").tolist()
    if len(sides) != g.shape[0] or offsets.shape[1] != g.shape[1]:
        raise ValueError(
            f"G is {g.shape}, offsets {offsets.shape} and sides {len(sides)}"
        )
    rows = g.tolist()
    offs = offsets.tolist()
    if not offs or min(sides, default=1) < 1:
        return 0
    steps = _sumset_steps(rows, sides)
    weights = []
    w = 1
    for k, column in enumerate(zip(*offs)):
        reach = max(map(abs, column))
        for row, s in steps:
            reach += abs(row[k]) * (s - 1)
        weights.append(w)
        w *= 2 * reach + 1
    image = {0}
    for row, s in steps:
        c = sum(map(mul, row, weights))
        image = {x + shift for shift in range(0, s * c, c) for x in image}
    shifts = {sum(map(mul, o, weights)) for o in offs}
    if len(shifts) == 1:
        return len(image)
    return len({x + shift for shift in shifts for x in image})


def _pick_parallelogram(q: np.ndarray) -> int:
    """Lattice points on or inside a 2-D parallelogram via Pick's theorem.

    For integer vertex vectors ``q1, q2`` anchored at the origin:
    ``points = Area + B/2 + 1`` where ``B = 2·(gcd(q1) + gcd(q2))``.
    Degenerate (zero-area) parallelograms fall back to segment counting.
    """
    area = abs(int_det(q))
    b1 = vector_gcd(q[0])
    b2 = vector_gcd(q[1])
    if area == 0:
        # Both edges collinear: the figure is the segment hull.  The number
        # of lattice points on a segment from 0 to v is gcd(v)+1.
        if b1 == 0 and b2 == 0:
            return 1
        # Points of {a*q1 + b*q2 : 0<=a,b<=1} all lie on the line through the
        # longer direction; count distinct integer points by enumeration of
        # the four corner-sum combinations' hull.
        direction = q[0] if b1 >= b2 else q[1]
        g = vector_gcd(direction)
        unit = direction // g if g else direction
        # Project corners onto the line (corners are 0, q1, q2, q1+q2).
        corners = [np.zeros(2, dtype=np.int64), q[0], q[1], q[0] + q[1]]
        coords = []
        for c in corners:
            # c = t * unit for rational t; with integer c and primitive unit,
            # t is integral iff c is a lattice point of the line.
            idx = 0 if unit[0] != 0 else 1
            t = Fraction(int(c[idx]), int(unit[idx]))
            coords.append(t)
        tmin, tmax = min(coords), max(coords)
        return int(math.floor(tmax) - math.ceil(tmin)) + 1
    return area + b1 + b2 + 1


def parallelepiped_lattice_points(q) -> int:
    """Number of integer points on or inside the parallelepiped ``S(Q)``.

    ``Q`` is ``(m, n)`` with rows the edge vectors (Definition 7).  Uses
    Pick's theorem for ``2×2`` inputs; the general case streams the
    bounding box in bounded-memory chunks through an exact-integer
    membership test (:class:`_ExactMembership`).
    """
    q = as_int_matrix(q, name="Q")
    m, n = q.shape
    if m == 2 and n == 2:
        return _pick_parallelogram(q)
    corners = _corner_points(q)
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    if box_volume(lo, hi) > PARALLELEPIPED_ENUM_CAP:
        raise ValueError("parallelepiped too large for exact enumeration")
    if int_rank(q) < m:
        raise ValueError("S(Q) membership requires independent rows of Q")
    member = _ExactMembership(q, lo, hi)
    total = member.count_grid(lo, hi)
    if total is not None:
        return total
    total = 0
    for pts in iter_box_chunks(lo, hi, _MEMBERSHIP_CHUNK):
        total += member.count(pts)
    return total


def _corner_points(q: np.ndarray) -> np.ndarray:
    """The 2^m corner points ``sum_{i in S} q_i`` of ``S(Q)`` (vectorized).

    Corner ``k`` is the subset-sum selected by the bits of ``k`` — one
    ``(2^m, m) @ (m, n)`` integer product instead of a Python double loop.
    """
    m = q.shape[0]
    bits = (np.arange(1 << m, dtype=np.int64)[:, None] >> np.arange(m)[None, :]) & 1
    return bits @ q


class _ExactMembership:
    """Chunked exact membership test ``x ∈ S(Q)`` for independent-row ``Q``.

    ``x ∈ S(Q)`` iff its (unique) coefficient vector ``c`` with
    ``c·Q = x`` satisfies ``0 ≤ c_i ≤ 1``.  Pick ``m`` independent
    columns of ``Q`` forming the invertible ``B = Q[:, cols]``; then
    ``c = x[cols]·B⁻¹ = x[cols]·adj(B)/det(B)``, so with
    ``s = x[cols]·adj(B)`` (all integers) membership is

    * bounds: ``0 ≤ s_i ≤ det`` (sign-flipped for negative ``det``), and
    * row-space: ``s·Q = det·x`` on *all* columns.

    No floats anywhere, so no border slop to re-verify — this replaces
    the float-lstsq + per-point ``Fraction`` recheck of the scalar
    oracle.  int64 arithmetic is used when a conservative magnitude bound
    proves it cannot overflow; otherwise the float + exact-border scalar
    mask runs per chunk (still bounded memory).
    """

    def __init__(self, q: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        from .unimodular import maximal_independent_columns

        self.q = q
        m, n = q.shape
        self.cols = list(maximal_independent_columns(q))
        b = q[:, self.cols]
        self.det = int_det(b)
        adj = int_adjugate(b)  # object dtype: exact Python ints
        # Square Q: every x is in the row space, so s·Q = det·x holds
        # identically and the bounds check alone decides membership.
        self.need_recon = m < n
        max_pt = max(
            (max(abs(int(a)), abs(int(b_))) for a, b_ in zip(lo, hi)), default=0
        )
        max_adj = max((abs(int(x)) for x in adj.ravel()), default=0)
        max_q = int(np.abs(q).max()) if q.size else 0
        bound_scaled = m * max_pt * max_adj
        bound_recon = max(m * bound_scaled * max_q, abs(self.det) * max_pt)
        self.safe = max(bound_scaled, bound_recon) < 2**62
        self.adj64 = adj.astype(np.int64) if self.safe else None

    #: Bound on the per-slab working-set rows of :meth:`count_grid`.
    _SLAB_LIMIT = 2_000_000

    def count_grid(self, lo: np.ndarray, hi: np.ndarray) -> int | None:
        """Separable whole-box count for square ``Q``; None when inapplicable.

        With ``m == n`` the coefficient map is linear in each coordinate,
        so the scaled coefficients over the grid are a sum of per-axis
        contribution vectors — the box is swept one slab (of the longest
        axis) at a time with broadcast adds, never materialising point
        coordinates.  Falls back (``None``) for ``m < n`` (row-space
        check needs the full coordinates), unsafe int64 bounds, or
        degenerate slab shapes.
        """
        n = self.q.shape[1]
        if not self.safe or self.need_recon or n == 0:
            return None
        dims = [int(h - l + 1) for l, h in zip(lo, hi)]
        slab_axis = int(np.argmax(dims))
        rest_rows = 1
        for a, d in enumerate(dims):
            if a != slab_axis:
                rest_rows *= d
        if rest_rows > self._SLAB_LIMIT:
            return None
        # contrib[a][i] = (lo_a + i) · (adj row of axis a), shape (D_a, m).
        contrib = [None] * n
        for j, a in enumerate(self.cols):
            vals = np.int64(lo[a]) + np.arange(dims[a], dtype=np.int64)
            contrib[a] = vals[:, None] * self.adj64[j][None, :]
        rest = np.zeros((1, n), dtype=np.int64)
        for a in range(n):
            if a != slab_axis:
                rest = (rest[:, None, :] + contrib[a][None, :, :]).reshape(-1, n)
        lo_b, hi_b = (0, self.det) if self.det > 0 else (self.det, 0)
        total = 0
        for v in contrib[slab_axis]:
            s = rest + v
            total += int(np.all((s >= lo_b) & (s <= hi_b), axis=1).sum())
        return total

    def count(self, pts: np.ndarray) -> int:
        if not self.safe:
            return int(_in_parallelepiped_mask(self.q, pts).sum())
        scaled = pts[:, self.cols] @ self.adj64
        det = self.det
        if det > 0:
            cand = np.all((scaled >= 0) & (scaled <= det), axis=1)
        else:
            cand = np.all((scaled <= 0) & (scaled >= det), axis=1)
        if not self.need_recon:
            return int(cand.sum())
        if not cand.any():
            return 0
        recon = scaled[cand] @ self.q
        return int(np.all(recon == det * pts[cand], axis=1).sum())


def _in_parallelepiped_mask(q: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Boolean mask of ``pts`` lying in ``S(Q)`` (rational-exact).

    Requires the rows of ``Q`` to be linearly independent; then
    ``x ∈ S(Q)`` iff ``x`` is in the row space and its (unique) coefficient
    vector lies in ``[0, 1]^m``.  Uses float solve with exact verification
    on the boundary margin — entries are small ints in practice, and the
    verification step re-checks borderline coefficients with Fractions.
    """
    from .._util import exact_solve, int_rank

    m, n = q.shape
    if int_rank(q) < m:
        raise ValueError("S(Q) membership requires independent rows of Q")
    qf = q.astype(np.float64)
    # Solve coeff @ q = pts  => q.T @ coeff.T = pts.T
    coeff, *_ = np.linalg.lstsq(qf.T, pts.T.astype(np.float64), rcond=None)
    coeff = coeff.T  # (N, m)
    recon = coeff @ qf
    on_rowspace = np.all(np.abs(recon - pts) < 1e-7, axis=1)
    eps = 1e-9
    inside = np.all((coeff >= -eps) & (coeff <= 1 + eps), axis=1) & on_rowspace
    # Re-verify points within float slop of the boundary exactly.
    border = inside & (
        np.any((np.abs(coeff) < 1e-6) | (np.abs(coeff - 1) < 1e-6), axis=1)
    )
    maybe = on_rowspace & ~inside & np.all(
        (coeff > -1e-6) & (coeff < 1 + 1e-6), axis=1
    )
    for idx in np.nonzero(border | maybe)[0]:
        sol = exact_solve(q, pts[idx])
        ok = sol is not None and all(0 <= c <= 1 for c in sol)
        # exact_solve returns a particular solution; with independent rows
        # it is the unique one.
        inside[idx] = bool(ok) and np.array_equal(
            np.array([[float(c) for c in sol]]) @ qf,
            np.asarray([pts[idx]], dtype=np.float64),
        ) if sol is not None else False
        if sol is not None and ok:
            # exact reconstruction check in rationals
            recon_exact = [sum(sol[r] * int(q[r, c]) for r in range(m)) for c in range(n)]
            inside[idx] = all(recon_exact[c] == int(pts[idx, c]) for c in range(n))
    return inside


def parallelogram_boundary_points(q) -> int:
    """Lattice points on the *boundary* of the 2-D parallelogram ``S(Q)``.

    Equals ``2·(gcd(q1) + gcd(q2))`` for a nondegenerate parallelogram —
    the correction the paper folds into Example 6's
    ``L1·L2 + L1 + L2`` count.
    """
    q = as_int_matrix(q, name="Q")
    if q.shape != (2, 2):
        raise ValueError("boundary count implemented for 2x2 Q only")
    if int_det(q) == 0:
        raise ValueError("degenerate parallelogram has no interior/boundary split")
    return 2 * (vector_gcd(q[0]) + vector_gcd(q[1]))


def _union_axes(offsets: np.ndarray, extents: np.ndarray):
    """Coordinate compression: per-axis cell starts and widths, as lists
    of Python ints.

    The cuts are sorted from a set of Python ints: the first
    ``np.unique`` call in a process imports ``numpy.ma``.
    """
    starts = []
    widths = []
    for column, extent in zip(offsets.T.tolist(), extents.tolist()):
        cuts = sorted({*column, *(o + extent + 1 for o in column)})
        starts.append(cuts[:-1])
        widths.append([b - a for a, b in zip(cuts, cuts[1:])])
    return starts, widths


def union_of_boxes_size(offsets, extents) -> int:
    """Exact number of integer points in ``∪_r [offset_r, offset_r + extents]``.

    All boxes share the same (inclusive) ``extents``; ``offsets`` is an
    ``(R, l)`` integer array.  Computed by coordinate compression: the
    union is decomposed into the grid cells induced by all box edges, a
    boolean coverage mask over the cell grid is built as the OR over boxes
    of per-axis interval-mask outer products, and the covered cells'
    exact volumes are summed (in ``int64`` when the cells' bounding box
    fits it, in Python ints otherwise, so nothing overflows).

    This yields the *exact* cumulative footprint of a rectangular tile for
    a uniformly intersecting class once offsets are expressed in lattice
    coordinates ``u_r = a_r · G⁻¹`` (cf. Theorem 4, which approximates the
    same quantity from the spread vector alone).
    """
    offsets = as_int_matrix(np.atleast_2d(offsets), name="offsets")
    extents = as_int_vector(extents, name="extents")
    r, l = offsets.shape
    if extents.shape[0] != l:
        raise ValueError("extents length must match offset dimension")
    if np.any(extents < 0):
        return 0
    if r == 1:
        return math.prod(e + 1 for e in extents.tolist())
    starts, widths = _union_axes(offsets, extents)
    # Per-axis interval masks: cover[k][i, j] ⇔ box i covers cell j on axis k.
    cover = []
    for k, st in enumerate(starts):
        st = np.array(st, dtype=np.int64)
        column = offsets[:, k, None]
        cover.append((column <= st) & (st <= column + extents[k]))
    covered = np.zeros(tuple(len(s) for s in starts), dtype=bool)
    for i in range(r):
        m = cover[0][i]
        for k in range(1, l):
            m = m[..., None] & cover[k][i]
        covered |= m
    dtype = np.int64 if math.prod(map(sum, widths)) < 2**63 else object
    vols = np.array(widths[0], dtype=dtype)
    for w in widths[1:]:
        vols = np.multiply.outer(vols, np.array(w, dtype=dtype))
    return int(vols[covered].sum())


def distinct_values_1d(coeffs, lo, hi) -> int:
    """Distinct values of ``Σ c_k · i_k`` over the integer box ``[lo, hi]``.

    This is the footprint size for a one-dimensional array reference
    (``d = 1``) — the case Section 3.8 flags as having no easy closed form
    for ``l = 3`` ("one can compute the exact size of the footprint
    efficiently using a table lookup when the elements of G are small").
    We compute it exactly:

    * ``l = 1``: closed form ``hi - lo + 1`` (scaled values are distinct).
    * ``l = 2`` and the box is *large* relative to the coefficients: closed
      form based on the classical structure of ``{a·i + b·j}``.
    * otherwise: the sumset count :func:`box_image_union_size` (the
      "table lookup" regime), whose cost grows with the number of
      distinct values, not with the box volume.
    """
    c = as_int_vector(coeffs, name="coeffs")
    lo = as_int_vector(lo, name="lo")
    hi = as_int_vector(hi, name="hi")
    if np.any(hi < lo):
        return 0
    nz = c != 0
    c, lo, hi = c[nz], lo[nz], hi[nz]
    if c.size == 0:
        return 1
    if c.size == 1:
        return int(hi[0] - lo[0] + 1)
    if c.size == 2:
        a, b = abs(int(c[0])), abs(int(c[1]))
        n1 = int(hi[0] - lo[0])  # lambda_1
        n2 = int(hi[1] - lo[1])
        g = math.gcd(a, b)
        ap, bp = a // g, b // g
        # Values (up to sign/shift) are g*(ap*i + bp*j), 0<=i<=n1, 0<=j<=n2.
        # When the box is large enough (n1 >= bp-1 and n2 >= ap-1) the image
        # is the interval [0, ap*n1 + bp*n2] minus the classical Frobenius
        # non-representable sets at both ends, (ap-1)(bp-1)/2 values each
        # (Sylvester's count for coprime ap, bp):
        if n1 >= bp - 1 and n2 >= ap - 1:
            return ap * n1 + bp * n2 + 1 - (ap - 1) * (bp - 1)
    # Small l = 2 boxes and l >= 3: the sumset of the per-variable ranges.
    return box_image_union_size(c[:, None], [[0]], hi - lo + 1)


class FootprintTable(MemoTable):
    """Section 3.8's "table lookup" for exact 1-D footprints.

    "For the case when l = 3 and d = 1, it seems difficult to express the
    size of the footprint by a closed form expression.  However, one can
    compute the exact size of the footprint efficiently using a table
    lookup when the elements of G are small, which is mostly the case in
    practice."

    The table memoises :func:`distinct_values_1d` under a canonical key
    that exploits the count's invariances: the footprint size of
    ``Σ c_k·i_k`` over a box depends only on the multiset of
    ``(|c_k|, extent_k)`` pairs with the gcd of the coefficients divided
    out (scaling by the gcd relabels values bijectively; sign flips and
    reorderings are coordinate changes of the box).  Storage, locking and
    counters are :class:`~repro.lattice.memo.MemoTable`'s.
    """

    @staticmethod
    def canonical_key(coeffs, extents) -> tuple:
        # (coeff, extent=0) axes contribute a single value, zero
        # coefficients none: drop both.
        pairs = [
            (abs(int(c)), int(e))
            for c, e in zip(coeffs, extents)
            if c != 0 and e > 0
        ]
        if not pairs:
            return ()
        g = 0
        for c, _ in pairs:
            g = math.gcd(g, c)
        # The gcd itself is NOT part of the key: scaling all coefficients
        # by g relabels the values bijectively, leaving the count fixed.
        return tuple(sorted((c // g, e) for c, e in pairs))

    def lookup(self, coeffs, extents) -> int:
        """Exact distinct-value count, memoised."""
        # Span at the method layer (hit and miss alike) so trace
        # structure does not depend on cache warmth.
        with _span("lattice.footprint_lookup", aggregate=True):
            key = self.canonical_key(coeffs, extents)

            def compute() -> int:
                if not key:
                    return 1
                cs = [c for c, _ in key]
                es = [e for _, e in key]
                return distinct_values_1d(cs, [0] * len(cs), es)

            return self.get_or_compute(key, compute)


#: Shared default table used by :func:`repro.core.footprint.footprint_size`.
DEFAULT_FOOTPRINT_TABLE = FootprintTable()


class LatticeCountCache(MemoTable):
    """Memoised exact lattice counts for the optimiser's hot loop.

    :func:`count_distinct_images` (a sumset count) and
    :func:`parallelepiped_lattice_points` (membership enumeration) are
    exact but not free, and the rectangular-tile grid search evaluates
    them for the same ``(G, extents)`` over and over (many grids share
    tile sides, and distinct references often share a reduced ``G``).  This cache
    keys each count on a *canonical form* that quotients out the count's
    invariances, so geometrically equivalent queries hit:

    * zero rows and zero-extent rows contribute nothing to the image —
      dropped;
    * negating a row reflects (and integer-translates) the image without
      changing its size — rows are sign-normalised on their first nonzero
      entry;
    * reordering rows (with their extents) relabels loop dimensions —
      ``(row, extent)`` pairs are sorted.

    The gcd of a row is *not* divided out: unlike the 1-D
    :class:`FootprintTable`, scaling one row of a multi-column ``G``
    changes the image lattice geometry, so it is not an invariance here.

    On a miss the count is recomputed *from the canonical form itself*,
    so a key collision can only map to the correct value.  Storage,
    locking and counters are :class:`~repro.lattice.memo.MemoTable`'s.
    """

    @staticmethod
    def canonical_key(g, extents=None) -> tuple:
        """Canonical ``(row, extent)`` pairs (extent 1 when none given)."""
        g = as_int_matrix(np.atleast_2d(g), name="G")
        if extents is None:
            ext_list = [1] * g.shape[0]
        else:
            ext = as_int_vector(extents, name="extents")
            if ext.shape[0] != g.shape[0]:
                raise ValueError("extents length must match row count of G")
            if np.any(ext < 0):
                return ("empty",)
            ext_list = ext.tolist()
        pairs = []
        for row, e in zip(g.tolist(), ext_list):
            if e == 0 or not any(row):
                continue
            first = next(v for v in row if v)
            if first < 0:
                row = [-v for v in row]
            pairs.append((tuple(row), e))
        pairs.sort()
        return tuple(pairs)

    # -- memoised oracles ------------------------------------------------
    def count_distinct_images(self, g, extents) -> int:
        """Memoised :func:`count_distinct_images` over ``[0, extents]``."""
        # Aggregated span: fires on hit *and* miss so the trace structure
        # (and its ``calls`` count) is independent of cache warmth — the
        # serve/CLI differential check compares span trees byte-for-byte.
        with _span("lattice.count_images", aggregate=True):
            pairs = self.canonical_key(g, extents)

            def compute() -> int:
                if pairs == ("empty",):
                    return 0
                if not pairs:
                    return 1
                rows = np.array([list(r) for r, _ in pairs], dtype=np.int64)
                ext = np.array([e for _, e in pairs], dtype=np.int64)
                return count_distinct_images(rows, np.zeros_like(ext), ext)

            return super().get_or_compute(("img", pairs), compute)

    def parallelepiped_lattice_points(self, q) -> int:
        """Memoised :func:`parallelepiped_lattice_points` of ``S(Q)``."""
        with _span("lattice.ppd_points", aggregate=True):
            rows = self.canonical_key(q)

            def compute() -> int:
                if not rows:
                    return 1
                return parallelepiped_lattice_points(
                    np.array([list(r) for r, _ in rows], dtype=np.int64)
                )

            return super().get_or_compute(("ppd", rows), compute)

    def get_or_compute(self, key, compute):
        """Generic memoisation under a caller-supplied hashable key.

        ``compute`` must be deterministic for the key and must not return
        ``None`` (absence marker).  Used by the optimiser for exact
        cumulative-footprint evaluations whose invariances (class ``G``,
        translated offsets, tile sides) the caller canonicalises itself.
        """
        with _span("lattice.memo", aggregate=True):
            return super().get_or_compute(key, compute)


#: Process-wide cache shared by the footprint call sites
#: (:mod:`repro.core.footprint`); optimiser calls create private instances
#: by default so their enumeration counts are reproducible per call.
DEFAULT_LATTICE_CACHE = LatticeCountCache()
