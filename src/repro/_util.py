"""Integer-matrix helpers shared across the ``repro`` packages.

The paper works entirely with integer vectors and matrices (Section 2.1:
"All our vectors and matrices have integer entries unless stated
otherwise").  numpy's float linear algebra is unsafe for the exact lattice
computations in Theorems 1-5, so this module centralises exact integer
routines: validation/coercion, exact determinants by fraction-free Bareiss
elimination, exact rank, gcds, and exact rational solves.

Validation happens once: :func:`as_int_matrix` hands a read-only
C-contiguous ``int64`` array (an :class:`~repro.core.affine.AffineRef`
freezes its ``G`` and offset when it is built) back unchanged, and
copies anything else.  Elimination runs on Python ints from
``ndarray.tolist()``, with every derived row divided by the gcd of its
entries, so nothing overflows and no :class:`fractions.Fraction` is
formed until a rational solve returns its unknowns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .exceptions import NonIntegerMatrixError, SingularMatrixError

__all__ = [
    "as_int_matrix",
    "as_int_vector",
    "frozen_int_matrix",
    "int_det",
    "int_rank",
    "eliminate",
    "det_rows",
    "gcd_many",
    "vector_gcd",
    "is_integer_array",
    "exact_solve",
    "exact_inverse",
    "minors_gcd",
    "iter_box",
    "box_volume",
]

_INT_KINDS = ("i", "u")


def is_integer_array(a: np.ndarray, *, tol: float = 0.0) -> bool:
    """Return True if every entry of ``a`` is (within ``tol``) an integer."""
    a = np.asarray(a)
    if a.dtype.kind in _INT_KINDS:
        return True
    if a.dtype.kind != "f":
        return False
    return bool(np.all(np.abs(a - np.round(a)) <= tol))


def as_int_matrix(m, *, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """Coerce ``m`` to a C-contiguous ``int64`` array of dimension ``ndim``.

    A read-only, C-contiguous ``int64`` array of the right dimension is
    returned as is: it was validated when it was frozen.  Anything else
    is validated and copied, so a caller may mutate the result without
    touching its input.

    Raises
    ------
    NonIntegerMatrixError
        If any entry is not an integer (floats are accepted only when they
        are exactly integral).
    """
    if type(m) is np.ndarray and m.dtype == np.int64 and m.ndim == ndim:
        if not m.flags.writeable and m.flags.c_contiguous:
            return m
        return np.array(m, order="C")
    a = np.asarray(m)
    if a.ndim != ndim:
        raise NonIntegerMatrixError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if a.dtype.kind in _INT_KINDS:
        return np.array(a, dtype=np.int64, order="C")
    if a.dtype.kind == "O":
        # Could be python ints (possibly big); validate entrywise.
        flat = a.ravel()
        if not all(isinstance(x, (int, np.integer)) for x in flat):
            raise NonIntegerMatrixError(f"{name} has non-integer entries")
        return np.ascontiguousarray(a.astype(np.int64))
    if not is_integer_array(a):
        raise NonIntegerMatrixError(f"{name} has non-integer entries: {a!r}")
    return np.ascontiguousarray(np.round(a).astype(np.int64))


def frozen_int_matrix(m, *, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """:func:`as_int_matrix`, made read-only: validated once, shareable."""
    a = as_int_matrix(m, name=name, ndim=ndim)
    a.setflags(write=False)
    return a


def as_int_vector(v, *, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a 1-D ``int64`` array (see :func:`as_int_matrix`)."""
    return as_int_matrix(v, name=name, ndim=1)


def int_det(m) -> int:
    """Exact determinant of a square integer matrix.

    Uses fraction-free Bareiss elimination with Python ints, so there is no
    overflow for any input size (unlike ``numpy.linalg.det``).
    """
    a = as_int_matrix(m, name="det argument")
    n, ncols = a.shape
    if n != ncols:
        raise SingularMatrixError(f"determinant requires a square matrix, got {a.shape}")
    return det_rows(a.tolist())


def det_rows(rows: list[list[int]]) -> int:
    """Bareiss determinant of a square list-of-lists of ints (consumed)."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            # pivot search
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def eliminate(rows: list[list[int]], ncols: int, *, full: bool = False) -> list[tuple[int, int]]:
    """Integer row elimination of ``rows`` (a list-of-lists, changed in place).

    Brings the first ``ncols`` columns to row echelon form — to reduced
    form, with zeros above each pivot too, when ``full`` — and returns
    the ``(row, col)`` pivots.  Each derived row is ``p·row − f·pivot
    row`` divided by the gcd of its entries, so the entries stay small
    Python ints and are never rounded.  Columns past ``ncols`` (a
    right-hand side) ride along.  The pivot columns are the greedy
    left-to-right maximal independent set of the first ``ncols``
    columns; their count is the rank.
    """
    nrows = len(rows)
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pr = next((r for r in range(row, nrows) if rows[r][col]), None)
        if pr is None:
            continue
        rows[row], rows[pr] = rows[pr], rows[row]
        prow = rows[row]
        p = prow[col]
        for r in range(0 if full else row + 1, nrows):
            f = rows[r][col]
            if f and r != row:
                new = [p * x - f * y for x, y in zip(rows[r], prow)]
                g = math.gcd(*new)
                rows[r] = [x // g for x in new] if g > 1 else new
        pivots.append((row, col))
        row += 1
    return pivots


def int_rank(m) -> int:
    """Exact rank of an integer matrix (integer row elimination)."""
    a = as_int_matrix(m, name="rank argument")
    return len(eliminate(a.tolist(), a.shape[1]))


def gcd_many(values: Iterable[int]) -> int:
    """gcd of an iterable of ints; gcd of the empty set is 0."""
    g = 0
    for v in values:
        g = math.gcd(g, int(v))
        if g == 1:
            return 1
    return g


def vector_gcd(v) -> int:
    """gcd of the components of an integer vector (0 for the zero vector)."""
    return gcd_many(int(x) for x in np.asarray(v).ravel())


def exact_solve(a, b) -> list[Fraction] | None:
    """Solve ``x · a = b`` exactly over the rationals for row-vector ``x``.

    ``a`` is an ``(m, n)`` integer matrix, ``b`` a length-``n`` integer
    vector.  Returns one rational solution as a list of ``Fraction`` of
    length ``m``, or ``None`` when the system is inconsistent.  When the
    system is underdetermined an arbitrary particular solution (free
    variables = 0) is returned.
    """
    a = as_int_matrix(a, name="a")
    b = as_int_vector(b, name="b")
    m, n = a.shape
    if b.shape[0] != n:
        raise ValueError(f"shape mismatch: a is {a.shape}, b has length {b.shape[0]}")
    # x·a = b  <=>  aᵀ·xᵀ = bᵀ: reduce [aᵀ | b] on ints, divide at the end.
    aug = [row + [rhs] for row, rhs in zip(a.T.tolist(), b.tolist())]
    pivots = eliminate(aug, m, full=True)
    # Inconsistency: a zero row with nonzero rhs.
    for r in range(len(pivots), n):
        if aug[r][m] != 0 and not any(aug[r][:m]):
            return None
    x = [Fraction(0)] * m
    for r, c in pivots:
        x[c] = Fraction(aug[r][m], aug[r][c])
    return x


def exact_inverse(m) -> list[list[Fraction]]:
    """Exact rational inverse of a square integer matrix.

    Raises :class:`SingularMatrixError` when singular.
    """
    a = as_int_matrix(m, name="inverse argument")
    n, nc = a.shape
    if n != nc:
        raise SingularMatrixError(f"inverse requires a square matrix, got {a.shape}")
    aug = [[Fraction(int(a[r][c])) for c in range(n)] + [Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for col in range(n):
        pr = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pr is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pr] = aug[pr], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [aug[r][c] - f * aug[col][c] for c in range(2 * n)]
    return [row[n:] for row in aug]


def minors_gcd(m, order: int) -> int:
    """gcd of all ``order × order`` minors of an integer matrix.

    Used in Lemma 2 (the mapping is onto iff the columns are independent and
    the gcd of the maximal-order subdeterminants is 1) and to decide whether
    the lattice generated by the rows of ``G`` is all of Z^d.
    """
    from itertools import combinations

    a = as_int_matrix(m, name="minors argument")
    nr, nc = a.shape
    if order <= 0 or order > min(nr, nc):
        raise ValueError(f"minor order {order} out of range for shape {a.shape}")
    full = a.tolist()
    g = 0
    for rows in combinations(full, order):
        for cols in combinations(range(nc), order):
            g = math.gcd(g, abs(det_rows([[row[c] for c in cols] for row in rows])))
            if g == 1:
                return 1
    return g


def iter_box(lo, hi):
    """Yield integer points of the axis-aligned box ``lo <= x <= hi``.

    ``lo``/``hi`` are inclusive integer bounds per dimension.  Points are
    yielded as tuples in lexicographic order.  Prefer
    :func:`box_points_array` for bulk numpy work.
    """
    lo = as_int_vector(lo, name="lo")
    hi = as_int_vector(hi, name="hi")
    if lo.shape != hi.shape:
        raise ValueError("lo and hi must have the same length")
    import itertools

    ranges = [range(int(a), int(b) + 1) for a, b in zip(lo, hi)]
    return itertools.product(*ranges)


def box_volume(lo, hi) -> int:
    """Number of integer points of the box ``lo <= x <= hi`` (0 if empty)."""
    lo = as_int_vector(lo, name="lo")
    hi = as_int_vector(hi, name="hi")
    if lo.shape != hi.shape:
        raise ValueError("lo and hi must have the same length")
    n = 1
    for a, b in zip(lo.tolist(), hi.tolist()):
        if b < a:
            return 0
        n *= b - a + 1
    return n


def box_points_array(lo, hi) -> np.ndarray:
    """All integer points of the box as an ``(N, l)`` int64 array.

    Vectorised via meshgrid; raises ``MemoryError``-avoiding ValueError when
    the box holds more than 50 million points.
    """
    lo = as_int_vector(lo, name="lo")
    hi = as_int_vector(hi, name="hi")
    n = box_volume(lo, hi)
    if n == 0:
        return np.empty((0, lo.shape[0]), dtype=np.int64)
    if n > 50_000_000:
        raise ValueError(f"box with {n} points is too large to enumerate")
    axes = [np.arange(int(a), int(b) + 1, dtype=np.int64) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def iter_box_chunks(lo, hi, chunk_size: int):
    """Yield the points of the box ``lo <= x <= hi`` in ``(N, l)`` chunks.

    Streams the same lexicographic point order as :func:`box_points_array`
    without ever materialising more than ``chunk_size`` points — the
    bounded-memory substrate for the chunked vectorized membership tests
    in :mod:`repro.lattice.points`.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    lo = as_int_vector(lo, name="lo")
    hi = as_int_vector(hi, name="hi")
    n = box_volume(lo, hi)
    if n == 0:
        return
    dims = tuple(int(d) for d in (hi - lo + 1))
    for start in range(0, n, chunk_size):
        flat = np.arange(start, min(start + chunk_size, n), dtype=np.int64)
        coords = np.stack(np.unravel_index(flat, dims), axis=1)
        yield coords + lo


def int_adjugate(m) -> np.ndarray:
    """Exact adjugate of a square integer matrix (``adj(M)·M = det(M)·I``).

    Cofactor expansion with exact :func:`int_det` minors; entries are
    returned as an object-dtype array of Python ints so they never
    overflow.  Intended for small matrices (loop depths), where the
    ``O(n²)`` minor determinants are trivially cheap.
    """
    a = as_int_matrix(m, name="adjugate argument")
    n, nc = a.shape
    if n != nc:
        raise SingularMatrixError(f"adjugate requires a square matrix, got {a.shape}")
    adj = np.empty((n, n), dtype=object)
    for i in range(n):
        rows = [r for r in range(n) if r != i]
        for j in range(n):
            cols = [c for c in range(n) if c != j]
            minor = a[np.ix_(rows, cols)] if n > 1 else np.ones((1, 1), dtype=np.int64)
            det = int_det(minor) if n > 1 else 1
            adj[j, i] = (-1) ** (i + j) * det
    return adj


__all__ += ["box_points_array", "iter_box_chunks", "int_adjugate"]


# ----------------------------------------------------------------------
# Large point arrays: 1-D sort keys


def row_codes(rows: np.ndarray, scale: int = 1) -> tuple[np.ndarray, int]:
    """Integer codes of the rows of an ``(N, d)`` integer array that sort
    like the rows themselves (lexicographically).

    Returns ``(codes, n)`` with equal rows sharing a code and
    ``0 <= codes < n``, so ``code * scale + tag`` keys a (row, tag) pair
    for ``0 <= tag < scale``.  The code is the row's row-major position
    inside the rows' bounding box (``n`` the box size) — one 1-D sort key
    instead of the void-dtype sort of ``np.unique(axis=0)`` — whenever
    ``box * scale`` fits in 62 bits, and otherwise the row's rank among
    the distinct rows (``n`` at most ``N``).
    """
    n, d = rows.shape
    if n == 0:
        return np.empty(0, dtype=np.int64), 1
    # Per-column reductions: ``min(axis=0)`` on a tall array is far slower.
    cols = [rows[:, k] for k in range(d)]
    lo = [int(c.min()) for c in cols]
    spans = [int(c.max()) - low + 1 for c, low in zip(cols, lo)]
    box = math.prod(spans)
    if box * scale < 2**62:
        codes = np.zeros(n, dtype=np.int64)
        for c, low, span in zip(cols, lo, spans):
            codes *= span
            codes += c
            codes -= low
        return codes, box
    _, inv = np.unique(rows, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    return inv, int(inv.max()) + 1


def sort_by_key(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` in ``(key, position)`` order, and the keys
    in that order — a stable argsort.

    One value sort of the distinct integers ``key * n + position``,
    several times faster than NumPy's stable argsort of ``int64``.
    ``keys * len(keys)`` must fit in ``int64``.
    """
    n = keys.shape[0]
    combined = keys * n + np.arange(n, dtype=np.int64)
    combined.sort()
    return combined % n, combined // n


def run_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal sorted keys."""
    head = np.empty(sorted_keys.shape[0], dtype=bool)
    head[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return head


__all__ += ["row_codes", "sort_by_key", "run_heads"]
