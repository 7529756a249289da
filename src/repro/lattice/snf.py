"""Smith normal form and integer linear system solving.

The Smith normal form ``D = U·A·V`` (``U``, ``V`` unimodular, ``D``
diagonal with ``d_1 | d_2 | ...``) gives:

* the lattice index ``[Z^n : rowlattice(A)] = Π d_i`` when ``A`` has full
  column rank — the density of a reference's image lattice;
* an exact solver for ``x·A = b`` over the *integers*, which is precisely
  the intersection test of Definition 4 ("two references intersect if
  there are two integer vectors i1, i2 with g1(i1) = g2(i2)").
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .._util import as_int_matrix, as_int_vector

__all__ = [
    "SNFResult",
    "smith_normal_form",
    "solve_integer",
    "lattice_index",
    "integer_kernel_basis",
]


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form ``d = u @ a @ v`` with unimodular ``u``, ``v``.

    ``d`` is (rectangular-)diagonal with nonnegative invariant factors
    ``d[0,0] | d[1,1] | ...``; trailing factors may be zero when the input
    is rank-deficient.  The three arrays are read-only, so one result can
    serve every solve against the same matrix; the Python-int rows the
    solvers work on are taken from them once, here.
    """

    d: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        d = self.d.tolist()
        k = min(self.d.shape)
        object.__setattr__(self, "invariant_factors", tuple(d[i][i] for i in range(k)))
        object.__setattr__(self, "_u_rows", self.u.tolist())
        object.__setattr__(self, "_v_cols", tuple(zip(*self.v.tolist())))

    @property
    def rank(self) -> int:
        return sum(1 for f in self.invariant_factors if f != 0)


def _frozen(rows: list[list[int]]) -> np.ndarray:
    a = np.array(rows, dtype=np.int64)
    a.setflags(write=False)
    return a


def smith_normal_form(a) -> SNFResult:
    """Compute the Smith normal form of an integer matrix.

    Classic algorithm: repeatedly move the minimum-magnitude nonzero entry
    to the pivot position, eliminate its row and column by Euclidean steps,
    and fix divisibility violations by row-addition.  Exact (python ints).

    Examples
    --------
    >>> smith_normal_form([[2, 0], [0, 3]]).invariant_factors
    (1, 6)
    """
    a = as_int_matrix(a, name="SNF argument")
    m, n = a.shape
    d = a.tolist()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    k = 0
    size = min(m, n)
    while k < size:
        # The first minimal-magnitude nonzero entry of the trailing block,
        # in row-major order; nothing undercuts a unit.
        best = 0
        for i in range(k, m):
            row = d[i]
            for j in range(k, n):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, bi, bj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if bi != k:
            d[k], d[bi] = d[bi], d[k]
            u[k], u[bi] = u[bi], u[k]
        if bj != k:
            for rows in (d, v):
                for r in rows:
                    r[k], r[bj] = r[bj], r[k]
        # Eliminate column k below and row k to the right of the pivot:
        # row_i −= q·row_k (with U), col_j −= q·col_k (with V).
        dk, uk = d[k], u[k]
        p = dk[k]
        dirty = False
        for i in range(k + 1, m):
            if d[i][k]:
                q = d[i][k] // p
                d[i] = [x - q * y for x, y in zip(d[i], dk)]
                u[i] = [x - q * y for x, y in zip(u[i], uk)]
                if d[i][k]:
                    dirty = True
        for j in range(k + 1, n):
            if dk[j]:
                q = dk[j] // p
                for rows in (d, v):
                    for r in rows:
                        r[j] -= q * r[k]
                if dk[j]:
                    dirty = True
        if dirty:
            continue  # pivot shrank; redo with new minimum
        if p < 0:
            d[k] = [-x for x in dk]
            u[k] = [-x for x in uk]
            p = -p
        # Enforce divisibility d[k][k] | d[i][j] on the trailing block by
        # adding the first offending row to row k.
        if p != 1:
            violation = next(
                (i for i in range(k + 1, m) if any(x % p for x in d[i][k + 1 :])), None
            )
            if violation is not None:
                d[k] = [x + y for x, y in zip(d[k], d[violation])]
                u[k] = [x + y for x, y in zip(u[k], u[violation])]
                continue
        k += 1

    return SNFResult(d=_frozen(d), u=_frozen(u), v=_frozen(v))


def solve_integer(a, b, snf: SNFResult | None = None) -> np.ndarray | None:
    """Find one integer solution ``x`` of ``x·A = b``, or ``None``.

    ``A`` is ``(m, n)``, ``b`` length ``n``, the returned ``x`` length
    ``m``.  Uses the Smith decomposition: with ``D = U·A·V``, ``x·A = b``
    iff ``y·D = b·V`` for ``y = x·U⁻¹``, which decouples per coordinate.
    ``snf`` is ``smith_normal_form(A)`` when the caller already holds it
    (a class solving many right-hand sides against one ``G``).
    """
    if snf is None:
        snf = smith_normal_form(a)
    m, n = len(snf._u_rows), len(snf._v_cols)
    bl = as_int_vector(b, name="b").tolist()
    if len(bl) != n:
        raise ValueError(f"shape mismatch: a is {(m, n)}, b has length {len(bl)}")
    x = [0] * m
    factors = snf.invariant_factors
    for i, col in enumerate(snf._v_cols):
        c = sum(map(mul, bl, col))
        di = factors[i] if i < len(factors) else 0
        if di == 0:
            if c != 0:
                return None
        elif c % di != 0:
            return None
        elif c:
            # y_i = c / d_i pulls back through row i of U.
            yi = c // di
            x = [xj + yi * uj for xj, uj in zip(x, snf._u_rows[i])]
    return np.array(x, dtype=np.int64)


def lattice_index(a) -> int:
    """Index ``[Z^n : rowlattice(A)]`` for full-column-rank ``A``.

    This is the product of the invariant factors; it equals ``|det A|`` for
    square ``A``.  Returns 0 when the rows do not span rank ``n`` (the
    sublattice then has infinite index).
    """
    a = as_int_matrix(a, name="lattice_index argument")
    snf = smith_normal_form(a)
    n = a.shape[1]
    factors = snf.invariant_factors
    if snf.rank < n:
        return 0
    prod = 1
    for f in factors[:n]:
        prod *= int(f)
    return prod


def integer_kernel_basis(a, snf: SNFResult | None = None) -> np.ndarray:
    """Basis of the left integer kernel ``{x ∈ Z^m : x·A = 0}``.

    With ``D = U·A·V``, ``x·A = 0`` iff ``y·D = 0`` for ``y = x·U⁻¹``,
    which forces ``y_i = 0`` exactly where the invariant factor ``d_i`` is
    nonzero; the remaining unit vectors pull back to rows of ``U``.

    Returns a ``(k, m)`` int64 array (``k = m − rank``); the rows generate
    the kernel lattice (and are a basis, since ``U`` is unimodular).

    In loop-partitioning terms: kernel vectors are iteration-space
    directions along which a reference re-touches the *same* array element
    — the self-reuse directions a communication-free partition must not
    cut (cf. Section 3.6's coherence discussion and the R&S comparison).

    ``snf`` is ``smith_normal_form(A)`` when the caller already holds it
    (a class whose solves share one decomposition).
    """
    if snf is None:
        snf = smith_normal_form(as_int_matrix(a, name="kernel argument"))
    m = snf.d.shape[0]
    factors = snf.invariant_factors
    rows = [i for i in range(m) if i >= len(factors) or factors[i] == 0]
    if not rows:
        return np.empty((0, m), dtype=np.int64)
    return snf.u[rows, :].copy()
