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
    serve every solve against the same matrix.
    """

    d: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(self.d.shape)
        return tuple(int(self.d[i, i]) for i in range(k))

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

    def row_op(i: int, j: int, k: int) -> None:  # row_i += k * row_j
        d[i] = [x + k * y for x, y in zip(d[i], d[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def col_op(i: int, j: int, k: int) -> None:  # col_i += k * col_j
        for r in range(m):
            d[r][i] += k * d[r][j]
        for r in range(n):
            v[r][i] += k * v[r][j]

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def negate_row(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    k = 0
    size = min(m, n)
    while k < size:
        # Find minimal-magnitude nonzero entry in the trailing submatrix.
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != k:
            swap_rows(k, bi)
        if bj != k:
            swap_cols(k, bj)
        # Eliminate column k below and row k to the right of the pivot.
        dirty = False
        for i in range(k + 1, m):
            if d[i][k] != 0:
                q = d[i][k] // d[k][k]
                row_op(i, k, -q)
                if d[i][k] != 0:
                    dirty = True
        for j in range(k + 1, n):
            if d[k][j] != 0:
                q = d[k][j] // d[k][k]
                col_op(j, k, -q)
                if d[k][j] != 0:
                    dirty = True
        if dirty:
            continue  # pivot shrank; redo with new minimum
        if d[k][k] < 0:
            negate_row(k)
        # Enforce divisibility d[k][k] | d[i][j] for the trailing block.
        violation = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if d[i][j] % d[k][k] != 0:
                    violation = i
                    break
            if violation is not None:
                break
        if violation is not None:
            row_op(k, violation, 1)
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
    a = as_int_matrix(a, name="a")
    b = as_int_vector(b, name="b")
    m, n = a.shape
    if b.shape[0] != n:
        raise ValueError(f"shape mismatch: a is {a.shape}, b has length {b.shape[0]}")
    if snf is None:
        snf = smith_normal_form(a)
    bl = b.tolist()
    v = snf.v.tolist()
    c = [sum(bk * vk[i] for bk, vk in zip(bl, v)) for i in range(n)]
    d = snf.d
    y = [0] * m
    k = min(m, n)
    for i in range(n):
        di = int(d[i, i]) if i < k else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            if i < m:
                y[i] = c[i] // di
    u = snf.u.tolist()
    return np.array(
        [sum(yi * ui[j] for yi, ui in zip(y, u)) for j in range(m)], dtype=np.int64
    )


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
    a = as_int_matrix(a, name="kernel argument")
    m, n = a.shape
    if snf is None:
        snf = smith_normal_form(a)
    k = min(m, n)
    rows = [i for i in range(m) if i >= k or snf.d[i, i] == 0]
    if not rows:
        return np.empty((0, m), dtype=np.int64)
    return snf.u[rows, :].copy()
