"""Affine array references ``A[i·G + a]`` (Section 2.1).

The paper writes an array reference in a loop nest of depth ``l`` over a
``d``-dimensional array as the pair ``(G, a)`` with ``G`` an ``l×d``
integer matrix and ``a`` an integer offset vector of length ``d``
(Equation 1)::

    g(i) = i·G + a          # i a row vector of loop indices

Example 1: ``A(i3+2, 5, i2-1, 4)`` in a triply nested loop is ::

    G = [[0,0,0,0],
         [0,0,1,0],
         [1,0,0,0]],   a = (2, 5, -1, 4)

Columns of ``G`` that are entirely zero correspond to subscripts that do
not vary with the loop — the paper drops them and treats the array as
lower-dimensional (:meth:`AffineRef.drop_zero_columns`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .._util import as_int_vector, frozen_int_matrix
from ..lattice.unimodular import (
    is_one_to_one,
    is_onto,
    is_unimodular,
    maximal_independent_columns,
    select_unimodular_columns,
)

__all__ = ["AffineRef", "AccessKind", "ArrayAccess"]


class AccessKind(enum.Enum):
    """How a reference touches memory.

    ``SYNC`` models the fine-grain synchronizing accumulates of Appendix A
    (the ``l$`` references): "Such synchronizing reads or writes are both
    treated as writes by the coherence system."
    """

    READ = "read"
    WRITE = "write"
    SYNC = "sync"

    @property
    def is_write_like(self) -> bool:
        return self is not AccessKind.READ


@dataclass(frozen=True)
class AffineRef:
    """An affine array reference ``array[i·G + a]``.

    Parameters
    ----------
    array:
        Array name; references to different arrays never alias (the paper
        assumes aliasing has been resolved).
    g:
        ``(l, d)`` integer matrix mapping iteration row-vectors to data
        row-vectors.
    offset:
        Length-``d`` integer offset vector ``a``.

    ``g`` and ``offset`` are validated once, here, and stored read-only,
    so the integer routines take them as they are.
    """

    array: str
    g: np.ndarray
    offset: np.ndarray

    def __init__(self, array: str, g, offset):
        g = frozen_int_matrix(g, name="G")
        offset = frozen_int_matrix(offset, name="offset", ndim=1)
        if offset.shape[0] != g.shape[1]:
            raise ValueError(
                f"offset length {offset.shape[0]} != array dimension {g.shape[1]}"
            )
        object.__setattr__(self, "array", str(array))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "offset", offset)

    # -- basic shape ----------------------------------------------------
    @property
    def loop_depth(self) -> int:
        """``l``, the loop nesting depth the reference lives in."""
        return int(self.g.shape[0])

    @property
    def array_dim(self) -> int:
        """``d``, the dimension of the referenced array."""
        return int(self.g.shape[1])

    def __call__(self, iteration) -> np.ndarray:
        """Data point touched by ``iteration``: ``i·G + a``."""
        i = as_int_vector(iteration, name="iteration")
        if i.shape[0] != self.loop_depth:
            raise ValueError(
                f"iteration has length {i.shape[0]}, expected {self.loop_depth}"
            )
        return i @ self.g + self.offset

    def map_points(self, iterations: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`__call__` for an ``(N, l)`` iteration array."""
        return np.asarray(iterations, dtype=np.int64) @ self.g + self.offset

    # -- structural predicates (Lemmas 1-2, Theorem 1) -------------------
    def is_one_to_one(self) -> bool:
        """Lemma 1: injective iff the rows of ``G`` are independent."""
        return is_one_to_one(self.g)

    def is_onto(self) -> bool:
        """Lemma 2: onto iff columns independent and maximal-minor gcd 1."""
        return is_onto(self.g)

    def is_unimodular(self) -> bool:
        """Theorem 1's sufficient condition for ``LG`` = footprint."""
        return is_unimodular(self.g)

    # -- column reductions (Example 1, Section 3.4.1, Example 7) ---------
    def zero_columns(self) -> tuple[int, ...]:
        """Indices of all-zero columns of ``G`` (loop-invariant subscripts)."""
        return tuple(int(c) for c in np.nonzero(~self.g.any(axis=0))[0])

    def drop_zero_columns(self) -> "AffineRef":
        """Treat the array as lower-dimensional by dropping constant
        subscripts (Example 1: "we can ignore those columns").

        The footprint size is unchanged: constant subscripts contribute a
        single coordinate value.
        """
        keep = [c for c in range(self.array_dim) if self.g[:, c].any()]
        if len(keep) == self.array_dim:
            return self
        return AffineRef(self.array, self.g[:, keep], self.offset[keep])

    def reduced_columns(self) -> tuple[int, ...]:
        """Column selection used for footprint computation (Section 3.4.1).

        Prefers a selection making the reduced matrix unimodular (the
        paper's G′); falls back to the greedy maximal independent set.
        """
        uni = select_unimodular_columns(self.g)
        if uni is not None:
            return uni
        return maximal_independent_columns(self.g)

    def reduce_columns(self, cols=None) -> "AffineRef":
        """The lower-dimensional reference ``(G′, a′)`` keeping ``cols``.

        Exactness argument (used by the cumulative-footprint engine): every
        dropped column of ``G`` is a linear combination of the kept ones,
        so on any single coset of the row lattice of ``G`` the kept
        coordinates determine the dropped ones — the reduction preserves
        footprint cardinalities and intersections *within a uniformly
        intersecting class*.
        """
        if cols is None:
            cols = self.reduced_columns()
        cols = list(cols)
        return AffineRef(self.array, self.g[:, cols], self.offset[cols])

    # -- display ---------------------------------------------------------
    def subscript_strings(self, index_names=None) -> list[str]:
        """Human-readable subscript expressions, e.g. ``['i+j', 'j-1']``."""
        l, d = self.g.shape
        names = index_names or [f"i{k+1}" for k in range(l)]
        out = []
        for c in range(d):
            terms = []
            for r in range(l):
                coeff = int(self.g[r, c])
                if coeff == 0:
                    continue
                if coeff == 1:
                    terms.append(("+", names[r]))
                elif coeff == -1:
                    terms.append(("-", names[r]))
                else:
                    sign = "+" if coeff > 0 else "-"
                    terms.append((sign, f"{abs(coeff)}*{names[r]}"))
            a = int(self.offset[c])
            if a != 0 or not terms:
                terms.append(("+" if a >= 0 else "-", str(abs(a))))
            expr = ""
            for k, (sign, text) in enumerate(terms):
                if k == 0:
                    expr = text if sign == "+" else f"-{text}"
                else:
                    expr += sign + text
            out.append(expr)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.array}[{', '.join(self.subscript_strings())}]"

    def __hash__(self) -> int:
        return hash((self.array, self.g.tobytes(), self.g.shape, self.offset.tobytes()))

    def __reduce__(self):
        # Rebuild through __init__ so a copy's arrays are read-only too.
        return (AffineRef, (self.array, self.g, self.offset))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineRef)
            and self.array == other.array
            and self.g.shape == other.g.shape
            and bool(np.all(self.g == other.g))
            and bool(np.all(self.offset == other.offset))
        )


@dataclass(frozen=True)
class ArrayAccess:
    """A reference together with its access kind (read / write / sync)."""

    ref: AffineRef
    kind: AccessKind = AccessKind.READ

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = {"read": "", "write": "=", "sync": "l$"}[self.kind.value]
        return f"{tag}{self.ref!r}"
