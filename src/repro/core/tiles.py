"""Iteration-space tiles and tilings (Definitions 1-2, Propositions 2-3).

A hyperparallelepiped tile is defined in the paper by bounding hyperplanes
``(H, γ, λ)``; the tile at the origin is equivalently described by the
matrix ``L = Λ·(H⁻¹)ᵀ`` whose *rows are the edge vectors* of the tile
(Definition 2).  We take ``L`` as primary:

* an iteration ``i`` lies in the closed tile at the origin iff
  ``i = f·L`` with ``0 ≤ f_j ≤ 1``;
* homogeneous tiling assigns ``i`` to tile index ``k = ⌊i·L⁻¹⌋``
  (half-open tiles, so every iteration belongs to exactly one tile — the
  paper's closed tiles share boundaries, a set of measure zero it
  approximates away; Proposition 2).

Rectangular tiles (``H = I``, ``L = Λ``, Example 4) are the special case
used by the implemented Alewife compiler and by Theorem 4; we expose them
with explicit ``sides`` (iterations per dimension, ``λ_j + 1`` in
Proposition 3) to keep the ubiquitous off-by-one explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .._util import (
    as_int_matrix,
    as_int_vector,
    box_points_array,
    exact_inverse,
    frozen_int_matrix,
    int_det,
)
from ..exceptions import SingularMatrixError
from .loopnest import IterationSpace

__all__ = ["ParallelepipedTile", "RectangularTile", "Tiling"]


@dataclass(frozen=True)
class ParallelepipedTile:
    """The tile at the origin of a hyperparallelepiped partition.

    ``l_matrix`` is the integer ``L`` of Definition 2 (rows = edge
    vectors).  Must be nonsingular.
    """

    l_matrix: np.ndarray

    def __init__(self, l_matrix):
        lm = as_int_matrix(l_matrix, name="L")
        if lm.shape[0] != lm.shape[1]:
            raise ValueError(f"L must be square, got {lm.shape}")
        if int_det(lm) == 0:
            raise SingularMatrixError("tile matrix L is singular")
        object.__setattr__(self, "l_matrix", lm)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return int(self.l_matrix.shape[0])

    @property
    def volume(self) -> int:
        """``|det L|`` — iterations per tile up to boundary terms (Prop 2)."""
        return abs(int_det(self.l_matrix))

    def h_gamma_lambda(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recover the paper's ``(H, γ=0, λ)`` description.

        ``L = Λ (H⁻¹)ᵀ`` with ``Λ = diag(λ)``; we return the rational ``H``
        as a float array normalised so ``λ_j = 1`` (any positive scaling of
        ``h_j`` with matching ``λ_j`` describes the same slab family).
        """
        inv = np.array(
            [[float(x) for x in row] for row in exact_inverse(self.l_matrix)]
        )
        h = inv.T  # with λ = 1: L = Λ (H^{-1})^T = (H^{-1})^T
        lam = np.ones(self.depth)
        gamma = np.zeros(self.depth)
        return h, gamma, lam

    # -- exact integer tiling arithmetic ---------------------------------
    def _adjugate_and_det(self) -> tuple[np.ndarray, int]:
        det = int_det(self.l_matrix)
        inv = exact_inverse(self.l_matrix)
        adj = np.array(
            [[int(x * det) for x in row] for row in inv], dtype=np.int64
        )
        if det < 0:
            adj, det = -adj, -det
        return adj, det

    def tile_index(self, iterations) -> np.ndarray:
        """Tile index ``k = ⌊i·L⁻¹⌋`` for each iteration row (exact)."""
        pts = np.atleast_2d(np.asarray(iterations, dtype=np.int64))
        adj, det = self._adjugate_and_det()
        num = pts @ adj
        return np.floor_divide(num, det)

    def contains_closed(self, iteration) -> bool:
        """Membership in the *closed* tile at the origin (0 ≤ f ≤ 1)."""
        i = as_int_vector(iteration, name="iteration")
        adj, det = self._adjugate_and_det()
        num = i @ adj
        return bool(np.all(num >= 0) and np.all(num <= det))

    def enumerate_iterations(self, *, closed: bool = True) -> np.ndarray:
        """Integer iterations of the tile at the origin.

        ``closed=True`` gives the paper's tile (both bounding hyperplanes
        included); ``closed=False`` the half-open tile used for
        one-iteration-one-tile scheduling.
        """
        lm = self.l_matrix
        l = self.depth
        corners = np.array(
            [
                sum((lm[j] for j in range(l) if mask >> j & 1),
                    np.zeros(l, dtype=np.int64))
                for mask in range(1 << l)
            ]
        )
        lo = corners.min(axis=0)
        hi = corners.max(axis=0)
        pts = box_points_array(lo, hi)
        adj, det = self._adjugate_and_det()
        num = pts @ adj
        if closed:
            mask = np.all((num >= 0) & (num <= det), axis=1)
        else:
            mask = np.all((num >= 0) & (num < det), axis=1)
        return pts[mask]

    def footprint_matrix(self, g) -> np.ndarray:
        """The footprint parallelepiped ``L·G`` (Section 3.4)."""
        return self.l_matrix @ as_int_matrix(g, name="G")

    def is_rectangular(self) -> bool:
        lm = self.l_matrix
        return bool(np.all(lm == np.diag(np.diag(lm))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelepipedTile(L={self.l_matrix.tolist()})"


class RectangularTile(ParallelepipedTile):
    """A rectangular tile given by ``sides`` = iterations per dimension.

    ``sides_j = λ_j + 1`` in the paper's ``(I, γ, λ)`` notation
    (Proposition 3: the tile holds ``Π(λ_j+1)`` iterations).  ``L`` is
    ``diag(sides)``, so ``|det L| = Π sides = iterations`` exactly — the
    half-open tile ``0 ≤ i_j < sides_j``.
    """

    def __init__(self, sides):
        sides = frozen_int_matrix(sides, name="sides", ndim=1)
        if sides.size and sides.min() < 1:
            raise ValueError(f"tile sides must be >= 1, got {sides}")
        # ``L = diag(sides)`` with positive sides is nonsingular by
        # construction, so the base class's determinant test is skipped.
        # ``extents`` is ``λ = sides − 1`` (the inclusive per-dimension
        # iteration bound); all three arrays are read-only.
        l_matrix = np.diag(sides)
        extents = sides - 1
        l_matrix.setflags(write=False)
        extents.setflags(write=False)
        object.__setattr__(self, "l_matrix", l_matrix)
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "extents", extents)

    @property
    def iterations(self) -> int:
        """Exact iteration count ``Π sides`` (Proposition 3)."""
        return math.prod(self.sides.tolist())

    volume = iterations  # |det L| = Π sides, without a determinant

    def enumerate_iterations(self, *, closed: bool = False) -> np.ndarray:
        """Iterations of the tile; default *half-open* (``0 ≤ i < sides``).

        The paper's rectangular tile ``(I, 0, λ)`` is exactly this set —
        closed bounds on ``λ = sides − 1``.  Pass ``closed=True`` for the
        set ``0 ≤ i ≤ sides`` (rarely wanted; kept for symmetry with the
        parallelepiped base class).
        """
        hi = self.sides if closed else self.extents
        return box_points_array(np.zeros_like(hi), hi)

    def __reduce__(self):
        # Rebuilt through ``__init__``, so a copy's arrays are read-only too.
        return RectangularTile, (self.sides.tolist(),)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RectangularTile(sides={self.sides.tolist()})"


@dataclass(frozen=True)
class Tiling:
    """A homogeneous tiling of a rectangular iteration space.

    Tiles are translates of ``tile`` anchored so that the space's lower
    corner falls at a tile origin; every iteration maps to exactly one
    tile (half-open assignment, Definition 1's homogeneity).
    """

    space: IterationSpace
    tile: ParallelepipedTile

    def __post_init__(self):
        if self.tile.depth != self.space.depth:
            raise ValueError(
                f"tile depth {self.tile.depth} != space depth {self.space.depth}"
            )

    def tile_indices(self, iterations) -> np.ndarray:
        """Tile index vectors for an ``(N, l)`` array of iterations."""
        pts = np.atleast_2d(np.asarray(iterations, dtype=np.int64))
        return self.tile.tile_index(pts - self.space.lower)

    def assignments(self) -> dict[tuple[int, ...], np.ndarray]:
        """Map tile index → ``(N_t, l)`` array of member iterations.

        Enumerates the whole space; intended for the simulator and for
        tests (spaces up to a few million iterations).
        """
        pts = box_points_array(self.space.lower, self.space.upper)
        idx = self.tile_indices(pts)
        # Group by tile index via lexicographic sort.
        order = np.lexsort(idx.T[::-1])
        idx_sorted = idx[order]
        pts_sorted = pts[order]
        boundaries = np.nonzero(np.any(np.diff(idx_sorted, axis=0) != 0, axis=1))[0] + 1
        groups = np.split(np.arange(len(pts_sorted)), boundaries)
        return {
            tuple(int(x) for x in idx_sorted[g[0]]): pts_sorted[g] for g in groups
        }

    def num_tiles(self) -> int:
        """Number of nonempty tiles (exact, by enumeration)."""
        pts = box_points_array(self.space.lower, self.space.upper)
        idx = self.tile_indices(pts)
        return int(np.unique(idx, axis=0).shape[0])

    def num_tiles_rect(self) -> int:
        """Closed-form tile count for rectangular tiles (ceil division)."""
        if not isinstance(self.tile, RectangularTile):
            raise TypeError("num_tiles_rect requires a RectangularTile")
        ext = self.space.extents
        sides = self.tile.sides
        prod = 1
        for e, s in zip(ext, sides):
            prod *= -(-int(e) // int(s))
        return prod
