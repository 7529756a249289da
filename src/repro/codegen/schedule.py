"""Per-processor iteration schedules from a tile + processor grid.

For rectangular tiles the schedule is closed-form: the tile at grid
coordinate ``(c_1..c_l)`` is the box::

    lo_k = space.lower_k + c_k * sides_k
    hi_k = min(lo_k + sides_k - 1, space.upper_k)

— exactly the "simple expressions" the paper wants for efficient code.
Boundary tiles clamp (tiles are equal "except at the boundaries").  Its
processor is the tile's rank in lexicographic order over the non-empty
tiles, ``Σ c_k · Π_{j>k} t_j`` with ``t_k = ⌈N_k / sides_k⌉`` tiles along
dimension ``k`` — the order :func:`repro.sim.trace.deal_tiles` deals
tiles in, so code and simulator agree on who runs what.  When a
dimension has fewer tiles than grid cells, processors ``≥ Π t_k`` are
idle.

General parallelepiped tiles fall back to explicit iteration lists from
:class:`~repro.core.tiles.Tiling`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.loopnest import IterationSpace
from ..core.tiles import ParallelepipedTile, RectangularTile, Tiling
from ..exceptions import PartitionError

__all__ = [
    "TileSchedule",
    "processor_bounds",
    "subdivide_for_cache",
    "blocked_iteration_order",
]


def processor_bounds(space: IterationSpace, sides, coord) -> list[tuple[int, int]] | None:
    """Loop bounds for the processor at grid coordinate ``coord``.

    Returns ``None`` when the coordinate's box is empty (can happen for
    over-provisioned grids at the boundary).
    """
    sides = np.asarray(sides, dtype=np.int64)
    coord = np.asarray(coord, dtype=np.int64)
    lo = space.lower + coord * sides
    hi = np.minimum(lo + sides - 1, space.upper)
    if np.any(lo > space.upper):
        return None
    return [(int(a), int(b)) for a, b in zip(lo, hi)]


@dataclass(frozen=True)
class TileSchedule:
    """Assignment of iterations to ``P`` processors.

    For rectangular tiles with an explicit ``grid``, bounds are
    closed-form and processors take the tiles in lexicographic rank (see
    the module docstring); otherwise tiles are dealt by
    :func:`repro.sim.trace.deal_tiles` (the simulator's dealing), once
    per schedule.  Both give each processor the same tiles.
    """

    space: IterationSpace
    tile: ParallelepipedTile
    processors: int
    grid: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.processors < 1:
            raise PartitionError("need at least one processor")
        if self.grid is not None:
            prod = 1
            for g in self.grid:
                prod *= g
            if prod != self.processors:
                raise PartitionError(
                    f"grid {self.grid} does not multiply to P={self.processors}"
                )
            if not isinstance(self.tile, RectangularTile):
                raise PartitionError("grids apply to rectangular tiles only")
            if any(t > g for t, g in zip(self._tile_counts, self.grid)):
                raise PartitionError(
                    f"grid {self.grid} has fewer cells than the "
                    f"{self._tile_counts} tiles of sides {list(self.tile.sides)}"
                )

    # ------------------------------------------------------------------
    @cached_property
    def _tile_counts(self) -> tuple[int, ...]:
        """Non-empty tiles along each dimension, ``⌈N_k / sides_k⌉``."""
        return tuple(
            -(-int(n) // int(s))
            for n, s in zip(self.space.extents, self.tile.sides)
        )

    def grid_coord(self, proc: int) -> tuple[int, ...] | None:
        """Grid coordinate of a processor's tile (``None``: it is idle)."""
        if self.grid is None:
            raise PartitionError("schedule has no processor grid")
        coord = []
        rem = proc
        for t in reversed(self._tile_counts):
            coord.append(rem % t)
            rem //= t
        return None if rem else tuple(reversed(coord))

    def proc_of_coord(self, coord) -> int:
        """The processor of the tile at grid coordinate ``coord``; a cell
        past the last tile of a dimension maps to that last tile."""
        if self.grid is None:
            raise PartitionError("schedule has no processor grid")
        p = 0
        for c, t in zip(coord, self._tile_counts):
            p = p * t + min(int(c), t - 1)
        return p

    def bounds(self, proc: int) -> list[tuple[int, int]] | None:
        """Closed-form per-processor loop bounds (rectangular grids);
        ``None`` for an idle processor."""
        if self.grid is None or not isinstance(self.tile, RectangularTile):
            raise PartitionError("closed-form bounds need a rectangular grid")
        coord = self.grid_coord(proc)
        if coord is None:
            return None
        return processor_bounds(self.space, self.tile.sides, coord)

    @property
    def _closed_form(self) -> bool:
        return self.grid is not None and isinstance(self.tile, RectangularTile)

    @cached_property
    def _dealing(self):
        from ..sim.trace import deal_tiles

        return deal_tiles(Tiling(self.space, self.tile), self.processors)

    def iterations(self, proc: int) -> np.ndarray:
        """Explicit ``(N, l)`` iteration array for one processor."""
        if self._closed_form:
            b = self.bounds(proc)
            if b is None:
                return np.empty((0, self.space.depth), dtype=np.int64)
            from .._util import box_points_array

            return box_points_array([x for x, _ in b], [y for _, y in b])
        return self._dealing.block(proc)

    def iteration_counts(self) -> list[int]:
        """Iterations per processor (load-balance check)."""
        if self._closed_form:
            return [int(self.iterations(p).shape[0]) for p in range(self.processors)]
        return self._dealing.counts()

    def owner_of(self, iteration) -> int:
        """Which processor runs a given iteration."""
        it = np.asarray(iteration, dtype=np.int64)
        if self._closed_form:
            return self.proc_of_coord((it - self.space.lower) // self.tile.sides)
        return self._dealing.owner(
            Tiling(self.space, self.tile).tile_indices(it[None, :])[0]
        )


def subdivide_for_cache(uisets_or_accesses, tile: RectangularTile, capacity: int) -> RectangularTile:
    """Shrink a tile until its cumulative footprint fits a cache.

    Section 2.2: "When caches are small, the optimal loop partition aspect
    ratios do not change, rather, the size of each loop tile executed at
    any given time on the processor must be adjusted so that the data fits
    in the cache."  This helper performs that adjustment: repeatedly halve
    the currently-largest side (preserving the aspect ratio as closely as
    integer sides allow) until the exact cumulative footprint is at most
    ``capacity``.

    Returns the sub-tile; raises :class:`PartitionError` if even a 1-size
    tile does not fit (capacity smaller than one iteration's data).
    """
    from ..core.classify import as_uisets
    from ..core.cumulative import cumulative_footprint_size_exact

    sets = as_uisets(uisets_or_accesses)
    if capacity < 1:
        raise PartitionError(f"cache capacity must be >= 1, got {capacity}")
    orig = [int(s) for s in tile.sides]
    sides = list(orig)

    def footprint(sds) -> int:
        t = RectangularTile(sds)
        return sum(cumulative_footprint_size_exact(s, t) for s in sets)

    while footprint(sides) > capacity:
        # Halve the side currently largest *relative to the original
        # aspect ratio*, so the sub-tile keeps the optimizer's proportions
        # as closely as integer sides allow.
        candidates = [i for i in range(len(sides)) if sides[i] > 1]
        if not candidates:
            raise PartitionError(
                f"footprint {footprint(sides)} of a unit tile exceeds "
                f"cache capacity {capacity}"
            )
        k = max(candidates, key=lambda i: sides[i] / orig[i])
        sides[k] = -(-sides[k] // 2)
    return RectangularTile(sides)


def blocked_iteration_order(iterations: np.ndarray, subtile: RectangularTile, origin=None) -> np.ndarray:
    """Reorder a tile's iterations so each sub-tile completes before the
    next begins (the execution order that realises
    :func:`subdivide_for_cache`'s footprint bound on a finite cache).

    ``iterations`` is an ``(N, l)`` array; the result is a permutation of
    its rows, grouped by sub-tile index (lexicographic), iterations within
    a sub-tile kept in their original relative order.
    """
    pts = np.atleast_2d(np.asarray(iterations, dtype=np.int64))
    if pts.shape[0] == 0:
        return pts
    base = pts.min(axis=0) if origin is None else np.asarray(origin, dtype=np.int64)
    idx = (pts - base) // subtile.sides
    # lexsort sorts by the LAST key as primary: original position is the
    # tie-break (stability), sub-tile coordinates the major keys.
    order = np.lexsort((np.arange(pts.shape[0]),) + tuple(idx.T[::-1]))
    return pts[order]
