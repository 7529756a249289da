"""Data partitioning and alignment (Section 4).

"Arrays must be distributed among the processors such that memory
references that miss in the cache go to the local memory rather than
across the network to another node.  This is accomplished by partitioning
arrays with the same aspect ratios as the iterations of loops that
reference them, and then assigning corresponding loop and data partitions
to the same processor."

Implementation for rectangular loop partitions:

1. For each array, pick its *anchor class* — the uniformly intersecting
   class with the most members (ties: first).  Its base reference maps the
   loop tile into the data space.
2. The data tile for the array is the image of the loop-tile box under
   the base reference's ``G`` (an axis-aligned box when the reduced ``G``
   is a scaled permutation; otherwise the bounding box of the image —
   still correct, just coarser alignment).
3. Each data tile is homed on the processor that runs the corresponding
   loop tile (identical grid coordinates).

The result is a :class:`~repro.sim.memory.AddressMap` the simulator can
use; benchmark E12 measures the local-vs-remote miss split with and
without alignment.
"""

from __future__ import annotations

import numpy as np

from ..core.classify import partition_references
from ..core.loopnest import LoopNest
from ..core.tiles import RectangularTile
from ..exceptions import PartitionError
from ..sim.memory import AddressMap
from .schedule import TileSchedule

__all__ = ["array_extents", "aligned_address_map"]


def array_extents(nest: LoopNest, array: str) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) element-coordinate bounds of ``array`` in the nest.

    Affine images of a box attain extremes at corners, computed per
    subscript from the coefficient signs.
    """
    refs = [a.ref for a in nest.accesses_to(array)]
    if not refs:
        raise PartitionError(f"array {array!r} not referenced by the nest")
    lo_it, hi_it = nest.space.lower, nest.space.upper
    lows, highs = [], []
    for r in refs:
        g = r.g
        lo = r.offset.astype(np.int64).copy()
        hi = r.offset.astype(np.int64).copy()
        for c in range(r.array_dim):
            for row in range(r.loop_depth):
                coeff = int(g[row, c])
                if coeff == 0:
                    continue
                a = coeff * int(lo_it[row])
                b = coeff * int(hi_it[row])
                lo[c] += min(a, b)
                hi[c] += max(a, b)
        lows.append(lo)
        highs.append(hi)
    return np.min(lows, axis=0), np.max(highs, axis=0)


def _anchor_ref(nest: LoopNest, array: str):
    sets = [s for s in partition_references(nest.accesses) if s.array == array]
    sets.sort(key=lambda s: -s.size)
    return sets[0].base_ref()


def aligned_address_map(
    nest: LoopNest,
    tile: RectangularTile,
    grid: tuple[int, ...],
    processors: int,
    *,
    proc_of_coord=None,
) -> AddressMap:
    """Build the aligned data partition for all arrays of the nest.

    ``proc_of_coord`` maps a loop-grid coordinate to a processor number
    (defaults to :meth:`TileSchedule.proc_of_coord`); pass the
    placement embedding here to co-locate loop and data tiles on the
    physical mesh.
    """
    if len(grid) != nest.depth:
        raise PartitionError(f"grid {grid} does not match nest depth {nest.depth}")
    sched = TileSchedule(nest.space, tile, processors, grid=tuple(grid))
    if proc_of_coord is None:
        proc_of_coord = sched.proc_of_coord

    am = AddressMap(processors, default_policy="interleave")
    for array in nest.arrays():
        ref = _anchor_ref(nest, array).drop_zero_columns()
        full_ref = _anchor_ref(nest, array)
        d = full_ref.array_dim
        lo_a, _hi_a = array_extents(nest, array)
        # Data-tile sides: image of the loop tile box per array dimension.
        sides = np.ones(d, dtype=np.int64)
        dim_of_loop = {}
        g = full_ref.g
        for c in range(d):
            span = 0
            for row in range(full_ref.loop_depth):
                span += abs(int(g[row, c])) * (int(tile.sides[row]) - 1)
            sides[c] = max(span + 1, 1)
            # Which loop dim dominates this array dim (for grid mapping)?
            rows = [r for r in range(full_ref.loop_depth) if g[r, c] != 0]
            dim_of_loop[c] = rows[0] if rows else None
        # Grid over the array: one block per loop-grid coordinate along the
        # mapped dimensions; unmapped array dims get a single block.
        gshape = tuple(
            int(grid[dim_of_loop[c]]) if dim_of_loop[c] is not None else 1
            for c in range(d)
        )
        g2n = np.zeros(gshape, dtype=np.int64)
        for idx in np.ndindex(*gshape):
            coord = [0] * nest.depth
            for c in range(d):
                if dim_of_loop[c] is not None:
                    coord[dim_of_loop[c]] = idx[c]
            g2n[idx] = proc_of_coord(tuple(coord))
        am.set_block_map(array, lo_a, sides, g2n)
    return am
