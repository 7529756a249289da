"""Access-trace generation from a partitioned loop nest.

Bridges the analytical world (loop nests, tiles) and the machine
simulator: deal every tile's iterations to processors in one pass
(:func:`deal_tiles`), map the whole dealt array through every body
reference once (:func:`reference_streams`), and read per-processor
access streams as zero-copy slices of it (:func:`split_streams`).

Within one iteration the body's reads precede its writes (the canonical
``A[...] = f(B[...], C[...])`` statement shape of all the paper's
examples); across iterations a ``Doall`` imposes no order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import box_points_array, row_codes, run_heads, sort_by_key
from ..core.affine import AccessKind
from ..core.loopnest import LoopNest
from ..core.tiles import ParallelepipedTile, Tiling

__all__ = [
    "AccessEvent",
    "Dealing",
    "RefStream",
    "deal_tiles",
    "reference_streams",
    "split_streams",
    "tile_accesses",
    "nest_trace",
    "assign_tiles_to_processors",
]


@dataclass(frozen=True)
class AccessEvent:
    """One memory access of one iteration."""

    array: str
    coords: tuple[int, ...]
    kind: str


@dataclass(frozen=True)
class RefStream:
    """Batched accesses of one body reference over an iteration block.

    Row ``n`` of ``coords`` is the data point this reference touches on
    the block's ``n``-th iteration; within an iteration the executor
    issues streams in list order (reads then writes).
    """

    array: str
    kind: str
    coords: np.ndarray  # (N, d) element coordinates

    @property
    def is_write_like(self) -> bool:
        return self.kind != "read"


@dataclass(frozen=True)
class Dealing:
    """Every iteration of a tiling, dealt to processors.

    Tiles are ordered lexicographically by tile index and dealt in
    order: tile ``k`` goes to processor ``k mod P``.  ``iterations``
    holds processor 0's rows, then processor 1's, and so on; processor
    ``p``'s rows are ``iterations[offsets[p]:offsets[p + 1]]``.  Within
    a processor the tiles keep their lexicographic order and each
    tile's points keep :func:`~repro._util.box_points_array` order.
    Tile ``k`` (``keys[k]``) occupies ``sizes[k]`` rows from
    ``starts[k]``.
    """

    processors: int
    iterations: np.ndarray  # (N, l), processor-major
    offsets: np.ndarray  # (P + 1,)
    keys: np.ndarray  # (T, l) tile indices, lexicographic
    starts: np.ndarray  # (T,)
    sizes: np.ndarray  # (T,)

    def block(self, proc: int) -> np.ndarray:
        """Processor ``proc``'s iterations (a view)."""
        return self.iterations[self.offsets[proc] : self.offsets[proc + 1]]

    def counts(self) -> list[int]:
        """Iterations per processor."""
        return np.diff(self.offsets).tolist()

    def owner(self, key) -> int:
        """The processor dealt the tile with index ``key`` (ValueError if
        no iteration lies in it)."""
        (rank,) = np.flatnonzero((self.keys == np.asarray(key)).all(axis=1))
        return int(rank) % self.processors

    def tiles(self):
        """``(tile index, processor, iterations)`` per tile, lexicographic."""
        for k, (start, size) in enumerate(zip(self.starts.tolist(), self.sizes.tolist())):
            yield (
                tuple(self.keys[k].tolist()),
                k % self.processors,
                self.iterations[start : start + size],
            )


def deal_tiles(tiling: Tiling, processors: int) -> Dealing:
    """Deal ``tiling``'s tiles to ``processors`` in one vectorised pass.

    Tile index of every iteration, one stable sort by tile index (so
    points keep their enumeration order within a tile), tile rank
    ``mod P``, and one stable sort by processor.
    """
    pts = box_points_array(tiling.space.lower, tiling.space.upper)
    n = pts.shape[0]
    idx = tiling.tile_indices(pts)
    order, key = sort_by_key(row_codes(idx, n)[0])
    new_tile = run_heads(key)
    firsts = np.flatnonzero(new_tile)
    proc = (np.cumsum(new_tile) - 1) % processors
    by_proc = np.argsort(proc, kind="stable")
    offsets = np.zeros(processors + 1, dtype=np.int64)
    np.cumsum(np.bincount(proc, minlength=processors), out=offsets[1:])
    sizes = np.diff(np.append(firsts, n))
    # Tile starts in the processor-major layout: tiles in (proc, rank)
    # order are contiguous there.
    tile_order = np.argsort(np.arange(firsts.shape[0]) % processors, kind="stable")
    starts = np.empty_like(sizes)
    starts[tile_order] = np.cumsum(sizes[tile_order]) - sizes[tile_order]
    return Dealing(
        processors=processors,
        iterations=pts[order[by_proc]],
        offsets=offsets,
        keys=idx[order[firsts]],
        starts=starts,
        sizes=sizes,
    )


def _ordered_accesses(nest: LoopNest):
    reads = [a for a in nest.accesses if a.kind is AccessKind.READ]
    writes = [a for a in nest.accesses if a.kind is not AccessKind.READ]
    return reads + writes


def reference_streams(nest: LoopNest, iterations: np.ndarray) -> list[RefStream]:
    """Batched counterpart of :func:`tile_accesses`.

    One ``(N, d)`` coordinate array per body reference in execution
    order, instead of ``N`` per-iteration event lists — the address-
    stream representation the fast simulator engine consumes.  The
    simulator maps a whole :class:`Dealing` at once and slices it per
    processor (:func:`split_streams`).  An empty block yields streams
    with ``(0, d)`` coordinate arrays, keeping the reference structure
    uniform across processors.
    """
    iterations = np.asarray(iterations, dtype=np.int64)
    if iterations.ndim != 2:
        iterations = np.atleast_2d(iterations)
    if iterations.size == 0:
        iterations = iterations.reshape(0, nest.space.depth)
    return [
        RefStream(
            array=acc.ref.array,
            kind="sync" if acc.kind is AccessKind.SYNC else acc.kind.value,
            coords=acc.ref.map_points(iterations),
        )
        for acc in _ordered_accesses(nest)
    ]


def split_streams(
    streams: list[RefStream], offsets: np.ndarray
) -> dict[int, list[RefStream]]:
    """Processor → its streams, as zero-copy row slices of ``streams``
    (rows laid out processor-major by ``offsets``, as in :class:`Dealing`)."""
    bounds = np.asarray(offsets).tolist()
    return {
        p: [RefStream(s.array, s.kind, s.coords[lo:hi]) for s in streams]
        for p, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    }


def tile_accesses(nest: LoopNest, iterations: np.ndarray) -> list[list[AccessEvent]]:
    """Per-iteration access lists for an ``(N, l)`` block of iterations.

    Returns ``N`` lists, each the iteration's accesses in execution order
    (reads then writes).  Coordinate computation is vectorised per
    reference.
    """
    streams = reference_streams(nest, iterations)
    n = streams[0].coords.shape[0] if streams else 0
    out: list[list[AccessEvent]] = []
    for row in range(n):
        events = [
            AccessEvent(
                array=s.array,
                coords=tuple(int(x) for x in s.coords[row]),
                kind=s.kind,
            )
            for s in streams
        ]
        out.append(events)
    return out


def assign_tiles_to_processors(
    tiling: Tiling, processors: int
) -> dict[int, np.ndarray]:
    """Map processor → its iterations (views of :func:`deal_tiles`)."""
    deal = deal_tiles(tiling, processors)
    return {p: deal.block(p) for p in range(processors)}


def nest_trace(
    nest: LoopNest,
    tile: ParallelepipedTile,
    processors: int,
) -> dict[int, list[list[AccessEvent]]]:
    """Full trace: processor → list of per-iteration access lists."""
    tiling = Tiling(nest.space, tile)
    blocks = assign_tiles_to_processors(tiling, processors)
    return {p: tile_accesses(nest, its) if its.size else [] for p, its in blocks.items()}
