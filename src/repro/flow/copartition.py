"""Per-statement tile selection for dataflow programs.

Two strategies:

* ``independent`` — each statement is handed to the ordinary
  :class:`~repro.core.partitioner.LoopPartitioner` on its own.  Optimal
  per nest, but nothing aligns the tiles of a producer with those of its
  consumer, so inter-statement transfers can dominate.
* ``co`` — statements of equal depth are forced onto one shared
  processor grid, chosen to minimize *total* traffic: per-statement
  cumulative footprints (Theorem 2/4, evaluated exactly) **plus** an
  inter-statement transfer term per flow edge.  With producer and
  consumer tiled by the same grid, the data a consumer tile must fetch
  remotely is its read footprint minus what its aligned producer tile
  wrote locally — the cross-statement uniformly-intersecting class makes
  that ``F(writes ∪ reads) − F(writes)`` per tile, the same dilation
  algebra as Section 3's boundary terms (and the alignment idea of
  ``core.datapart``: computation and data distributions chosen
  together).

The transfer term is separable per consumer statement (it depends only
on the consumer's tile), so depth groups are optimized independently —
no combinatorial blow-up across groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.classify import UISet, partition_references
from ..core.cost import estimate_traffic
from ..core.cumulative import cumulative_footprint_size_exact
from ..core.loopnest import LoopNest
from ..core.optimize import (
    communication_free_partition,
    factorizations,
    sharing_directions,
)
from ..core.partitioner import LoopPartitioner, PartitionResult
from ..core.tiles import RectangularTile
from ..exceptions import PartitionError
from ..obs.tracing import span
from .graph import DataflowGraph, FlowStatement

__all__ = [
    "StatementPartition",
    "FlowPartition",
    "partition_flow",
    "transfer_proxy",
    "STRATEGIES",
]

STRATEGIES = ("co", "independent")


@dataclass(frozen=True)
class StatementPartition:
    """One statement's chosen partition."""

    statement: FlowStatement
    result: PartitionResult

    @property
    def name(self) -> str:
        return self.statement.name

    @property
    def tile(self) -> RectangularTile:
        return self.result.tile

    def num_tiles(self) -> int:
        ext = self.statement.nest.space.extents
        if getattr(self.result.tile, "sides", None) is not None:
            sides = self.result.tile.sides
            prod = 1
            for e, s in zip(ext, sides):
                prod *= -(-int(e) // int(s))
            return prod
        from ..core.tiles import Tiling

        return Tiling(self.statement.nest.space, self.result.tile).num_tiles()


@dataclass(frozen=True)
class FlowPartition:
    """The full program's partition plus the scoring that produced it.

    ``predicted_compute`` sums every statement's exact cumulative
    footprint over all of its tiles; ``predicted_transfers`` sums the
    per-flow-edge transfer proxy (element granularity, aligned-tile
    assumption — the *exact* line-level numbers come from the
    communication schedule).
    """

    strategy: str
    statements: tuple[StatementPartition, ...]
    predicted_compute: float
    predicted_transfers: float
    candidates_scored: int

    def by_name(self) -> dict[str, StatementPartition]:
        return {sp.name: sp for sp in self.statements}


def _mixed_classes(
    producer: FlowStatement, consumer: FlowStatement, array: str
) -> list[tuple[UISet, UISet]]:
    """(combined class, write-members-only class) pairs for one edge."""
    writes = [
        a
        for a in producer.nest.accesses
        if a.ref.array == array and a.kind.is_write_like
    ]
    reads = [
        a
        for a in consumer.nest.accesses
        if a.ref.array == array and not a.kind.is_write_like
    ]
    out = []
    for cls in partition_references(writes + reads):
        w = tuple(a for a in cls.accesses if a.kind.is_write_like)
        r = tuple(a for a in cls.accesses if not a.kind.is_write_like)
        if w and r:
            out.append((cls, UISet(w)))
    return out


def transfer_proxy(
    graph: DataflowGraph, consumer: FlowStatement, tile: RectangularTile
) -> float:
    """Per-consumer-tile transfer estimate for all flow edges into
    ``consumer``, assuming the producer is tiled on the same grid:
    ``F(writes ∪ reads) − F(writes)`` per cross-statement class."""
    total = 0.0
    for edge in graph.flow_edges:
        if edge.consumer != consumer.order:
            continue
        producer = graph.statements[edge.producer]
        for combined, writes_only in _mixed_classes(producer, consumer, edge.array):
            f_combined = float(cumulative_footprint_size_exact(combined, tile))
            f_writes = float(cumulative_footprint_size_exact(writes_only, tile))
            total += max(f_combined - f_writes, 0.0)
    return total


def _grid_tile(nest: LoopNest, grid: tuple[int, ...]) -> RectangularTile:
    ext = nest.space.extents
    return RectangularTile([-(-int(e) // int(g)) for e, g in zip(ext, grid)])


def _num_tiles(nest: LoopNest, tile: RectangularTile) -> int:
    prod = 1
    for e, s in zip(nest.space.extents, tile.sides):
        prod *= -(-int(e) // int(s))
    return prod


def _forced_partition(nest: LoopNest, grid: tuple[int, ...]) -> PartitionResult:
    """A :class:`PartitionResult` for an externally chosen grid."""
    tile = _grid_tile(nest, grid)
    uisets = tuple(partition_references(nest.accesses))
    return PartitionResult(
        tile=tile,
        grid=tuple(int(g) for g in grid),
        uisets=uisets,
        comm_free_basis=communication_free_partition(list(uisets), nest.depth),
        sharing=sharing_directions(list(uisets)),
        estimate=estimate_traffic(list(uisets), tile, method="exact"),
        method="rectangular",
    )


def _independent(
    graph: DataflowGraph,
    processors: int,
    *,
    method: str,
    cache,
    opt_budget_s,
) -> list[StatementPartition]:
    parts = []
    for stmt in graph.statements:
        result = LoopPartitioner(stmt.nest, processors).partition(
            method=method,
            cache=cache,
            opt_budget_s=opt_budget_s,
        )
        parts.append(StatementPartition(statement=stmt, result=result))
    return parts


def _predicted_totals(
    graph: DataflowGraph, parts: list[StatementPartition]
) -> tuple[float, float]:
    compute = 0.0
    transfers = 0.0
    for sp in parts:
        n = sp.num_tiles()
        compute += float(sp.result.estimate.cold_misses) * n
        if isinstance(sp.result.tile, RectangularTile):
            transfers += transfer_proxy(graph, sp.statement, sp.result.tile) * n
    return compute, transfers


def partition_flow(
    graph: DataflowGraph,
    processors: int,
    *,
    strategy: str = "co",
    method: str = "rectangular",
    cache=None,
    opt_budget_s: float | None = None,
) -> FlowPartition:
    """Choose per-statement tiles for a dataflow program.

    ``strategy='co'`` scores candidate shared grids per depth group —
    every feasible factorization of ``processors`` plus each member
    statement's independent optimum — on total footprint + transfer
    traffic, and keeps the cheapest (ties broken toward the
    lexicographically smallest grid).  The independent per-statement
    optimization still runs first, so `co` degrades gracefully to it
    when no aligned grid scores better.
    """
    if strategy not in STRATEGIES:
        raise PartitionError(
            f"unknown flow strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    with span("flow.partition", strategy=strategy, statements=len(graph.statements)):
        independent = _independent(
            graph,
            processors,
            method=method,
            cache=cache,
            opt_budget_s=opt_budget_s,
        )
        if strategy == "independent":
            compute, transfers = _predicted_totals(graph, independent)
            return FlowPartition(
                strategy=strategy,
                statements=tuple(independent),
                predicted_compute=compute,
                predicted_transfers=transfers,
                candidates_scored=0,
            )

        # -- co-partitioning: one shared grid per depth group ------------
        by_depth: dict[int, list[int]] = {}
        for k, stmt in enumerate(graph.statements):
            by_depth.setdefault(stmt.nest.depth, []).append(k)

        chosen: dict[int, PartitionResult] = {}
        scored = 0
        for depth, members in sorted(by_depth.items()):
            candidates: set[tuple[int, ...]] = set()
            for grid in factorizations(processors, depth):
                g = tuple(int(x) for x in grid)
                if all(
                    all(
                        gk <= int(ext)
                        for gk, ext in zip(
                            g, graph.statements[m].nest.space.extents
                        )
                    )
                    for m in members
                ):
                    candidates.add(g)
            for m in members:
                g = independent[m].result.grid
                if g is not None:
                    candidates.add(tuple(int(x) for x in g))
            if not candidates:
                # Degenerate spaces (P larger than every extent product
                # split): fall back to each member's own optimum.
                for m in members:
                    chosen[m] = independent[m].result
                continue

            best: tuple[float, tuple[int, ...]] | None = None
            for g in sorted(candidates):
                score = 0.0
                for m in members:
                    stmt = graph.statements[m]
                    tile = _grid_tile(stmt.nest, g)
                    n = _num_tiles(stmt.nest, tile)
                    est = estimate_traffic(
                        list(partition_references(stmt.nest.accesses)),
                        tile,
                        method="exact",
                    )
                    score += float(est.cold_misses) * n
                    score += transfer_proxy(graph, stmt, tile) * n
                scored += 1
                if best is None or (score, g) < best:
                    best = (score, g)
            _, best_grid = best
            for m in members:
                chosen[m] = _forced_partition(graph.statements[m].nest, best_grid)

        parts = [
            StatementPartition(statement=graph.statements[k], result=chosen[k])
            for k in range(len(graph.statements))
        ]
        compute, transfers = _predicted_totals(graph, parts)
        return FlowPartition(
            strategy=strategy,
            statements=tuple(parts),
            predicted_compute=compute,
            predicted_transfers=transfers,
            candidates_scored=scored,
        )
