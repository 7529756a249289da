"""Inter-tile communication schedules for dataflow programs.

Given a per-statement tiling, the schedule answers: *which producer
tile's written cache lines does each consumer tile touch?*  Statements
are walked in program order keeping a line-granular last-writer map
(line → statement, tile, processor); each consumer tile's read-line set
is intersected with it, and a line counts as a **transfer** when the
consumer's processor is not among the line's earlier writers (a
processor never fetches remotely what it produced itself — MSI keeps the
line resident in its cache).

The schedule is line-granular on purpose: it records *coherence-visible*
movement, including false sharing between element-disjoint references
that share a cache line (such pairs have no dataflow edge, but the
machine still moves the line).

Output is a versioned, deterministic document (``repro.flow-schedule``
v1).  ``include_lines=True`` additionally embeds the concrete line keys
per transfer entry — used by the ``repro check`` conservation oracle;
the digest covers only the entry keys and counts, so it is identical
with or without embedded lines.

Schedules describe one pass over the program (the first sweep); under a
``Doseq`` wrapper the same transfers recur each sweep as steady-state
coherence misses.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from ..core.tiles import Tiling
from ..exceptions import PartitionError
from ..obs.tracing import span
from ..sim.trace import deal_tiles
from .copartition import FlowPartition
from .graph import DataflowGraph

__all__ = [
    "FLOW_SCHEDULE_SCHEMA",
    "FLOW_SCHEDULE_VERSION",
    "MAX_SCHEDULE_ITERATIONS",
    "build_schedule",
]

FLOW_SCHEDULE_SCHEMA = "repro.flow-schedule"
FLOW_SCHEDULE_VERSION = 1

# Schedules enumerate every iteration of every statement; bound the work
# so a hostile serve request cannot wedge a worker.
MAX_SCHEDULE_ITERATIONS = 1 << 20


def _line_keys(array: str, coords: np.ndarray, line_size: int) -> set:
    """Distinct ``(array, line-coordinate)`` keys touched by ``coords``."""
    if coords.size == 0:
        return set()
    c = coords.copy()
    if line_size > 1:
        c[:, -1] = np.floor_divide(c[:, -1], line_size)
    uniq = np.unique(c, axis=0)
    return {(array, tuple(int(x) for x in row)) for row in uniq}


def build_schedule(
    graph: DataflowGraph,
    partition: FlowPartition,
    *,
    processors: int,
    line_size: int = 1,
    include_lines: bool = False,
    max_iterations: int = MAX_SCHEDULE_ITERATIONS,
) -> dict:
    """Compute the inter-tile communication schedule.

    Tiles are mapped to processors exactly as the simulator does
    (sorted tile keys dealt round-robin), so the schedule is directly
    comparable to replayed execution.
    """
    total_iters = sum(s.nest.space.volume for s in graph.statements)
    if total_iters > max_iterations:
        raise PartitionError(
            f"flow schedule enumeration over budget: {total_iters} iterations "
            f"across {len(graph.statements)} statements exceeds "
            f"{max_iterations}; shrink the program or raise max_iterations"
        )

    with span("flow.schedule", statements=len(graph.statements)):
        parts = partition.by_name()
        names = [s.name for s in graph.statements]
        last_writer: dict = {}  # line -> (stmt_order, tile_key, proc)
        writer_procs: dict = {}  # line -> set of procs
        entries: dict = {}  # (prod_stmt, ptile, pproc, cons_stmt, ctile, cproc, array) -> set
        remote_by_proc: dict = {}  # (cons_stmt_order, proc) -> set of lines
        stmt_meta = []

        for stmt in graph.statements:
            sp = parts[stmt.name]
            tiles = list(
                deal_tiles(Tiling(stmt.nest.space, sp.result.tile), processors).tiles()
            )
            reads = [a for a in stmt.nest.accesses if not a.kind.is_write_like]
            writes = [a for a in stmt.nest.accesses if a.kind.is_write_like]

            # Consumer side first: reads see only *earlier* statements'
            # writes (an intra-statement write never feeds its own reads
            # through the schedule — Doall iterations are independent).
            for key, p, its in tiles:
                rlines: set = set()
                for a in reads:
                    rlines |= _line_keys(
                        a.ref.array, a.ref.map_points(its), line_size
                    )
                for ln in rlines:
                    lw = last_writer.get(ln)
                    if lw is None:
                        continue
                    if p in writer_procs[ln]:
                        continue
                    j, ptile, pproc = lw
                    ekey = (j, ptile, pproc, stmt.order, key, p, ln[0])
                    entries.setdefault(ekey, set()).add(ln)
                    remote_by_proc.setdefault((stmt.order, p), set()).add(ln)

            # Producer side: sorted tile-key order makes the last-writer
            # attribution deterministic when tiles write-share a line.
            for key, p, its in tiles:
                for a in writes:
                    for ln in _line_keys(
                        a.ref.array, a.ref.map_points(its), line_size
                    ):
                        last_writer[ln] = (stmt.order, key, p)
                        writer_procs.setdefault(ln, set()).add(p)

            meta = {
                "name": stmt.name,
                "iterations": int(stmt.nest.space.volume),
                "tiles": len(tiles),
                "l_matrix": sp.result.tile.l_matrix.tolist(),
            }
            if getattr(sp.result.tile, "sides", None) is not None:
                meta["tile_sides"] = [int(x) for x in sp.result.tile.sides]
            if sp.result.grid is not None:
                meta["grid"] = [int(g) for g in sp.result.grid]
            stmt_meta.append(meta)

        transfer_rows = []
        by_pair: dict[str, int] = {}
        for ekey in sorted(entries):
            j, ptile, pproc, k, ctile, cproc, array = ekey
            lines = entries[ekey]
            row = {
                "producer": names[j],
                "producer_tile": [int(x) for x in ptile],
                "producer_proc": int(pproc),
                "consumer": names[k],
                "consumer_tile": [int(x) for x in ctile],
                "consumer_proc": int(cproc),
                "array": array,
                "lines": len(lines),
            }
            if include_lines:
                row["line_keys"] = sorted(
                    [a, [int(x) for x in c]] for a, c in lines
                )
            transfer_rows.append(row)
            pair = f"{names[j]}->{names[k]}:{array}"
            by_pair[pair] = by_pair.get(pair, 0) + len(lines)

        # Distinct lines per (consumer statement, processor): a processor
        # owning several tiles fetches a shared line once — this is the
        # quantity the simulator-parity oracle compares.
        per_consumer: dict[str, dict[str, int]] = {}
        for (k, p), lines in sorted(remote_by_proc.items()):
            per_consumer.setdefault(names[k], {})[str(p)] = len(lines)

        digest_basis = [
            [
                row["producer"],
                row["producer_tile"],
                row["producer_proc"],
                row["consumer"],
                row["consumer_tile"],
                row["consumer_proc"],
                row["array"],
                row["lines"],
            ]
            for row in transfer_rows
        ]
        digest = hashlib.sha256(
            json.dumps(digest_basis, separators=(",", ":")).encode()
        ).hexdigest()

        return {
            "schema": FLOW_SCHEDULE_SCHEMA,
            "version": FLOW_SCHEDULE_VERSION,
            "processors": int(processors),
            "line_size": int(line_size),
            "strategy": partition.strategy,
            "statements": stmt_meta,
            "edges": [
                {
                    "producer": names[e.producer],
                    "consumer": names[e.consumer],
                    "array": e.array,
                    "kind": e.kind,
                }
                for e in graph.edges
            ],
            "transfers": transfer_rows,
            "totals": {
                "transfer_lines": sum(r["lines"] for r in transfer_rows),
                "remote_lines": sum(
                    len(v) for v in remote_by_proc.values()
                ),
                "by_pair": by_pair,
                "per_consumer": per_consumer,
            },
            "digest": digest,
        }
