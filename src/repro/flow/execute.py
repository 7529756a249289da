"""Replay a scheduled dataflow program on the MSI machine.

All statements execute through **one shared machine** in program order:
the producer's writes leave lines modified in its processors' caches, so
the consumer's first touches are coherence-visible remote fetches — the
handoff the communication schedule predicts.  Per-phase counter
snapshots expose each statement's share of the traffic.

Only the exact engine is used (the fast engine requires a fresh machine
per nest, which would erase the handoff).

:func:`measure_transfers` recomputes the schedule's headline quantity —
distinct lines each processor reads in a consumer statement that were
written earlier by *other* processors — from the per-processor access
streams actually issued to the machine, walking them event by event.
It shares no aggregation logic with :mod:`repro.flow.schedule` (which
works per tile, from footprint images), so agreement between the two is
a genuine differential check (the ``repro check`` parity oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.tiles import Tiling
from ..obs.tracing import span
from ..sim.executor import SimulationResult, _execute_exact, collect_result
from ..sim.fast import collect_footprints
from ..sim.machine import Machine, MachineConfig
from ..sim.trace import deal_tiles, reference_streams, split_streams
from .copartition import FlowPartition
from .graph import DataflowGraph

__all__ = ["PhaseStats", "FlowSimulation", "simulate_flow", "measure_transfers"]


@dataclass(frozen=True)
class PhaseStats:
    """Counter deltas of one statement's execution in one round."""

    statement: str
    round: int
    accesses: int
    misses: int
    cold_misses: int
    coherence_misses: int
    invalidations: int
    network_messages: int


@dataclass(frozen=True)
class FlowSimulation:
    """Outcome of :func:`simulate_flow`."""

    result: SimulationResult
    phases: tuple[PhaseStats, ...]
    transfers: dict  # measured inter-statement transfer counts


def _machine_totals(machine: Machine) -> dict[str, int]:
    d = machine.directory.stats
    return {
        "accesses": sum(c.stats.accesses for c in machine.caches),
        "misses": sum(c.stats.misses for c in machine.caches),
        "cold": d.cold_fills,
        "coherence": d.coherence_misses,
        "invalidations": d.invalidations,
        "messages": machine.network.messages,
    }


def _line_key(array: str, row, line_size: int):
    if line_size > 1:
        # Python's // floors for negatives, matching np.floor_divide.
        return (array, tuple(row[:-1]) + (row[-1] // line_size,))
    return (array, tuple(row))


def measure_transfers(
    graph: DataflowGraph,
    streams: dict[str, dict[int, list]],
    processors: int,
    line_size: int,
    *,
    collect_lines: bool = False,
) -> dict:
    """Inter-statement transfer counts from the issued access streams.

    Walks statements in program order: a line a processor reads counts
    as a transfer when some earlier statement wrote it and that
    processor was not among its writers.  Counts are distinct lines per
    (consumer statement, processor) — a processor re-reading a line it
    already fetched (or fetching it for a second tile) moves it once.

    ``collect_lines=True`` additionally returns the concrete line keys
    per (consumer statement, processor) under ``"lines"`` — the measured
    side of the ``repro check`` conservation oracle.
    """
    names = [s.name for s in graph.statements]
    line_writers: dict = {}  # line -> set of procs
    line_last_stmt: dict = {}  # line -> statement order
    per_consumer: dict[str, dict[str, int]] = {}
    by_pair: dict[str, int] = {}
    lines_out: dict[str, dict[str, list]] = {}
    total = 0
    for stmt in graph.statements:
        st = streams[stmt.name]
        for p in range(processors):
            remote: set = set()
            for s in st[p]:
                if s.is_write_like:
                    continue
                for row in s.coords.tolist():
                    ln = _line_key(s.array, row, line_size)
                    if ln in line_last_stmt and p not in line_writers[ln]:
                        remote.add(ln)
            if remote:
                per_consumer.setdefault(stmt.name, {})[str(p)] = len(remote)
                total += len(remote)
                for ln in remote:
                    pair = f"{names[line_last_stmt[ln]]}->{stmt.name}:{ln[0]}"
                    by_pair[pair] = by_pair.get(pair, 0) + 1
                if collect_lines:
                    lines_out.setdefault(stmt.name, {})[str(p)] = sorted(
                        [a, list(c)] for a, c in remote
                    )
        for p in range(processors):
            for s in st[p]:
                if not s.is_write_like:
                    continue
                for row in s.coords.tolist():
                    ln = _line_key(s.array, row, line_size)
                    line_last_stmt[ln] = stmt.order
                    line_writers.setdefault(ln, set()).add(p)
    out = {
        "remote_lines": total,
        "per_consumer": per_consumer,
        "by_pair": by_pair,
    }
    if collect_lines:
        out["lines"] = lines_out
    return out


def simulate_flow(
    graph: DataflowGraph,
    partition: FlowPartition,
    *,
    processors: int,
    line_size: int = 1,
    sweeps: int = 1,
    interleave: str = "roundrobin",
    check_invariants: bool = False,
    collect_lines: bool = False,
) -> FlowSimulation:
    """Execute the partitioned program end-to-end on one shared machine.

    ``sweeps`` repeats the whole statement sequence; a statement carrying
    its own ``Doseq`` wrapper additionally repeats in every round where
    its wrapper still has trips left (round ``r`` runs statement ``k``
    iff ``r < sweeps * stmt.sweeps``), preserving the
    S1, S2, S1, S2, ... interleaving of a shared outer ``Doseq``.
    """
    parts = partition.by_name()
    with span("flow.trace", statements=len(graph.statements)):
        # Per statement: its whole-dealing streams and their row offsets,
        # the per-processor slices the machine replays, and iterations
        # per processor.
        stmt_batches: dict[str, tuple] = {}
        stmt_streams: dict[str, dict[int, list]] = {}
        stmt_counts: dict[str, list[int]] = {}
        for stmt in graph.statements:
            sp = parts[stmt.name]
            deal = deal_tiles(Tiling(stmt.nest.space, sp.result.tile), processors)
            batch = reference_streams(stmt.nest, deal.iterations)
            stmt_batches[stmt.name] = (batch, deal.offsets)
            stmt_streams[stmt.name] = split_streams(batch, deal.offsets)
            stmt_counts[stmt.name] = deal.counts()

    machine = Machine(
        MachineConfig(processors=processors, line_size=line_size)
    )

    rounds = sweeps * max((s.sweeps for s in graph.statements), default=1)
    phases: list[PhaseStats] = []
    with span("flow.execute", rounds=rounds):
        for r in range(rounds):
            for stmt in graph.statements:
                if r >= sweeps * stmt.sweeps:
                    continue
                before = _machine_totals(machine)
                _execute_exact(
                    stmt_streams[stmt.name],
                    machine,
                    processors,
                    sweeps=1,
                    interleave=interleave,
                    check_invariants=check_invariants,
                )
                after = _machine_totals(machine)
                phases.append(
                    PhaseStats(
                        statement=stmt.name,
                        round=r,
                        accesses=after["accesses"] - before["accesses"],
                        misses=after["misses"] - before["misses"],
                        cold_misses=after["cold"] - before["cold"],
                        coherence_misses=after["coherence"] - before["coherence"],
                        invalidations=after["invalidations"]
                        - before["invalidations"],
                        network_messages=after["messages"] - before["messages"],
                    )
                )

    with span("flow.collect"):
        footprints, shared = collect_footprints(
            [stmt_batches[s.name] for s in graph.statements], processors
        )

        result = collect_result(
            machine,
            [
                sum(
                    stmt_counts[s.name][p] * min(rounds, sweeps * s.sweeps)
                    for s in graph.statements
                )
                for p in range(processors)
            ],
            footprints,
            shared,
            sweeps=rounds,
        )

        transfers = measure_transfers(
            graph, stmt_streams, processors, line_size,
            collect_lines=collect_lines,
        )
    return FlowSimulation(
        result=result, phases=tuple(phases), transfers=transfers
    )
