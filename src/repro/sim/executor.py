"""Execute a partitioned loop nest on the simulated machine.

:func:`simulate_nest` is the measurement instrument of the repository:
given a nest and a tile shape, it runs the program on the MSI machine and
reports the quantities the paper's framework *predicts* —

* per-processor cache misses (→ cumulative footprint, Section 3.3),
* elements shared between processors (→ the spread dilation terms),
* and, with ``sweeps > 1`` (the Figure 9 ``Doseq`` regime), steady-state
  coherence misses and invalidations.

Determinism: processors execute their iterations in lexicographic order
and are interleaved round-robin one iteration at a time (``interleave=
'roundrobin'``, default) or run to completion one after another
(``'sequential'``).  Both orders give identical miss counts for the
read/write-disjoint programs of the paper; they differ (and the
round-robin order is the fairer model) when tiles write-share data, e.g.
the matmul sync accumulates of Appendix A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.loopnest import LoopNest
from ..core.tiles import ParallelepipedTile, Tiling
from ..exceptions import SimulationError
from ..obs.log import get_logger
from ..obs.tracing import span
from .fast import collect_footprints, execute_fast, fast_path_blockers, injective_arrays
from .machine import Machine, MachineConfig
from .memory import AddressMap
from .trace import deal_tiles, reference_streams, split_streams

__all__ = ["ProcessorStats", "SimulationResult", "simulate_nest"]

logger = get_logger("sim.executor")


@dataclass(frozen=True)
class ProcessorStats:
    """Per-processor outcome of a simulation."""

    processor: int
    iterations: int
    accesses: int
    hits: int
    misses: int
    read_misses: int
    write_misses: int
    write_upgrades: int
    local_misses: int
    remote_misses: int
    memory_cost: int
    footprint: dict[str, int]

    @property
    def total_footprint(self) -> int:
        return sum(self.footprint.values())


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate outcome of :func:`simulate_nest`."""

    processors: tuple[ProcessorStats, ...]
    sweeps: int
    cold_misses: int
    coherence_misses: int
    capacity_misses: int
    invalidations: int
    network_messages: int
    network_hops: int
    shared_elements: dict[str, int]
    machine: Machine | None = field(repr=False, compare=False, default=None)
    # Engine bookkeeping (``compare=False``: the two engines are
    # bit-identical on every *counter*, and parity tests compare results
    # across engines with ``==``).
    engine: str = field(compare=False, default="exact")
    engine_fallback: str | None = field(compare=False, default=None)

    @property
    def total_misses(self) -> int:
        return sum(p.misses for p in self.processors)

    @property
    def total_accesses(self) -> int:
        return sum(p.accesses for p in self.processors)

    @property
    def miss_rate(self) -> float:
        acc = self.total_accesses
        return self.total_misses / acc if acc else 0.0

    @property
    def max_misses_per_processor(self) -> int:
        return max((p.misses for p in self.processors), default=0)

    def mean_misses_per_processor(self) -> float:
        active = [p for p in self.processors if p.iterations]
        return sum(p.misses for p in active) / len(active) if active else 0.0

    def mean_footprint(self, array: str | None = None) -> float:
        active = [p for p in self.processors if p.iterations]
        if not active:
            return 0.0
        if array is None:
            return sum(p.total_footprint for p in active) / len(active)
        return sum(p.footprint.get(array, 0) for p in active) / len(active)


def collect_result(
    machine: Machine,
    iterations,
    footprints,
    shared: dict[str, int],
    *,
    sweeps: int,
    engine: str = "exact",
    engine_fallback: str | None = None,
) -> SimulationResult:
    """Read ``machine``'s counters into a :class:`SimulationResult`.

    ``iterations`` and ``footprints`` are per processor; the simulator
    and the dataflow executor both finish through here.
    """
    per_proc = []
    for p, its in enumerate(iterations):
        st = machine.caches[p].stats
        per_proc.append(
            ProcessorStats(
                processor=p,
                iterations=its,
                accesses=st.accesses,
                hits=st.hits,
                misses=st.misses,
                read_misses=st.read_misses,
                write_misses=st.write_misses,
                write_upgrades=st.write_upgrades,
                local_misses=machine.local_miss_count[p],
                remote_misses=machine.remote_miss_count[p],
                memory_cost=machine.memory_cost[p],
                footprint=footprints[p],
            )
        )
    d = machine.directory.stats
    return SimulationResult(
        processors=tuple(per_proc),
        sweeps=sweeps,
        cold_misses=d.cold_fills,
        coherence_misses=d.coherence_misses,
        capacity_misses=d.capacity_misses,
        invalidations=d.invalidations,
        network_messages=machine.network.messages,
        network_hops=machine.network.hops,
        shared_elements=shared,
        machine=machine,
        engine=engine,
        engine_fallback=engine_fallback,
    )


def _execute_exact(
    streams,
    machine: Machine,
    processors: int,
    *,
    sweeps: int,
    interleave: str,
    check_invariants: bool,
) -> None:
    """Drive every access through the scalar MSI protocol."""
    # (array, kind, per-iteration coordinate tuples) per reference per proc.
    refs = {
        p: [(s.array, s.kind, [tuple(row) for row in s.coords.tolist()]) for s in st]
        for p, st in streams.items()
    }
    counts = {p: (int(st[0].coords.shape[0]) if st else 0) for p, st in streams.items()}
    access = machine.access
    for _sweep in range(sweeps):
        if interleave == "sequential":
            for p in range(processors):
                for n in range(counts[p]):
                    for array, kind, coords in refs[p]:
                        access(p, array, coords[n], kind)
        else:
            longest = max(counts.values(), default=0)
            for step in range(longest):
                for p in range(processors):
                    if step < counts[p]:
                        for array, kind, coords in refs[p]:
                            access(p, array, coords[step], kind)
        if check_invariants:
            machine.check()


def simulate_nest(
    nest: LoopNest,
    tile: ParallelepipedTile,
    processors: int,
    *,
    sweeps: int = 1,
    cache_capacity: int | None = None,
    address_map: AddressMap | None = None,
    interleave: str = "roundrobin",
    machine: Machine | None = None,
    check_invariants: bool = False,
    line_size: int = 1,
    cache_enabled: bool = True,
    observer=None,
    engine: str = "auto",
) -> SimulationResult:
    """Run ``sweeps`` executions of the nest under the given partition.

    ``sweeps > 1`` models the enclosing ``Doseq`` of Figure 9 (data stays
    cached between sweeps; traffic after the first sweep is pure
    coherence).  If the nest itself carries ``sequential_loops``, their
    total trip count is used when ``sweeps`` is left at 1.

    ``observer`` (``(proc, array, coords, kind, hit) -> None``) sees every
    access — e.g. a :class:`repro.obs.export.EventTraceWriter`.

    ``engine`` selects the execution strategy: ``'exact'`` drives every
    access through the scalar MSI protocol; ``'fast'`` resolves
    provably-private and read-only lines in bulk and the write-shared
    residue per line (:mod:`repro.sim.fast`) — identical results, an
    order of magnitude faster; ``'auto'`` (default) uses the fast
    engine whenever its preconditions hold (fresh infinite-cache
    coherent machine, no observer) and falls back to exact otherwise.

    ``check_invariants=True`` runs the protocol invariant checks after
    every sweep on the exact engine, and once after the last sweep on
    the fast engine (which has no per-sweep state to check).
    """
    if engine not in ("auto", "fast", "exact"):
        raise SimulationError(f"unknown engine {engine!r}")
    if sweeps == 1 and nest.has_sequential_wrapper:
        sweeps = 1
        for l in nest.sequential_loops:
            sweeps *= l.trip_count
    if sweeps < 1:
        raise SimulationError(f"sweeps must be >= 1, got {sweeps}")
    if interleave not in ("roundrobin", "sequential"):
        raise SimulationError(f"unknown interleave {interleave!r}")

    if machine is None:
        machine = Machine(
            MachineConfig(
                processors=processors,
                cache_capacity=cache_capacity,
                line_size=line_size,
                cache_enabled=cache_enabled,
            ),
            address_map=address_map,
        )
    elif machine.p != processors:
        raise SimulationError("machine size does not match processor count")
    if observer is not None:
        machine.observer = observer

    with span("sim.trace", processors=processors):
        deal = deal_tiles(Tiling(nest.space, tile), processors)
        # One map per reference over every processor's rows.
        streams = reference_streams(nest, deal.iterations)

        # Footprints and sharing measured from the streams themselves.
        injective = injective_arrays(nest)
        footprints, shared = collect_footprints(
            [(streams, deal.offsets)], processors, injective=injective
        )

    blockers = fast_path_blockers(machine, observer)
    if engine == "fast" and blockers:
        raise SimulationError(
            "engine='fast' requires a fresh machine with coherent caching "
            "enabled, unbounded capacity, and no observer "
            f"(blocked by: {'; '.join(blockers)}); use engine='auto' "
            "to fall back to the exact engine instead"
        )
    use_fast = engine in ("fast", "auto") and not blockers
    fallback_reason: str | None = None
    if engine == "auto" and blockers:
        fallback_reason = "; ".join(blockers)
        logger.warning(
            "engine='auto' fell back to the exact engine: %s", fallback_reason
        )
        fallbacks = machine.engine_fallbacks
        for reason in blockers:
            fallbacks[reason] = fallbacks.get(reason, 0) + 1

    logger.debug(
        "simulating %d iterations on P=%d (%d sweeps, %s interleave, %s engine)",
        deal.iterations.shape[0],
        processors,
        sweeps,
        interleave,
        "fast" if use_fast else "exact",
    )
    with span("sim.execute", sweeps=sweeps, interleave=interleave):
        if use_fast:
            execute_fast(
                streams,
                deal.offsets,
                machine,
                injective=injective,
                sweeps=sweeps,
                interleave=interleave,
                check_invariants=check_invariants,
            )
        else:
            _execute_exact(
                split_streams(streams, deal.offsets),
                machine,
                processors,
                sweeps=sweeps,
                interleave=interleave,
                check_invariants=check_invariants,
            )

    with span("sim.collect"):
        return collect_result(
            machine,
            deal.counts(),
            footprints,
            shared,
            sweeps=sweeps,
            engine="fast" if use_fast else "exact",
            engine_fallback=fallback_reason,
        )
