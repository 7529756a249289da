"""The simulated cache-coherent multiprocessor (Figure 2).

Composes caches, directory, address map and network into the system of
Section 2.2.  :meth:`Machine.access` is the single entry point: processor
``p`` touches ``(array, coords)`` with a read / write / sync access and
every protocol consequence (fills, invalidations, network messages) is
accounted.

Synchronizing accesses (Appendix A's ``l$`` accumulates) are "treated as
writes by the coherence system" — :meth:`access` maps ``sync`` to the
write path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import SimulationError
from .cache import Cache
from .directory import Directory
from .memory import AddressMap, flat_address_map
from .network import MeshNetwork

__all__ = ["Machine", "MachineConfig"]


@dataclass(frozen=True)
class MachineConfig:
    """Static machine parameters.

    ``cache_capacity=None`` models the paper's infinite-cache assumption.
    ``remote_cost`` / ``local_cost`` price a miss serviced by a remote vs
    local home (cache hits are free, matching the analysis's
    "cost of a main memory access is much higher than a cache access").

    ``line_size`` groups consecutive elements of each array's *last*
    dimension into one coherence unit ("The effect of larger cache lines
    can be included as suggested in [6]", Section 2.2); the default 1
    reproduces the paper's unit-line analysis.

    ``cache_enabled=False`` models the local-memory multicomputer of
    footnote 2 (data partitioning): no dynamic copying — every access
    goes to the element's home module and pays local or remote cost.
    """

    processors: int
    cache_capacity: int | None = None
    local_cost: int = 1
    remote_cost: int = 5
    mesh_shape: tuple[int, int] | None = None
    line_size: int = 1
    cache_enabled: bool = True

    def __post_init__(self):
        if self.line_size < 1:
            raise ValueError(f"line_size must be >= 1, got {self.line_size}")


class Machine:
    """A ``P``-processor cache-coherent shared-memory machine.

    Every count is a plain int owned by the component that increments
    it: ``caches[p].stats``, ``directory.stats`` and its miss classes,
    ``network.messages`` / ``hops``, and the per-processor lists below.
    Readers (the run report's ``measured`` section) read them there.
    """

    def __init__(
        self,
        config: MachineConfig | int,
        *,
        address_map: AddressMap | None = None,
    ):
        if isinstance(config, int):
            config = MachineConfig(processors=config)
        if config.processors < 1:
            raise SimulationError("need at least one processor")
        self.config = config
        self.p = config.processors
        self.caches = [Cache(config.cache_capacity) for _ in range(self.p)]
        self.directory = Directory(self.caches)
        self.address_map = address_map or flat_address_map(self.p)
        self.network = MeshNetwork(self.p, config.mesh_shape)
        self.local_miss_count = [0] * self.p
        self.remote_miss_count = [0] * self.p
        self.memory_cost = [0] * self.p
        # Why ``engine='auto'`` fell back to the exact engine: reason → runs.
        self.engine_fallbacks: dict[str, int] = {}
        # Optional per-access observer ``(proc, array, coords, kind, hit)``
        # — e.g. :class:`repro.obs.export.EventTraceWriter`.
        self.observer = None

    # ------------------------------------------------------------------
    def _account_messages(self, msgs, home: int) -> None:
        for src, dst in msgs:
            s = home if src == -1 else src
            d = home if dst == -1 else dst
            if s != d:
                self.network.send(s, d)

    def _account_miss(self, proc: int, home: int) -> None:
        if home == proc:
            self.local_miss_count[proc] += 1
            self.memory_cost[proc] += self.config.local_cost
        else:
            self.remote_miss_count[proc] += 1
            self.memory_cost[proc] += self.config.remote_cost

    def account_bulk_misses(self, fetches) -> None:
        """Vectorised miss + network accounting for the fast engine.

        ``fetches[p, h]`` is how many directory fetches processor ``p``
        made of lines homed at node ``h`` (one per line, plus one per
        S→M upgrade).  Each fetch prices exactly as one clean two-message
        round trip in :meth:`access` — the only protocol shape a private
        line can produce.
        """
        fetches = np.asarray(fetches, dtype=np.int64)
        diag = np.arange(self.p)
        n_local = fetches[diag, diag]
        n_remote = fetches.sum(axis=1) - n_local
        cfg = self.config
        for p in np.flatnonzero(n_local + n_remote).tolist():
            local, remote = int(n_local[p]), int(n_remote[p])
            self.local_miss_count[p] += local
            self.remote_miss_count[p] += remote
            self.memory_cost[p] += local * cfg.local_cost + remote * cfg.remote_cost
        remote_fetches = fetches.copy()
        remote_fetches[diag, diag] = 0
        self.network.send_bulk(2 * remote_fetches)

    def line_of(self, array: str, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Coherence-unit coordinates: last dimension divided by line size."""
        if self.config.line_size == 1:
            return coords
        ls = self.config.line_size
        return coords[:-1] + (coords[-1] // ls,)

    def access(self, proc: int, array: str, coords: tuple[int, ...], kind: str) -> bool:
        """One memory access; returns True on a cache hit.

        ``kind`` ∈ {'read', 'write', 'sync'}; sync behaves as write
        (Appendix A).  When an :attr:`observer` is attached it sees every
        access (element coordinates, pre line-grouping) after servicing.
        Deferred bulk lines are materialised first, so an access to one
        sees the state the scalar protocol would have left.
        """
        if self.directory._deferred:
            self.directory.materialize()
        if not 0 <= proc < self.p:
            raise SimulationError(f"no such processor {proc}")
        if kind not in ("read", "write", "sync"):
            raise SimulationError(f"unknown access kind {kind!r}")
        line = self.line_of(array, coords)
        if not self.config.cache_enabled:
            # Local-memory multicomputer (footnote 2): every access goes
            # to the home module; no replication, no coherence.
            st = self.caches[proc].stats
            if kind == "read":
                st.read_misses += 1
            else:
                st.write_misses += 1
            home = self.address_map.home(array, line)
            if home != proc:
                self.network.send(proc, home)
                self.network.send(home, proc)
            self._account_miss(proc, home)
            hit = False
        else:
            addr = (array, line)
            cache = self.caches[proc]
            if kind == "read":
                hit = cache.lookup_read(addr)
                if not hit:
                    msgs = self.directory.read(addr, proc)
            else:
                outcome = cache.lookup_write(addr)
                hit = outcome == "hit"
                if not hit:
                    msgs = self.directory.write(
                        addr, proc, upgrade=(outcome == "upgrade")
                    )
            if not hit:
                home = self.address_map.home(array, line)
                self._account_messages(msgs, home)
                self._account_miss(proc, home)
        if self.observer is not None:
            self.observer(proc, array, coords, kind, hit)
        return hit

    # ------------------------------------------------------------------
    @property
    def total_misses(self) -> int:
        return sum(c.stats.misses for c in self.caches)

    @property
    def total_accesses(self) -> int:
        return sum(c.stats.accesses for c in self.caches)

    def flush_caches(self) -> None:
        """Reset cache and directory content, keep counters."""
        self.directory.clear()

    def check(self) -> None:
        """Run protocol invariant checks (tests call this liberally)."""
        self.directory.check_invariants()

