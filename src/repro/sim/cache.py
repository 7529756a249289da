"""Per-processor coherent caches.

The analytical model assumes caches big enough for a tile's whole
footprint (Section 2.2), so the default capacity is unbounded; a finite
LRU mode is provided for the "when caches are small" remark (the optimal
aspect ratios do not change, only the effective tile size does — a claim
the test suite checks).

Lines are unit-sized (one array element per line, Section 2.2): an
address is any hashable, in practice ``(array_name, flat_index)``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
import enum

__all__ = ["LineState", "Cache", "CacheStats"]


class LineState(enum.Enum):
    """MSI stable states (I is represented by absence)."""

    SHARED = "S"
    MODIFIED = "M"


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counts for one cache, as plain ints.

    The cache increments them; the run report's ``measured`` section
    reads them per processor.
    """

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    write_upgrades: int = 0
    evictions: int = 0
    invalidations_received: int = 0
    probe_invalidations: int = 0

    @property
    def accesses(self) -> int:
        return (
            self.read_hits
            + self.read_misses
            + self.write_hits
            + self.write_misses
            + self.write_upgrades
        )

    @property
    def misses(self) -> int:
        """All memory-visible events: misses plus S→M upgrades."""
        return self.read_misses + self.write_misses + self.write_upgrades

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits


class Cache:
    """One processor's cache: address → :class:`LineState`, optional LRU.

    The cache itself is protocol-passive; the :class:`~repro.sim.directory.
    Directory` drives state changes.  Methods return what happened so the
    machine can account traffic.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # LRU recency bookkeeping only matters when evictions can happen;
        # unbounded caches use a plain dict (faster lookups and updates).
        self._lines: dict = OrderedDict() if capacity is not None else {}
        self.stats = CacheStats()
        # The directory driving this cache (set by it); its deferred bulk
        # lines are materialised before any per-line query below.
        self._directory = None

    def _materialize(self) -> None:
        d = self._directory
        if d is not None and d._deferred:
            d.materialize()

    def __len__(self) -> int:
        self._materialize()
        return len(self._lines)

    def __contains__(self, addr) -> bool:
        self._materialize()
        return addr in self._lines

    def state(self, addr) -> LineState | None:
        self._materialize()
        return self._lines.get(addr)

    def _touch(self, addr) -> None:
        if self.capacity is not None:
            self._lines.move_to_end(addr)

    def lookup_read(self, addr) -> bool:
        """Probe for a read; returns hit and updates stats/LRU."""
        st = self._lines.get(addr)
        if st is None:
            self.stats.read_misses += 1
            return False
        self.stats.read_hits += 1
        self._touch(addr)
        return True

    def lookup_write(self, addr) -> str:
        """Probe for a write: ``'hit'`` (M), ``'upgrade'`` (S), ``'miss'``."""
        st = self._lines.get(addr)
        if st is LineState.MODIFIED:
            self.stats.write_hits += 1
            self._touch(addr)
            return "hit"
        if st is LineState.SHARED:
            self.stats.write_upgrades += 1
            self._touch(addr)
            return "upgrade"
        self.stats.write_misses += 1
        return "miss"

    def fill(self, addr, state: LineState) -> list:
        """Install a line; returns addresses evicted to make room."""
        evicted = []
        if addr not in self._lines and self.capacity is not None:
            while len(self._lines) >= self.capacity:
                victim, _ = self._lines.popitem(last=False)
                self.stats.evictions += 1
                evicted.append(victim)
        self._lines[addr] = state
        self._touch(addr)
        return evicted

    def set_state(self, addr, state: LineState) -> None:
        if addr not in self._lines:
            raise KeyError(f"{addr!r} not cached")
        self._lines[addr] = state

    def invalidate(self, addr) -> bool:
        """Drop a line at directory request; True if it was present.

        A probe for a line already lost to LRU eviction counts under
        ``probe_invalidations``, so directory-sent invalidation messages
        always reconcile: sent == received + probe misses.  No simulation
        sends such a probe (the directory drops an evicting cache from the
        sharer set); the counter stays as that check's slack term, so a
        directory that stopped doing so would show instead of going unseen.
        """
        if addr in self._lines:
            del self._lines[addr]
            self.stats.invalidations_received += 1
            return True
        self.stats.probe_invalidations += 1
        return False

    def downgrade(self, addr) -> bool:
        """M → S at directory request (another reader); True if downgraded."""
        if self._lines.get(addr) is LineState.MODIFIED:
            self._lines[addr] = LineState.SHARED
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (used between independent simulations)."""
        self._lines.clear()
