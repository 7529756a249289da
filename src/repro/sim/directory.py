"""Full-map directory MSI protocol.

Each memory address has a directory entry at its home node recording the
sharer set and (exclusive) owner.  The directory serialises protocol
actions; the machine calls :meth:`Directory.read` / :meth:`Directory.write`
which mutate the caches and return the messages exchanged so the network
layer can price them.

Message accounting (unit-size messages, one per protocol hop):

=====================  =======================================================
event                  messages
=====================  =======================================================
read, clean            requester→home, home→requester (data)
read, dirty remote     requester→home, home→owner, owner→requester (data),
                       owner→home (writeback/sharer update)
write, no sharers      requester→home, home→requester (data/ack)
write, with sharers    + home→sharer and sharer→home ack per sharer
upgrade                requester→home, home→requester + invalidation pairs
=====================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import SimulationError
from .cache import Cache, LineState

__all__ = ["Directory", "CoherenceStats", "DirectoryEntry"]


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one address."""

    sharers: set[int] = field(default_factory=set)
    owner: int | None = None


@dataclass(slots=True)
class _BulkRecord:
    """One deferred bulk install: ``coords`` is the ``(N, d)`` line array;
    a read-only record carries its ``(P, N)`` toucher matrix ``touch``, a
    private one each line's sole toucher ``owner`` (``(N,)``) and whether
    its lines end ``modified``."""

    array: str
    coords: np.ndarray
    touch: np.ndarray | None
    owner: np.ndarray | None = None
    modified: bool = False


@dataclass(slots=True)
class CoherenceStats:
    """Machine-wide protocol event counts, as plain ints.

    The directory increments them; the run report's ``measured``
    section reads them.
    """

    cold_fills: int = 0        # first-ever fetch of an address
    coherence_misses: int = 0  # miss on a previously-invalidated line
    capacity_misses: int = 0   # miss on a line lost to LRU eviction
    invalidations: int = 0     # individual invalidation messages
    downgrades: int = 0        # M -> S interventions
    writebacks: int = 0        # dirty data returned to home


@dataclass(slots=True)
class _Bins:
    """Exact distribution of a small integer quantity: value → count."""

    bins: dict[int, int] = field(default_factory=dict)

    def observe(self, value: int, n: int = 1) -> None:
        if n:  # a bin holds at least one observation
            self.bins[value] = self.bins.get(value, 0) + n


def _column_sets(mask) -> list[set[int]]:
    """The set of row indices of each column of a ``(P, N)`` mask."""
    sets: list[set[int]] = [set() for _ in range(mask.shape[1])]
    for p, row in enumerate(mask):
        for i in np.flatnonzero(row).tolist():
            sets[i].add(p)
    return sets


class Directory:
    """The directory controller shared by all home nodes.

    The home *node* of an address matters only for network pricing; the
    protocol state is global here (one entry per address), which is
    equivalent to per-node directories since addresses have unique homes.
    """

    def __init__(self, caches: list[Cache]):
        self.caches = caches
        self.entries: dict = {}
        self.stats = CoherenceStats()
        # Sharer count seen by each serviced write (how many other copies
        # the protocol had to take down) — the coherence-cost distribution.
        self.sharers_at_write = _Bins()
        # Per-processor cause tracking: addr -> set of procs whose copy was
        # invalidated (to classify the next miss as a coherence miss).
        self._invalidated_at: dict = {}
        self._evicted_at: dict = {}
        self._ever_filled: set = set()
        # Analytic lines the fast engine resolved in bulk, kept as arrays
        # until a per-line view needs them (see :meth:`materialize`).
        self._deferred: list[_BulkRecord] = []
        # ``(kind, proc)`` → misses of that cause (cold, coherence,
        # replacement); a key exists once counted, even by zero.
        self.miss_classes: dict[tuple[str, int], int] = {}
        for c in caches:
            c._directory = self

    def _count_miss_class(self, kind: str, proc: int, n: int = 1) -> None:
        key = (kind, proc)
        self.miss_classes[key] = self.miss_classes.get(key, 0) + n

    def _entry(self, addr) -> DirectoryEntry:
        e = self.entries.get(addr)
        if e is None:
            e = DirectoryEntry()
            self.entries[addr] = e
        return e

    def _classify_miss(self, addr, proc: int) -> None:
        inv = self._invalidated_at.get(addr)
        if inv and proc in inv:
            self.stats.coherence_misses += 1
            self._count_miss_class("coherence", proc)
            inv.discard(proc)
            return
        ev = self._evicted_at.get(addr)
        if ev and proc in ev:
            self.stats.capacity_misses += 1
            self._count_miss_class("replacement", proc)
            ev.discard(proc)
            return
        # Not invalidation- or eviction-caused, so this is the requester's
        # first fetch of the address: a per-processor cold miss.  The
        # machine-wide ``cold_fills`` keeps its original meaning (first
        # fetch by *anyone*), so the per-processor cold counts may sum to
        # more than it when several processors each first-touch an address.
        self._count_miss_class("cold", proc)
        if addr not in self._ever_filled:
            self.stats.cold_fills += 1

    def note_eviction(self, addr, proc: int) -> None:
        """Cache informs directory of an LRU eviction (silent drop of S,
        writeback of M)."""
        e = self._entry(addr)
        if e.owner == proc:
            e.owner = None
            self.stats.writebacks += 1
        e.sharers.discard(proc)
        self._evicted_at.setdefault(addr, set()).add(proc)

    # ------------------------------------------------------------------
    def read(self, addr, proc: int) -> list[tuple[int, int]]:
        """Service a read miss by processor ``proc``.

        Returns the protocol messages as (src_node, dst_node) pairs, with
        the home node encoded as ``-1`` (the machine substitutes the real
        home for pricing).
        """
        e = self._entry(addr)
        self._classify_miss(addr, proc)
        msgs = [(proc, -1)]
        if e.owner is not None and e.owner != proc:
            owner = e.owner
            # Home forwards to owner; owner sends data to requester and
            # updates home.
            msgs += [(-1, owner), (owner, proc), (owner, -1)]
            if not self.caches[owner].downgrade(addr):
                raise SimulationError(
                    f"directory says {owner} owns {addr!r} but cache disagrees"
                )
            self.stats.downgrades += 1
            self.stats.writebacks += 1
            e.sharers.add(owner)
            e.owner = None
        else:
            msgs.append((-1, proc))
        e.sharers.add(proc)
        self._fill(addr, proc, LineState.SHARED)
        return msgs

    def write(self, addr, proc: int, *, upgrade: bool) -> list[tuple[int, int]]:
        """Service a write miss or S→M upgrade by ``proc``."""
        e = self._entry(addr)
        if not upgrade:
            self._classify_miss(addr, proc)
        # How many other copies this write must take down (sharers plus a
        # remote owner) — observed before the protocol acts.
        holders = len(e.sharers - {proc})
        if e.owner is not None and e.owner != proc and e.owner not in e.sharers:
            holders += 1
        self.sharers_at_write.observe(holders)
        msgs = [(proc, -1)]
        if e.owner is not None and e.owner != proc:
            owner = e.owner
            msgs += [(-1, owner), (owner, proc)]
            if not self.caches[owner].invalidate(addr):
                raise SimulationError(
                    f"directory says {owner} owns {addr!r} but cache disagrees"
                )
            self._invalidated_at.setdefault(addr, set()).add(owner)
            self.stats.invalidations += 1
            self.stats.writebacks += 1
            e.owner = None
            e.sharers.discard(owner)
        # Invalidate all other sharers.
        for sharer in sorted(e.sharers - {proc}):
            msgs += [(-1, sharer), (sharer, -1)]
            self.caches[sharer].invalidate(addr)
            self._invalidated_at.setdefault(addr, set()).add(sharer)
            self.stats.invalidations += 1
        msgs.append((-1, proc))
        e.sharers = {proc}
        e.owner = proc
        self._fill(addr, proc, LineState.MODIFIED)
        return msgs

    def _fill(self, addr, proc: int, state: LineState) -> None:
        for victim in self.caches[proc].fill(addr, state):
            self.note_eviction(victim, proc)
        self._ever_filled.add(addr)

    def bulk_install(
        self, array: str, line_coords, owner, *, modified: bool
    ) -> None:
        """Record lines proven private to one processor each (fast engine).

        ``line_coords`` is an ``(N, d)`` integer array of line
        coordinates and ``owner[i]`` the sole toucher of line ``i``.
        ``modified=True`` means every line ends in M at its owner (the
        state the exact protocol ends in after the line's last write — a
        written analytic line is by construction private to one
        processor), ``False`` in S with the owner the sole sharer.
        Nothing per line is built here: the arrays are appended to the
        deferred store, which :meth:`sharer_histogram` counts directly
        and :meth:`materialize` turns into directory entries, cached
        lines and fill history on the first per-line query.  Event
        counters are *not* touched — the caller accounts misses,
        upgrades and messages in bulk.
        """
        if any(c.capacity is not None for c in self.caches):
            raise SimulationError("bulk install requires an unbounded cache")
        if len(line_coords):
            self._deferred.append(
                _BulkRecord(array, line_coords, None, owner, modified)
            )

    def bulk_install_shared(self, array: str, line_coords, touch) -> None:
        """Record globally read-only lines at every toucher (fast engine).

        ``touch`` is a ``(P, N)`` boolean matrix: ``touch[p, i]`` marks
        processor ``p`` as having read line ``i``.  Every touched copy
        ends in S; the directory entry holds the full sharer set, no
        owner — the state the exact protocol reaches for a never-written
        line regardless of access order.  Deferred like
        :meth:`bulk_install`: the record keeps ``line_coords`` and
        ``touch`` as they are.  Counters are the caller's job.
        """
        if any(c.capacity is not None for c in self.caches):
            raise SimulationError("bulk install requires an unbounded cache")
        if len(line_coords):
            self._deferred.append(_BulkRecord(array, line_coords, touch))

    def materialize(self) -> None:
        """Build the per-line state of every deferred bulk record.

        Installs each record's lines in the toucher caches, the directory
        entries and the fill history — exactly what the scalar protocol
        leaves behind — then empties the store.  Runs on the first use of
        any per-line view (:meth:`Cache.state`, ``in``, ``len``,
        :meth:`check_invariants`, :meth:`Machine.access`).  The fast
        engine itself never needs it: it installs its write-shared
        residue lines directly (:meth:`install_lines`), and those are
        disjoint from the deferred ones.
        """
        records, self._deferred = self._deferred, []
        entries = self.entries
        for rec in records:
            addrs = [(rec.array, tuple(row)) for row in rec.coords.tolist()]
            if rec.touch is None:
                state = LineState.MODIFIED if rec.modified else LineState.SHARED
                owners = rec.owner.tolist()
                lines = [c._lines for c in self.caches]
                for a, p in zip(addrs, owners):
                    lines[p][a] = state
                entries.update(
                    (a, DirectoryEntry(sharers={p}, owner=p if rec.modified else None))
                    for a, p in zip(addrs, owners)
                )
                self._ever_filled.update(addrs)
            else:
                self.install_lines(addrs, rec.touch)

    def install_lines(self, addrs: list, holders, owners=None, invalidated=None) -> None:
        """Install resolved per-line end state (fast engine).

        ``holders`` is a ``(P, N)`` boolean matrix: ``holders[p, i]``
        marks processor ``p`` as holding line ``addrs[i]``.  ``owners[i]``
        is the processor holding line ``i`` in M (then its only holder),
        or -1 for S at every holder; ``None`` means all S.
        ``invalidated`` (``(P, N)``, optional) marks the copies taken
        down and not re-fetched since, so their next miss classifies as
        a coherence miss.  Every line joins the fill history.  Counters
        are the caller's job.
        """
        owned = (
            np.full(len(addrs), -1, dtype=np.int64) if owners is None else owners
        )
        for p, cache in enumerate(self.caches):
            sel = np.flatnonzero(holders[p])
            if sel.size:
                states = np.where(owned[sel] == p, LineState.MODIFIED, LineState.SHARED)
                cache._lines.update(
                    zip((addrs[i] for i in sel.tolist()), states.tolist())
                )
        entries = self.entries
        for addr, sharers, o in zip(addrs, _column_sets(holders), owned.tolist()):
            entries[addr] = DirectoryEntry(
                sharers=sharers, owner=None if o < 0 else o
            )
        if invalidated is not None:
            lost = np.flatnonzero(invalidated.any(axis=0))
            self._invalidated_at.update(
                zip((addrs[i] for i in lost.tolist()), _column_sets(invalidated[:, lost]))
            )
        self._ever_filled.update(addrs)

    def is_empty(self) -> bool:
        """No line state at all: no entries, deferred records, fill
        history or cached lines (a fresh machine)."""
        return not (
            self.entries
            or self._deferred
            or self._ever_filled
            or any(c._lines for c in self.caches)
        )

    def clear(self) -> None:
        """Drop all line state, deferred records included; keep counters."""
        for c in self.caches:
            c.flush()
        self.entries.clear()
        self._deferred.clear()
        self._invalidated_at.clear()
        self._evicted_at.clear()
        self._ever_filled.clear()

    # ------------------------------------------------------------------
    def sharer_histogram(self) -> dict[int, int]:
        """Map ``k`` → number of addresses currently cached by ``k`` procs.

        Deferred bulk records are counted from their arrays without being
        materialised: a private line has one holder, a read-only line as
        many as its toucher column has set bits.
        """
        hist: dict[int, int] = {}
        for e in self.entries.values():
            k = len(e.sharers) + (1 if e.owner is not None and e.owner not in e.sharers else 0)
            hist[k] = hist.get(k, 0) + 1
        for rec in self._deferred:
            if rec.touch is None:
                hist[1] = hist.get(1, 0) + len(rec.coords)
                continue
            for k, n in enumerate(np.bincount(rec.touch.sum(axis=0)).tolist()):
                if n:
                    hist[k] = hist.get(k, 0) + n
        return hist

    def check_invariants(self) -> None:
        """Protocol sanity: an owned line has exactly one cached M copy and
        no other copies; sharer sets match the caches."""
        if self._deferred:
            self.materialize()
        for addr, e in self.entries.items():
            holders = [
                p for p, c in enumerate(self.caches) if c.state(addr) is not None
            ]
            m_holders = [
                p for p in holders if self.caches[p].state(addr) is LineState.MODIFIED
            ]
            if e.owner is not None:
                if m_holders != [e.owner] or set(holders) != {e.owner}:
                    raise SimulationError(
                        f"invariant violation at {addr!r}: owner={e.owner}, "
                        f"holders={holders}, M={m_holders}"
                    )
            else:
                if m_holders:
                    raise SimulationError(
                        f"invariant violation at {addr!r}: no owner but M copies {m_holders}"
                    )
                if set(holders) != e.sharers:
                    raise SimulationError(
                        f"invariant violation at {addr!r}: sharers {e.sharers} "
                        f"vs holders {holders}"
                    )
