"""One memo store for the analytic caches.

Section 3.8's "table lookup" for exact 1-D footprints and the memoised
lattice counts are the same mechanism: a table keyed on a canonical
form whose values never change for a key.  :class:`MemoTable` is that
table.  It alone owns the dict, its lock and the
``hits``/``misses``/``loads`` counters, as plain ints.
:class:`~repro.lattice.points.FootprintTable` and
:class:`~repro.lattice.points.LatticeCountCache` subclass it and add
only their own canonical keys and compute-on-miss.

:func:`default_caches` is the one list of process-default caches: each
under its persisted section name, its :func:`analytic_cache_stats` key
and its metrics label.  Persistence (:mod:`repro.lattice.persist`), the
serve worker ship-back, the ``repro check`` pool merge, the stats
snapshot and :func:`publish_cache_metrics` (which names
``analytic.cache.{hits,misses,loads}{cache=…}`` when the service's
registry is read) all loop over it.  A pool worker ships what it learnt
with a :class:`CacheShipper` (the entries it computed and its counter
deltas since the last ship), and the parent merges that with
:func:`absorb_shipment`.
"""

from __future__ import annotations

import threading

__all__ = [
    "MemoTable",
    "default_caches",
    "analytic_cache_stats",
    "publish_cache_metrics",
    "CacheShipper",
    "absorb_shipment",
]


class MemoTable:
    """Lock-protected ``key → value`` memo with hit/miss/load counters.

    Mutations happen under the lock, so concurrent threads (the ``repro serve`` parent
    absorbs worker entries while handling requests) cannot corrupt the
    table or lose counter updates.  A miss computes *outside* the lock:
    at worst two threads redundantly compute the same deterministic
    value.  Values must never be ``None`` (the absence marker).
    """

    def __init__(self):
        self._table: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.loads = 0

    @staticmethod
    def value_ok(value) -> bool:
        """Whether ``value`` (a count: a number) may enter the table
        from a file or a worker."""
        return not isinstance(value, bool) and isinstance(value, (int, float))

    def get_or_compute(self, key, compute):
        """Cached value for ``key``, calling ``compute()`` on a miss."""
        with self._lock:
            cached = self._table.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        value = compute()
        with self._lock:
            self._table[key] = value
        return value

    # -- entries: persistence and worker ship-back -----------------------
    def export_entries(self) -> list:
        """``(key, value)`` pairs in a stable order: sorted by ``repr(key)``.

        Keys are unique, so their reprs alone fix the order; values are
        never formatted.
        """
        with self._lock:
            items = list(self._table.items())
        return sorted(items, key=lambda kv: repr(kv[0]))

    def entries_except(self, known) -> list:
        """``(key, value)`` pairs whose key is not in ``known``, unordered.

        What a worker ships after each batch: unlike
        :meth:`export_entries` it neither sorts nor formats the table.
        """
        with self._lock:
            return [(k, v) for k, v in self._table.items() if k not in known]

    def absorb_entries(self, entries) -> int:
        """Merge persisted or shipped entries; returns how many keys were new.

        Values failing :meth:`value_ok` (a corrupt cache file) are
        skipped: the next query for that key simply recomputes.
        """
        added = 0
        with self._lock:
            for key, value in entries:
                if key not in self._table and self.value_ok(value):
                    self._table[key] = value
                    added += 1
            self.loads += added
        return added

    # -- counters: worker ship-back --------------------------------------
    def export_stats(self) -> dict:
        """Counter snapshot; :class:`CacheShipper` ships differences of two."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses}

    def absorb_stats(self, delta: dict) -> None:
        """Add a worker's counter delta."""
        with self._lock:
            self.hits += int(delta.get("hits", 0))
            self.misses += int(delta.get("misses", 0))

    def stats(self) -> dict:
        """JSON-ready counter summary (run reports, ``/metrics``)."""
        with self._lock:
            return {
                "entries": len(self._table),
                "hits": self.hits,
                "misses": self.misses,
                "loads": self.loads,
            }

    def clear(self) -> None:
        """Drop every entry; the counters keep running."""
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        return len(self._table)


def default_caches() -> dict[str, tuple[str, str, MemoTable]]:
    """Persisted section name → ``(stats key, metrics label, cache)`` of
    each default cache.

    The order is the order of sections on disk and of keys in
    :func:`analytic_cache_stats`.
    """
    from .points import DEFAULT_FOOTPRINT_TABLE, DEFAULT_LATTICE_CACHE

    return {
        "footprint_table": ("footprint_table", "footprint_table", DEFAULT_FOOTPRINT_TABLE),
        "lattice_cache": ("lattice_cache", "lattice", DEFAULT_LATTICE_CACHE),
    }


def analytic_cache_stats() -> dict:
    """Hit/miss/load/entry counts of the process-default analytic caches.

    The dict is JSON-ready and lands in run reports (``caches`` section)
    and on the server's ``/metrics``.
    """
    return {key: cache.stats() for key, _, cache in default_caches().values()}


def publish_cache_metrics(registry) -> None:
    """Set the default caches' counters in ``registry`` from their ints.

    The one place that names ``analytic.cache.{hits,misses,loads}``,
    each labelled ``cache=<metrics label>``.  Call it right before
    reading ``registry``: a later cache event is not seen.
    """
    rows = []
    for _, label, cache in default_caches().values():
        stats, labels = cache.stats(), (("cache", label),)
        rows += [
            (f"analytic.cache.{name}", labels, stats[name])
            for name in ("hits", "misses", "loads")
        ]
    registry.publish(rows)


def _delta(now: dict, base: dict) -> dict:
    """``now − base`` per counter, zeros dropped."""
    return {
        name: value - base.get(name, 0)
        for name, value in now.items()
        if value != base.get(name, 0)
    }


class CacheShipper:
    """What a pool worker's default caches learnt since its last ship.

    Built when the worker starts, it treats the entries and counts held
    then as already known to the parent (a forked worker inherits them,
    a spawned one loads them from the same cache directory).  Each
    :meth:`take` returns, per section, the entries added since the
    previous take and the counter deltas accrued since; the parent merges
    that with :func:`absorb_shipment`.
    """

    def __init__(self):
        self._shipped: dict[str, set] = {name: set() for name in default_caches()}
        self._base: dict[str, dict] = {name: {} for name in default_caches()}
        self.take()  # what the worker holds now, the parent has

    def take(self) -> dict[str, dict]:
        out = {}
        for section, (_, _, cache) in default_caches().items():
            shipped = self._shipped[section]
            fresh = cache.entries_except(shipped)
            shipped.update(k for k, _ in fresh)
            now = cache.export_stats()
            out[section] = {"entries": fresh, "stats": _delta(now, self._base[section])}
            self._base[section] = now
        return out


def absorb_shipment(shipment: dict[str, dict]) -> None:
    """Merge a worker's :meth:`CacheShipper.take` into the default caches."""
    caches = default_caches()
    for section, part in shipment.items():
        _, _, cache = caches[section]
        cache.absorb_entries(part["entries"])
        cache.absorb_stats(part["stats"])
