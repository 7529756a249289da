"""One memo store for the analytic caches.

Section 3.8's "table lookup" for exact 1-D footprints and the memoised
lattice counts are the same mechanism: a table keyed on a canonical
form whose values never change for a key.  :class:`MemoTable` is that
table.  It alone owns the dict, its lock and the ``hits``/``misses``
counters, as plain ints.
:class:`~repro.lattice.points.FootprintTable` and
:class:`~repro.lattice.points.LatticeCountCache` subclass it and add
only their own canonical keys and compute-on-miss.

Entries live and die with the process that computed them.
:func:`default_caches` is the one list of process-default caches: each
under its :func:`analytic_cache_stats` key, with its metrics label.
The stats snapshot and :func:`publish_cache_metrics` (which names
``analytic.cache.{hits,misses}{cache=…}`` when the service's registry
is read) loop over it.
"""

from __future__ import annotations

import threading

__all__ = [
    "MemoTable",
    "default_caches",
    "analytic_cache_stats",
    "publish_cache_metrics",
]


class MemoTable:
    """Lock-protected ``key → value`` memo with hit/miss counters.

    Mutations happen under the lock, so concurrent threads cannot
    corrupt the table or lose counter updates.  A miss computes
    *outside* the lock: at worst two threads redundantly compute the
    same deterministic value.  Values must never be ``None`` (the
    absence marker).
    """

    def __init__(self):
        self._table: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

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

    def stats(self) -> dict:
        """JSON-ready counter summary (run reports, ``/metrics``)."""
        with self._lock:
            return {"entries": len(self._table), "hits": self.hits, "misses": self.misses}

    def clear(self) -> None:
        """Drop every entry; the counters keep running."""
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        return len(self._table)


def default_caches() -> dict[str, tuple[str, MemoTable]]:
    """Stats key → ``(metrics label, cache)`` of each default cache.

    The order is the order of keys in :func:`analytic_cache_stats`.
    """
    from .points import DEFAULT_FOOTPRINT_TABLE, DEFAULT_LATTICE_CACHE

    return {
        "footprint_table": ("footprint_table", DEFAULT_FOOTPRINT_TABLE),
        "lattice_cache": ("lattice", DEFAULT_LATTICE_CACHE),
    }


def analytic_cache_stats() -> dict:
    """Hit/miss/entry counts of this process's default analytic caches.

    The dict is JSON-ready and lands in run reports (``caches`` section);
    ``repro serve`` sums its workers' snapshots of it for ``/metrics``.
    """
    return {key: cache.stats() for key, (_, cache) in default_caches().items()}


def publish_cache_metrics(registry, stats: dict) -> None:
    """Set the default caches' counters in ``registry`` from ``stats``.

    The one place that names ``analytic.cache.{hits,misses}``, each
    labelled ``cache=<metrics label>``.  ``stats`` is shaped like
    :func:`analytic_cache_stats` (``repro serve`` passes its workers'
    sum; a missing key counts 0).  Call it right before reading
    ``registry``: a later cache event is not seen.
    """
    rows = []
    for key, (label, _) in default_caches().items():
        counts, labels = stats.get(key, {}), (("cache", label),)
        rows += [
            (f"analytic.cache.{name}", labels, counts.get(name, 0))
            for name in ("hits", "misses")
        ]
    registry.publish(rows)
