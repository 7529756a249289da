"""Lock-contention regression tests for the shared mutable state that
``repro serve`` exercises from many threads at once: the metrics
registry's instruments and the analytic caches.

Before the locks, ``Counter.inc`` / ``LatencyHistogram.observe`` were bare
read-modify-writes and the cache tables were unguarded dicts; under
contention they silently lost updates.  These tests hammer each from
many threads and assert the *exact* final counts.
"""

from __future__ import annotations

import threading

from repro.lattice.points import FootprintTable, LatticeCountCache
from repro.obs.metrics import MetricsRegistry

THREADS = 8
ITERS = 2_000


def _hammer(fn) -> None:
    """Run ``fn(thread_index)`` from THREADS threads through a barrier."""
    barrier = threading.Barrier(THREADS)
    errors: list[BaseException] = []

    def run(tid: int) -> None:
        try:
            barrier.wait()
            fn(tid)
        except BaseException as e:  # pragma: no cover - only on regression
            errors.append(e)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


def test_counter_concurrent_inc_exact():
    reg = MetricsRegistry("t")
    c = reg.counter("t.requests")

    def work(tid):
        for _ in range(ITERS):
            c.inc()
        for _ in range(ITERS):
            c.inc(2)

    _hammer(work)
    assert c.value == THREADS * ITERS * 3


def test_histogram_concurrent_observe_exact():
    reg = MetricsRegistry("t")
    h = reg.latency_histogram("t.latency")

    def work(tid):
        for i in range(ITERS):
            h.observe(i % 7)
            h.observe(3)

    _hammer(work)
    assert h.count == THREADS * ITERS * 2
    per_thread = sum(i % 7 for i in range(ITERS)) + 3 * ITERS
    assert h.total == THREADS * per_thread
    d = h.to_dict()
    assert d["count"] == h.count and d["sum"] == h.total
    assert d["buckets"][-1]["count"] == h.count


def test_registry_get_or_create_race_returns_one_instrument():
    reg = MetricsRegistry("t")
    seen = []
    lock = threading.Lock()

    def work(tid):
        for i in range(200):
            c = reg.counter("t.shared", shard=i % 5)
            c.inc()
            with lock:
                seen.append(id(c) if i % 5 == 0 else None)

    _hammer(work)
    # All threads racing on the same (name, labels) got the same object.
    ids = {s for s in seen if s is not None}
    assert len(ids) == 1
    assert reg.total("t.shared") == THREADS * 200


def test_footprint_table_concurrent_lookup():
    table = FootprintTable()
    keys = [((1, 2), (k, 5)) for k in range(1, 9)]

    def work(tid):
        for i in range(400):
            coeffs, extents = keys[(tid + i) % len(keys)]
            assert table.lookup(coeffs, extents) == table.lookup(coeffs, extents)

    _hammer(work)
    calls = THREADS * 400 * 2
    # No event is lost: every lookup counted exactly once.  (Concurrent
    # first-misses may both compute, so misses >= unique keys, but the
    # hit/miss tallies still sum to the call count.)
    assert table.hits + table.misses == calls
    assert table.misses >= len(keys)
    assert len(table) == len(keys)


def test_lattice_cache_concurrent_get_or_compute():
    cache = LatticeCountCache()

    def work(tid):
        for i in range(300):
            key = ("t", i % 10)
            assert cache.get_or_compute(key, lambda i=i: (i % 10) * 11) == (i % 10) * 11
        cache.count_distinct_images([[1, 0], [0, 1]], [4, 4])
        cache.parallelepiped_lattice_points([[2, 0], [0, 3]])

    _hammer(work)
    calls = THREADS * (300 + 2)
    assert cache.hits + cache.misses == calls
    fresh = LatticeCountCache()
    assert cache.count_distinct_images([[1, 0], [0, 1]], [4, 4]) == 25
    assert cache.parallelepiped_lattice_points(
        [[2, 0], [0, 3]]
    ) == fresh.parallelepiped_lattice_points([[2, 0], [0, 3]])
