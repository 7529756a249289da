"""Concurrent-writer stress tests for the analytic-cache persistence.

Two processes calling :func:`repro.lattice.persist.save_caches` into the
same directory used to race: both read the same on-disk snapshot, merged
their own (disjoint) entries, and the last ``os.replace`` silently
dropped the first writer's keys.  The lockfile serialises the
read-merge-write, so the union must always survive.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.lattice import persist
from repro.lattice.points import FootprintTable, LatticeCountCache


def _synthetic_entries(writer: int, count: int) -> list[tuple[tuple, int]]:
    """Disjoint-by-writer synthetic (key, value) pairs."""
    return [((("w", writer, i), 1), writer * 10_000 + i) for i in range(count)]


def _writer_proc(cache_dir: str, writer: int, count: int, barrier) -> None:
    table = FootprintTable()
    table.absorb_entries(_synthetic_entries(writer, count))
    empty = LatticeCountCache()
    barrier.wait()  # maximise overlap of the two read-merge-writes
    for _ in range(5):
        persist.save_caches(
            cache_dir,
            footprint_table=table,
            lattice_cache=empty,
        )


def test_two_writer_union_survives(tmp_path):
    count = 200
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_writer_proc, args=(str(tmp_path), w, count, barrier))
        for w in (1, 2)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0

    merged = FootprintTable()
    loaded = persist.load_caches(
        str(tmp_path),
        footprint_table=merged,
        lattice_cache=LatticeCountCache(),
    )
    assert loaded == 2 * count
    on_disk = dict(merged.export_entries())
    for writer in (1, 2):
        for key, value in _synthetic_entries(writer, count):
            assert on_disk[key] == value
    # The lockfile is released afterwards.
    assert not (tmp_path / persist.LOCK_FILENAME).exists()


def _exchange_writer(cache_dir: str, writer: int, cycles: int, per_cycle: int, barrier) -> None:
    """Replica-style loop: absorb fresh local entries, then exchange."""
    table = FootprintTable()
    barrier.wait()
    for cycle in range(cycles):
        start = cycle * per_cycle
        table.absorb_entries(
            [((("w", writer, i), 1), writer * 10_000 + i) for i in range(start, start + per_cycle)]
        )
        persist.exchange_caches(
            cache_dir,
            footprint_table=table,
            lattice_cache=LatticeCountCache(),
        )


def test_three_writer_exchange_cycles_converge_to_union(tmp_path):
    """3 replicas × repeated snapshot/absorb cycles: nothing is ever lost.

    Each exchange is a read-merge-write under the lockfile, so the disk
    file grows monotonically; after every writer finishes, the file must
    hold the exact union of everything any writer ever published.
    """
    writers, cycles, per_cycle = (1, 2, 3), 4, 50
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(len(writers))
    procs = [
        ctx.Process(
            target=_exchange_writer, args=(str(tmp_path), w, cycles, per_cycle, barrier)
        )
        for w in writers
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0

    merged = FootprintTable()
    loaded = persist.load_caches(
        str(tmp_path),
        footprint_table=merged,
        lattice_cache=LatticeCountCache(),
    )
    assert loaded == len(writers) * cycles * per_cycle
    on_disk = dict(merged.export_entries())
    for writer in writers:
        for i in range(cycles * per_cycle):
            assert on_disk[(("w", writer, i), 1)] == writer * 10_000 + i
    assert not (tmp_path / persist.LOCK_FILENAME).exists()


def _lock_holder(cache_dir: str, flag: str) -> None:
    lock = persist._CacheLock(Path(cache_dir))
    lock.__enter__()
    Path(flag).write_text("held")
    time.sleep(300)  # parent SIGKILLs us long before this elapses


def test_sigkill_mid_lock_does_not_wedge_writers(tmp_path, monkeypatch):
    """A writer killed while holding the lock must not block forever.

    SIGKILL skips ``__exit__``, so the lockfile *is* left behind — the
    guarantee is that the next writer breaks it once it crosses the
    staleness horizon and completes its save, leaving no lock after.
    """
    ctx = multiprocessing.get_context()
    flag = tmp_path / "held.flag"
    holder = ctx.Process(target=_lock_holder, args=(str(tmp_path), str(flag)))
    holder.start()
    try:
        deadline = time.monotonic() + 30
        while not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert flag.exists(), "lock holder never signalled acquisition"
        os.kill(holder.pid, signal.SIGKILL)
        holder.join(timeout=30)
    finally:
        if holder.is_alive():  # pragma: no cover - cleanup on assert failure
            holder.kill()
            holder.join()
    lock = tmp_path / persist.LOCK_FILENAME
    assert lock.exists()  # orphaned by the kill

    monkeypatch.setattr(persist, "LOCK_STALE_S", 0.5)
    time.sleep(0.7)  # let the orphan cross the staleness horizon
    t = FootprintTable()
    t.absorb_entries(_synthetic_entries(9, 5))
    written = persist.save_caches(
        str(tmp_path),
        footprint_table=t,
        lattice_cache=LatticeCountCache(),
    )
    assert written == 5
    assert not lock.exists()


def test_save_merges_with_existing_file(tmp_path):
    a = FootprintTable()
    a.absorb_entries(_synthetic_entries(1, 10))
    persist.save_caches(
        str(tmp_path),
        footprint_table=a,
        lattice_cache=LatticeCountCache(),
    )
    b = FootprintTable()
    b.absorb_entries(_synthetic_entries(2, 10))
    written = persist.save_caches(
        str(tmp_path),
        footprint_table=b,
        lattice_cache=LatticeCountCache(),
    )
    assert written == 20


def test_stale_lock_is_broken(tmp_path, monkeypatch):
    lock = tmp_path / persist.LOCK_FILENAME
    lock.write_text("99999")
    stale = time.time() - persist.LOCK_STALE_S - 5
    os.utime(lock, (stale, stale))
    t = FootprintTable()
    t.absorb_entries(_synthetic_entries(3, 3))
    written = persist.save_caches(
        str(tmp_path),
        footprint_table=t,
        lattice_cache=LatticeCountCache(),
    )
    assert written == 3
    assert not lock.exists()


def test_fresh_lock_times_out(tmp_path):
    (tmp_path / persist.LOCK_FILENAME).write_text("99999")
    t = FootprintTable()
    t.absorb_entries(_synthetic_entries(4, 1))
    with pytest.raises(TimeoutError, match="held by another writer"):
        with persist._CacheLock(tmp_path, timeout_s=0.3):
            pass
    # save_caches surfaces the same failure instead of corrupting.
    started = time.monotonic()
    with pytest.raises(TimeoutError):
        orig = persist.LOCK_TIMEOUT_S
        try:
            persist.LOCK_TIMEOUT_S = 0.3
            persist.save_caches(
                str(tmp_path), footprint_table=t, lattice_cache=LatticeCountCache()
            )
        finally:
            persist.LOCK_TIMEOUT_S = orig
    assert time.monotonic() - started < 5
