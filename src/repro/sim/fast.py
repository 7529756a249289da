"""Batched fast-path execution engine for :func:`repro.sim.simulate_nest`.

The exact engine drives every array-element access through the scalar
MSI protocol (:meth:`repro.sim.machine.Machine.access`) — faithful, but
one Python call per access.  This engine exploits the structure the
paper's analysis rests on: under the infinite-cache assumption a
coherence line touched by a *single* processor has exactly one possible
protocol history, independent of interleaving —

* first access read  → one read miss, line fills S; a later write adds
  one S→M upgrade; everything else hits;
* first access write → one write miss, line fills M; everything else
  hits;
* sweeps beyond the first are pure hits (nothing ever invalidates the
  line).

A *globally read-only* line is just as deterministic, however many
processors share it: each toucher pays one cold read miss and then hits;
nothing ever invalidates anything.  So the engine takes every
processor's access streams as one batch of numpy address arrays — the
whole dealing mapped once per reference
(:func:`repro.sim.trace.reference_streams`), processor ``p``'s rows at
``offsets[p]:offsets[p + 1]`` — and does its work once per array, never
once per processor:

* one sort per array orders its accesses by (line, processor, program
  order); the run heads give each (processor, line) pair's first
  access and each line's toucher count, which classify lines into
  *analytically resolvable* (private to one processor, or never
  written) vs *write-shared* — with an analytic shortcut from the
  lattice layer (a single-reference class whose ``G`` has trivial
  integer kernel maps iterations to elements injectively, Lemma 1 / the
  Theorem 3 intersection machinery with no nonzero solution, so every
  line is private by construction and needs no sort at all);
* the analytic lines' first-touch deltas are booked for all processors
  at once: one ``bincount`` over processors per counter, one home
  lookup per array, and one priced (processor × home) fetch matrix
  (:meth:`~repro.sim.machine.Machine.account_bulk_misses`);
* their end state is recorded as arrays in the directory's deferred
  store (:meth:`~repro.sim.directory.Directory.bulk_install` with an
  owner per line, :meth:`~repro.sim.directory.Directory.bulk_install_shared`
  with a toucher matrix) — one record of each kind per array, no
  per-line objects;
* the write-shared residue is resolved per line (:func:`_resolve_lines`):
  under the infinite-cache model a line's MSI history depends only on
  the ordered (processor, read/write) events on that line, so the
  residue's events are sorted by (line, the exact engine's global issue
  order), split at each write into epochs, and every event's protocol
  case — hit, read miss, owner-forwarded read, write miss, upgrade, and
  the holders each write takes down — follows from group-bys.  Every
  counter is a commutative total, booked with one bulk add; messages
  are priced as one node × node matrix
  (:meth:`~repro.sim.network.MeshNetwork.send_bulk`).

Analytic accesses never touch a residue line's cache or directory state
(and unbounded caches have no capacity coupling), so splitting them off
leaves the residue lines' protocol histories — and therefore every
counter — bit-identical to the exact engine.  The engine never calls
the per-access protocol.  The residue lines' end state (M at the owner
or S at the last epoch's holders, plus their invalidation and fill
history) is installed directly
(:meth:`~repro.sim.directory.Directory.install_lines`); the analytic
lines stay arrays for the whole run: the sharer histogram is counted
from the records, and their per-line caches and directory entries are
built by :meth:`~repro.sim.directory.Directory.materialize` only when
something asks for them (a cache query, an invariant check, a later
:meth:`~repro.sim.machine.Machine.access`).  The differential-parity
suites (``tests/test_sim_parity.py``, ``tests/test_sim_residue.py``,
``tests/test_sim_dealing.py``) assert exactly that over all of the
paper's programs and at up to 64 processors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .._util import row_codes, run_heads, sort_by_key
from ..core.classify import partition_references
from ..core.loopnest import LoopNest
from ..obs.log import get_logger
from .machine import Machine
from .trace import RefStream

__all__ = [
    "fast_path_blockers",
    "supports_fast_path",
    "execute_fast",
    "collect_footprints",
    "injective_arrays",
]

logger = get_logger("sim.fast")


def fast_path_blockers(machine: Machine, observer=None) -> list[str]:
    """Why the batched engine cannot run on ``machine`` (empty = it can).

    Each entry is a human-readable reason; :func:`simulate_nest` surfaces
    them in the engine-fallback warning, ``machine.engine_fallbacks`` and
    the run report when ``engine='auto'`` has to use the exact engine.
    """
    cfg = machine.config
    blockers: list[str] = []
    if observer is not None or machine.observer is not None:
        blockers.append("per-access observer attached")
    if not cfg.cache_enabled:
        blockers.append("caching disabled")
    if cfg.cache_capacity is not None:
        blockers.append(f"finite cache capacity ({cfg.cache_capacity} lines)")
    if not machine.directory.is_empty():
        blockers.append("machine not fresh (pre-existing cache/directory state)")
    return blockers


def supports_fast_path(machine: Machine, observer=None) -> bool:
    """Can the batched engine reproduce the exact engine on ``machine``?

    Requires the paper's infinite-cache coherent configuration (the
    private-line argument above needs "no evictions" and "no uncached
    mode") and a *fresh* machine — pre-cached lines would make first
    accesses hit.  Per-access observers see events the bulk path never
    materialises, so they force the exact engine too.
    """
    return not fast_path_blockers(machine, observer)


# ----------------------------------------------------------------------
# Vectorised primitives


def _line_coords(coords: np.ndarray, line_size: int) -> np.ndarray:
    """Element → coherence-unit coordinates (last dim // line_size)."""
    if line_size == 1:
        return coords
    lc = coords.copy()
    lc[:, -1] = np.floor_divide(lc[:, -1], line_size)
    return lc


def _per_processor(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum a per-row quantity over each processor's rows (``offsets``
    delimit the processor-major row blocks, empty ones included)."""
    total = np.zeros(values.shape[0] + 1, dtype=np.int64)
    np.cumsum(values, out=total[1:])
    return total[offsets[1:]] - total[offsets[:-1]]


def injective_arrays(nest: LoopNest) -> set[str]:
    """Arrays whose every element is touched by exactly one iteration.

    A single-member reference class whose ``G`` has a trivial integer
    kernel is one-to-one (Lemma 1): each element is touched by exactly
    one iteration, and iterations are partitioned disjointly over
    processors — equivalently, the Theorem 3 intersection test admits no
    nonzero iteration-difference, so no element is ever shared.  A
    processor's footprint of such an array is its stream length; with
    unit lines every line is private *and touched exactly once*, so the
    engine's per-line bookkeeping (uniquing, ownership counting,
    first-touch grouping) collapses too.
    """
    by_array: dict[str, list] = {}
    for s in partition_references(nest.accesses):
        by_array.setdefault(s.array, []).append(s)
    return {
        array
        for array, classes in by_array.items()
        if len(classes) == 1 and classes[0].size == 1 and classes[0].kernel.shape[0] == 0
    }


# ----------------------------------------------------------------------
# The engine


class _BulkLines(NamedTuple):
    """One array's analytic ``(processor, line)`` pairs, all processors.

    Per pair: the toucher ``procs``, the ``lines`` coordinates, whether
    its first access is a read (``first_read``) and whether it is a read
    later written (``upgrade``, one S→M upgrade — a second protocol
    event).  Per processor: ``reads``/``writes``, its accesses to these
    lines.  ``written``: pairs with any write (one sharers-at-write
    observation each).
    """

    array: str
    procs: np.ndarray
    lines: np.ndarray
    first_read: np.ndarray
    upgrade: np.ndarray
    reads: np.ndarray
    writes: np.ndarray
    written: int


def _book_bulk(machine: Machine, bulk: _BulkLines, sweeps: int) -> None:
    """Apply one array's analytic first-touch deltas, every processor at
    once: one ``bincount`` per counter, one home lookup, one priced
    ``(processor × home)`` fetch matrix."""
    p_count = machine.p
    n_lines = np.bincount(bulk.procs, minlength=p_count).tolist()
    first_read = np.bincount(bulk.procs[bulk.first_read], minlength=p_count).tolist()
    upgrades = np.bincount(bulk.procs[bulk.upgrade], minlength=p_count).tolist()
    reads, writes = bulk.reads.tolist(), bulk.writes.tolist()
    directory = machine.directory
    for p, n in enumerate(n_lines):
        if not n:
            continue
        first_write = n - first_read[p]
        st = machine.caches[p].stats
        st.read_misses += first_read[p]
        st.write_misses += first_write
        st.write_upgrades += upgrades[p]
        st.read_hits += reads[p] * sweeps - first_read[p]
        st.write_hits += writes[p] * sweeps - first_write - upgrades[p]
        directory._count_miss_class("cold", p, n)
    directory.sharers_at_write.observe(0, bulk.written)
    homes = machine.address_map.homes_vector(bulk.array, bulk.lines)
    nodes = max(p_count, int(homes.max()) + 1)
    pair = bulk.procs * nodes + homes
    fetches = np.bincount(pair, minlength=p_count * nodes) + np.bincount(
        pair[bulk.upgrade], minlength=p_count * nodes
    )
    machine.account_bulk_misses(fetches.reshape(p_count, nodes))


def execute_fast(
    streams: list[RefStream],
    offsets: np.ndarray,
    machine: Machine,
    *,
    injective,
    sweeps: int,
    interleave: str,
    check_invariants: bool = False,
) -> None:
    """Run the batched engine; mutates ``machine`` exactly as the scalar
    loop would (see module docstring for the argument why).

    ``streams`` cover every processor's iterations, laid out processor-
    major: processor ``p``'s rows are ``offsets[p]:offsets[p + 1]``
    (a :class:`~repro.sim.trace.Dealing`'s layout).  ``injective`` names
    the nest's :func:`injective_arrays`.
    """
    processors = machine.p
    line_size = machine.config.line_size
    offsets = np.asarray(offsets, dtype=np.int64)
    n_rows = int(offsets[-1])
    owner = np.repeat(np.arange(processors, dtype=np.int64), np.diff(offsets))
    arrays = sorted({s.array for s in streams}) if n_rows else []
    analytic = injective if line_size == 1 else set()
    directory = machine.directory

    # Analytic arrays are booked as the loop meets them, the other
    # arrays' bulk lines after it (the order the miss classes first
    # appear in).  The write-shared residue is one ``(iteration rows,
    # references, residue line ids)`` part per array; residue line ids
    # are global across arrays, and ``res_arrays`` holds each array's
    # residue line coordinates in id order.
    deferred: list[_BulkLines] = []
    residue: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    res_arrays: list[tuple[str, np.ndarray]] = []
    n_res_lines = 0

    for array in arrays:
        refs = np.array([r for r, s in enumerate(streams) if s.array == array])
        wcols = np.array([streams[r].is_write_like for r in refs.tolist()])

        if array in analytic:
            # Touched-once-by-construction: no uniquing or grouping needed.
            coords = streams[refs[0]].coords
            wr = bool(wcols[0])
            counts = np.diff(offsets)
            none = np.zeros(processors, dtype=np.int64)
            directory.stats.cold_fills += n_rows
            _book_bulk(
                machine,
                _BulkLines(
                    array,
                    procs=owner,
                    lines=coords,
                    first_read=np.full(n_rows, not wr),
                    upgrade=np.zeros(n_rows, dtype=bool),
                    reads=none if wr else counts,
                    writes=counts if wr else none,
                    written=n_rows if wr else 0,
                ),
                sweeps,
            )
            directory.bulk_install(array, coords, owner, modified=wr)
            continue

        # Access ``a`` is iteration row ``a // k`` × the array's ``a % k``-th
        # reference: row-major order is each processor's program order.
        k = refs.shape[0]
        n_acc = n_rows * k
        lines = np.stack(
            [_line_coords(streams[r].coords, line_size) for r in refs.tolist()], axis=1
        ).reshape(n_acc, -1)
        write = np.tile(wcols, n_rows)
        codes, _ = row_codes(lines, processors * n_acc)
        # One sort orders every access by (line, processor, program
        # order): the head of each (line, processor) run is that pair's
        # first access, the head of each line run the line's first pair.
        acc, key = sort_by_key(codes * processors + np.repeat(owner, k))
        pair_head = run_heads(key)
        line_head = run_heads(key // processors)
        pair_first = acc[pair_head]
        pair_proc = key[pair_head] % processors
        pair_line = np.cumsum(line_head[pair_head]) - 1
        n_lines = int(pair_line[-1]) + 1
        uniq_lines = lines[acc[line_head]]
        acc_pair = np.empty(n_acc, dtype=np.int64)
        acc_pair[acc] = np.cumsum(pair_head) - 1
        pair_written = np.zeros(pair_first.shape[0], dtype=bool)
        pair_written[acc_pair[write]] = True
        ever_written = np.zeros(n_lines, dtype=bool)
        ever_written[pair_line[pair_written]] = True
        # A line is analytically resolvable when touched by a single
        # processor (any mix of reads/writes) or by nobody's writes.
        bulk = (np.bincount(pair_line, minlength=n_lines) == 1) | ~ever_written
        acc_line = pair_line[acc_pair]

        res_local = np.flatnonzero(~bulk)
        if res_local.size:
            res_id = np.full(n_lines, -1, dtype=np.int64)
            res_id[res_local] = np.arange(n_res_lines, n_res_lines + res_local.size)
            n_res_lines += res_local.size
            res_arrays.append((array, uniq_lines[res_local]))
            res_acc = np.flatnonzero(~bulk[acc_line])
            residue.append(
                (res_acc // k, refs[res_acc % k], res_id[acc_line[res_acc]])
            )

        # Bulk accesses per processor and kind, and the first-touch
        # digest of every bulk (processor, line) pair.
        pb = bulk[pair_line]
        if pb.any():
            in_bulk = bulk[acc_line].reshape(n_rows, k)
            first_write = write[pair_first[pb]]
            deferred.append(
                _BulkLines(
                    array,
                    procs=pair_proc[pb],
                    lines=uniq_lines[pair_line[pb]],
                    first_read=~first_write,
                    upgrade=~first_write & pair_written[pb],
                    reads=_per_processor(in_bulk[:, ~wcols].sum(axis=1), offsets),
                    writes=_per_processor(in_bulk[:, wcols].sum(axis=1), offsets),
                    written=int(pair_written[pb].sum()),
                )
            )

        # Machine-wide cold fills: one per bulk line, however many
        # processors each is shared by (first fetch by *anyone*).
        directory.stats.cold_fills += int(bulk.sum())

        # Record the analytic lines' end state.  A written bulk line is
        # private: its sole toucher ends with it in M (recorded in
        # (processor, line) order).  A read-only bulk line ends in S at
        # every toucher.
        priv = np.flatnonzero(pb & ever_written[pair_line])
        if priv.size:
            priv = priv[np.argsort(pair_proc[priv], kind="stable")]
            directory.bulk_install(
                array, uniq_lines[pair_line[priv]], pair_proc[priv], modified=True
            )
        ro = np.flatnonzero(~ever_written)
        if ro.size:
            column = np.full(n_lines, -1, dtype=np.int64)
            column[ro] = np.arange(ro.size)
            ro_pairs = ~ever_written[pair_line]
            touch = np.zeros((processors, ro.size), dtype=bool)
            touch[pair_proc[ro_pairs], column[pair_line[ro_pairs]]] = True
            directory.bulk_install_shared(array, uniq_lines[ro], touch)

    # ---- bulk phase: vectorised first-touch accounting ----------------
    for bulk_lines in deferred:
        _book_bulk(machine, bulk_lines, sweeps)

    # ---- write-shared residue: per-line protocol resolution -----------
    if residue:
        row, ref, line = (np.concatenate(part) for part in zip(*residue))
        line, proc, write = _residue_events(
            row, ref, line, owner, offsets,
            [s.is_write_like for s in streams],
            sweeps=sweeps, interleave=interleave,
        )
        res = _resolve_lines(line, proc, write, processors)
        homes = np.concatenate(
            [machine.address_map.homes_vector(a, c) for a, c in res_arrays]
        )
        _book_residue(machine, res, proc, write, homes[line])
        addrs = [
            (a, tuple(row)) for a, coords in res_arrays for row in coords.tolist()
        ]
        directory.install_lines(addrs, res.holders.T, res.final_owner, res.invalidated.T)
        logger.debug(
            "fast engine: %d residue events on %d lines resolved per line",
            line.shape[0],
            n_res_lines,
        )
    if check_invariants:
        machine.check()


# ----------------------------------------------------------------------
# Write-shared residue: per-line MSI resolution


def _residue_events(row, ref, line, owner, offsets, is_write, *, sweeps, interleave):
    """The residue's events in ``(line, global time)`` order.

    ``row`` is each access's iteration row in the processor-major
    layout, ``ref`` its reference, ``line`` its residue line id.  Global
    time is the exact engine's issue order: ``(iteration, proc, ref)``
    for round-robin, ``(proc, iteration, ref)`` — row order — for
    sequential, repeated ``sweeps`` times with the sweep as the major
    key.  Returns ``(line, proc, write)`` arrays, one entry per access.
    """
    proc = owner[row]
    write = np.asarray(is_write)[ref]
    n_refs = len(is_write)
    if interleave == "sequential":
        key = row * n_refs + ref
    else:  # roundrobin: one iteration per processor per step
        processors = offsets.shape[0] - 1
        key = ((row - offsets[proc]) * processors + proc) * n_refs + ref
    if sweeps > 1:
        period = int(key.max()) + 1
        key = (np.arange(sweeps)[:, None] * period + key).reshape(-1)
        line, proc, write = (np.tile(a, sweeps) for a in (line, proc, write))
    order = np.lexsort((key, line))
    return line[order], proc[order], write[order]


class _Resolution(NamedTuple):
    """Every residue event's protocol case, plus each line's end state.

    Per event (in ``(line, time)`` order): ``hit``; ``upgrade`` (an S→M
    write); ``first_touch`` (the processor's first access to the line,
    so a miss there is cold, any later miss a coherence miss);
    ``forward`` (a read miss the M owner serves); ``owner_m`` (a write
    that takes the line from an owner still in M); ``owner`` (the owner
    of a ``forward``/``owner_m`` event, else -1); ``taken`` (``(n, P)``:
    the holders a non-hit write takes down).  Per line: ``final_owner``
    (the M holder, or -1 for S), ``holders`` and ``invalidated``
    (``(lines, P)``: the last epoch's holders, and the processors that
    touched the line but no longer hold it — taken down and not
    re-fetched since).
    """

    hit: np.ndarray
    upgrade: np.ndarray
    first_touch: np.ndarray
    forward: np.ndarray
    owner_m: np.ndarray
    owner: np.ndarray
    taken: np.ndarray
    final_owner: np.ndarray
    holders: np.ndarray
    invalidated: np.ndarray


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each distinct key."""
    _, first = np.unique(keys, return_index=True)
    out = np.zeros(keys.shape[0], dtype=bool)
    out[first] = True
    return out


def _resolve_lines(line, proc, write, processors: int) -> _Resolution:
    """Resolve every residue line's MSI history without a protocol loop.

    Under the infinite-cache model a line's history depends only on its
    own ordered events.  An *epoch* starts at each write and at the
    line's first event; its *holders* are its distinct processors, and
    its writer still holds M iff the epoch starts with a write and no
    other processor joins it.  Then:

    * a read hits iff its processor already appeared in the epoch;
      otherwise it misses, and the epoch's first such miss after a
      write is forwarded by the M owner;
    * a write hits iff the previous epoch's owner is still M and is the
      writer, upgrades iff the writer is among the previous epoch's
      holders, and otherwise misses; a non-hit write takes down the
      previous epoch's holders other than the writer.
    """
    n = line.shape[0]
    line_start = np.r_[True, line[1:] != line[:-1]]
    epoch_start = line_start | write
    epoch = np.cumsum(epoch_start) - 1
    starts = np.flatnonzero(epoch_start)
    has_writer = write[starts]
    writer = np.where(has_writer, proc[starts], -1)
    present = np.zeros((starts.shape[0], processors), dtype=bool)
    present[epoch, proc] = True
    still_m = has_writer & (present.sum(axis=1) == 1)

    first_in_epoch = _first_occurrences(epoch * processors + proc)
    seen = np.cumsum(first_in_epoch)
    rank = seen - seen[starts][epoch]  # 0 for the epoch's first processor
    read = ~write
    hit = read & ~first_in_epoch
    forward = read & first_in_epoch & (rank == 1) & has_writer[epoch]

    # Writes after an earlier epoch of the same line act on its state.
    w = np.flatnonzero(write & ~line_start)
    prev = epoch[w] - 1
    hit[w] = still_m[prev] & (writer[prev] == proc[w])
    upgrade = np.zeros(n, dtype=bool)
    upgrade[w] = present[prev, proc[w]] & ~hit[w]
    owner_m = np.zeros(n, dtype=bool)
    owner_m[w] = still_m[prev] & ~hit[w]
    taken = np.zeros((n, processors), dtype=bool)
    taken[w] = present[prev]
    taken[w, proc[w]] = False
    owner = np.full(n, -1, dtype=np.int64)
    owner[forward] = writer[epoch[forward]]
    owner[w[owner_m[w]]] = writer[prev[owner_m[w]]]

    last_epoch = epoch[np.r_[np.flatnonzero(line_start)[1:], n] - 1]
    holders = present[last_epoch]
    touched = np.zeros_like(holders)
    touched[line, proc] = True
    return _Resolution(
        hit=hit,
        upgrade=upgrade,
        first_touch=_first_occurrences(line * processors + proc),
        forward=forward,
        owner_m=owner_m,
        owner=owner,
        taken=taken,
        final_owner=np.where(still_m[last_epoch], writer[last_epoch], -1),
        holders=holders,
        invalidated=touched & ~holders,
    )


def _book_residue(machine, res: _Resolution, proc, write, home) -> None:
    """Book the resolved residue's counters, one bulk add per counter.

    ``home`` is each event's home node.  Messages follow the protocol's
    shapes relative to the home ``H`` (requester ``R``, owner ``O``,
    taken-down holder ``s``): every directory request sends ``R→H``;
    a clean read or any write is answered ``H→R``; a forwarded read adds
    ``H→O, O→R, O→H`` instead of the answer; a write sends ``H→s`` to
    each holder it takes down, which acks ``s→H`` — except an owner
    still in M, which sends its data ``O→R``.  Pairs with ``src == dst``
    are local and free.
    """
    p_count = machine.p
    read = ~write
    read_miss = read & ~res.hit
    write_miss = write & ~res.hit & ~res.upgrade
    miss = read_miss | write_miss
    serviced = miss | res.upgrade

    def per_proc(mask):
        return np.bincount(proc[mask], minlength=p_count)

    per_cache = {
        "read_hits": per_proc(read & res.hit),
        "read_misses": per_proc(read_miss),
        "write_hits": per_proc(write & res.hit),
        "write_misses": per_proc(write_miss),
        "write_upgrades": per_proc(res.upgrade),
        "invalidations_received": res.taken.sum(axis=0),
    }
    for name, counts in per_cache.items():
        for p in np.flatnonzero(counts).tolist():
            st = machine.caches[p].stats
            setattr(st, name, getattr(st, name) + int(counts[p]))

    directory = machine.directory
    coherence = miss & ~res.first_touch
    for kind, mask in (("cold", miss & res.first_touch), ("coherence", coherence)):
        counts = per_proc(mask)
        for p in np.flatnonzero(counts).tolist():
            directory._count_miss_class(kind, p, int(counts[p]))
    stats = directory.stats
    n_forward = int(res.forward.sum())
    stats.cold_fills += res.holders.shape[0]
    stats.coherence_misses += int(coherence.sum())
    stats.invalidations += int(res.taken.sum())
    stats.downgrades += n_forward
    stats.writebacks += n_forward + int(res.owner_m.sum())
    holders = res.taken[write & ~res.hit].sum(axis=1)
    for value, count in enumerate(np.bincount(holders).tolist()):
        directory.sharers_at_write.observe(value, count)

    local = serviced & (home == proc)
    n_local = per_proc(local)
    n_remote = per_proc(serviced & ~local)
    cfg = machine.config
    for p in np.flatnonzero(n_local + n_remote).tolist():
        machine.local_miss_count[p] += int(n_local[p])
        machine.remote_miss_count[p] += int(n_remote[p])
        machine.memory_cost[p] += int(
            n_local[p] * cfg.local_cost + n_remote[p] * cfg.remote_cost
        )

    reply = (read_miss & ~res.forward) | (write & serviced)
    fwd, om = res.forward, res.owner_m
    tw, ts = np.nonzero(res.taken)
    ack = ~om[tw]
    src = np.concatenate([
        proc[serviced], home[reply], home[fwd], res.owner[fwd], res.owner[fwd],
        res.owner[om], home[tw], ts[ack],
    ])
    dst = np.concatenate([
        home[serviced], proc[reply], res.owner[fwd], proc[fwd], home[fwd],
        proc[om], ts, home[tw][ack],
    ])
    remote = src != dst
    nodes = max(p_count, int(home.max()) + 1)
    pairs = np.bincount(
        src[remote] * nodes + dst[remote], minlength=nodes * nodes
    ).reshape(nodes, nodes)
    machine.network.send_bulk(pairs)


# ----------------------------------------------------------------------
# Vectorised footprint / sharing measurement (both engines)


def collect_footprints(
    batches, processors: int, *, injective=frozenset()
) -> tuple[list[dict[str, int]], dict[str, int]]:
    """Per-processor element footprints and cross-processor sharing.

    ``batches`` is a sequence of ``(streams, offsets)`` pairs, each a
    list of :class:`~repro.sim.trace.RefStream` over every processor's
    rows laid out processor-major by ``offsets`` (a simulated nest is one
    batch, a dataflow program one per statement).  Replaces the exact
    engine's per-event ``set`` accumulation with one sort of (element,
    processor) keys per array; identical counts (element granularity,
    like the spread-dilation terms it validates).  An array in
    ``injective`` (:func:`injective_arrays`) with a single stream takes
    its counts from the stream's per-processor lengths and shares
    nothing.  Returns ``(footprints, shared)`` with
    ``footprints[p][array]`` the number of distinct elements ``p``
    touches and ``shared[array]`` the number of elements touched by more
    than one processor.
    """
    footprints: list[dict[str, int]] = [dict() for _ in range(processors)]
    shared: dict[str, int] = {}
    arrays = sorted({s.array for streams, _ in batches for s in streams})
    for array in arrays:
        parts = [
            (s.coords, offsets)
            for streams, offsets in batches
            for s in streams
            if s.array == array and s.coords.size
        ]
        if not parts:
            continue
        if array in injective and len(parts) == 1:
            per_proc = np.diff(parts[0][1])
            shared[array] = 0
        else:
            rows = np.vstack([c for c, _ in parts])
            procs = np.concatenate([
                np.repeat(np.arange(processors, dtype=np.int64), np.diff(o))
                for _, o in parts
            ])
            codes, _ = row_codes(rows, processors)
            # Distinct (element, processor) pairs, element-major: an
            # element is shared when it has two or more.
            pairs = np.sort(codes * processors + procs)
            pairs = pairs[run_heads(pairs)]
            per_proc = np.bincount(pairs % processors, minlength=processors)
            head = run_heads(pairs // processors)
            shared[array] = int(np.count_nonzero(head[:-1] & ~head[1:]))
        for p, n in enumerate(per_proc.tolist()):
            if n:
                footprints[p][array] = n
    return footprints, shared
