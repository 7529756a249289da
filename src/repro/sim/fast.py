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
nothing ever invalidates anything.  So the engine precomputes each
processor's access stream as numpy address arrays
(:func:`repro.sim.trace.reference_streams`), classifies lines into
*analytically resolvable* (private to one processor, or never written)
vs *write-shared* — with an analytic shortcut from the lattice layer (a
single-reference class whose ``G`` has trivial integer kernel maps
iterations to elements injectively, Lemma 1 / the Theorem 3 intersection
machinery with no nonzero solution, so every line is private by
construction) and an exact vectorised ownership count otherwise — then

* resolves all analytic lines in bulk with vectorised first-touch
  accounting,
* records their end state as arrays in the directory's deferred store
  (:meth:`~repro.sim.directory.Directory.bulk_install`,
  :meth:`~repro.sim.directory.Directory.bulk_install_shared`) — one
  record per (processor, array) or per read-only array, no per-line
  objects,
* resolves the write-shared residue per line (:func:`_resolve_lines`):
  under the infinite-cache model a line's MSI history depends only on
  the ordered (processor, read/write) events on that line, so the
  residue's events are sorted by (line, the exact engine's global issue
  order), split at each write into epochs, and every event's protocol
  case — hit, read miss, owner-forwarded read, write miss, upgrade, and
  the holders each write takes down — follows from group-bys.  Every
  counter is a commutative total, booked with one bulk add; messages
  are priced with the networks' ``send_bulk_vector`` rows.

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
suites (``tests/test_sim_parity.py``, ``tests/test_sim_residue.py``)
assert exactly that over all of the paper's programs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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
]

logger = get_logger("sim.fast")


def fast_path_blockers(machine: Machine, observer=None) -> list[str]:
    """Why the batched engine cannot run on ``machine`` (empty = it can).

    Each entry is a human-readable reason; :func:`simulate_nest` surfaces
    them in the engine-fallback warning, the metrics registry, and the
    run report when ``engine='auto'`` has to use the exact engine.
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


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)``, but fast.

    Encodes each row as one integer key (row-major position inside the
    data's bounding box) and uniques the 1-D keys — several times faster
    than the void-dtype lexicographic sort ``axis=0`` performs.  Falls
    back to ``axis=0`` when the bounding box is too large to index in 62
    bits (never the case for the paper's programs).
    """
    n, d = rows.shape
    if n == 0:
        return rows, np.empty(0, dtype=np.int64)
    if d == 1:
        uniq, inv = np.unique(rows[:, 0], return_inverse=True)
        return uniq.reshape(-1, 1), inv.reshape(-1)
    lo = rows.min(axis=0)
    spans = rows.max(axis=0) - lo + 1
    box = 1
    for s in spans.tolist():
        box *= int(s)
    if box < 2**62:
        strides = np.empty(d, dtype=np.int64)
        strides[-1] = 1
        for k in range(d - 2, -1, -1):
            strides[k] = strides[k + 1] * int(spans[k + 1])
        keys = (rows - lo) @ strides
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        return rows[first], inv.reshape(-1)
    uniq, inv = np.unique(rows, axis=0, return_inverse=True)
    return uniq, inv.reshape(-1)


def _analytically_private_arrays(nest: LoopNest, line_size: int) -> set[str]:
    """Arrays whose every line is private under *any* disjoint partition.

    A single-member reference class whose ``G`` has a trivial integer
    kernel is one-to-one (Lemma 1): each element is touched by exactly
    one iteration, and iterations are partitioned disjointly over
    processors — equivalently, the Theorem 3 intersection test admits no
    nonzero iteration-difference, so no element is ever shared.  With
    unit lines the element/line distinction vanishes, so every line is
    private *and touched exactly once*: the whole per-line bookkeeping
    (uniquing, ownership counting, first-touch grouping) collapses.
    """
    if line_size != 1:
        return set()
    by_array: dict[str, list] = {}
    for s in partition_references(nest.accesses):
        by_array.setdefault(s.array, []).append(s)
    out = set()
    for array, classes in by_array.items():
        if (
            len(classes) == 1
            and classes[0].size == 1
            and classes[0].kernel.shape[0] == 0
        ):
            out.add(array)
    return out


def _private_line_summary(ids, wr, order):
    """Per-line first-touch digest of one processor's bulk accesses.

    Returns ``(line_ids, first_is_write, has_write)`` — the unique line
    ids (ascending), whether each line's earliest access (by ``order``)
    is write-like, and whether the line is ever written by this
    processor.
    """
    perm = np.lexsort((order, ids))
    sid = ids[perm]
    swr = wr[perm]
    new_group = np.r_[True, sid[1:] != sid[:-1]]
    starts = np.flatnonzero(new_group)
    line_ids = sid[starts]
    first_wr = swr[starts]
    group_idx = np.cumsum(new_group) - 1
    writes_per_line = np.bincount(group_idx, weights=swr)
    return line_ids, first_wr, writes_per_line > 0


# ----------------------------------------------------------------------
# The engine


def _bulk_account(machine, proc, array, n_lines, first_read, upgrade_mask,
                  reads_total, writes_total, written, coords_lines, sweeps):
    """Apply one processor's analytic first-touch deltas for one array.

    ``upgrade_mask`` marks lines whose first access is a read and that
    are later written (one S→M upgrade — a second protocol event —
    each), ``written`` the per-line has-any-write mask (one sharers-at-
    write observation each), ``coords_lines`` the ``(n_lines, d)`` line
    coordinates in the same order.
    """
    first_write = n_lines - first_read
    upgrades = int(upgrade_mask.sum())
    st = machine.caches[proc].stats
    st.read_misses += first_read
    st.write_misses += first_write
    st.write_upgrades += upgrades
    st.read_hits += reads_total * sweeps - first_read
    st.write_hits += writes_total * sweeps - first_write - upgrades
    if n_lines:
        machine.directory._count_miss_class("cold", proc, n_lines)
    machine.directory._sharers_at_write.observe(0, int(written.sum()))
    homes = machine.address_map.homes_vector(array, coords_lines)
    events = 1 + upgrade_mask.astype(np.int64)
    machine.account_bulk_misses(proc, homes, events)


def execute_fast(
    nest: LoopNest,
    streams: dict[int, list[RefStream]],
    machine: Machine,
    *,
    sweeps: int,
    interleave: str,
    check_invariants: bool = False,
) -> None:
    """Run the batched engine; mutates ``machine`` exactly as the scalar
    loop would (see module docstring for the argument why)."""
    processors = machine.p
    line_size = machine.config.line_size
    ref_structure = streams[0]
    n_refs = len(ref_structure)
    arrays = sorted({s.array for s in ref_structure})
    analytic = _analytically_private_arrays(nest, line_size)
    directory = machine.directory

    # Per-(proc, array) first-touch digests of the bulk lines, and the
    # write-shared residue as one ``(proc, ref, iteration rows, residue
    # line ids)`` part per (proc, ref), built array by array.  Residue
    # line ids are global across arrays; ``res_arrays`` holds each
    # array's residue line coordinates in id order.
    summaries: list[tuple] = []
    residue: list[tuple] = []
    res_arrays: list[tuple[str, np.ndarray]] = []
    n_res_lines = 0

    for array in arrays:
        ref_idx = [r for r, s in enumerate(ref_structure) if s.array == array]

        if array in analytic:
            # Touched-once-by-construction: no uniquing or grouping needed.
            r = ref_idx[0]
            wr = ref_structure[r].is_write_like
            for p in range(processors):
                coords = streams[p][r].coords
                n = int(coords.shape[0])
                if n == 0:
                    continue
                directory.stats.cold_fills += n
                _bulk_account(
                    machine, p, array,
                    n_lines=n,
                    first_read=0 if wr else n,
                    upgrade_mask=np.zeros(n, dtype=bool),
                    reads_total=0 if wr else n,
                    writes_total=n if wr else 0,
                    written=np.full(n, wr, dtype=bool),
                    coords_lines=coords,
                    sweeps=sweeps,
                )
                directory.bulk_install(p, array, coords, modified=wr)
            continue

        # Global line ids for this array across all processors.
        segments = []  # (proc, r, line-coord rows)
        for p in range(processors):
            for r in ref_idx:
                segments.append((p, r, _line_coords(streams[p][r].coords, line_size)))
        all_lines = np.vstack([seg[2] for seg in segments])
        if all_lines.shape[0] == 0:
            continue
        uniq_lines, inv = _unique_rows(all_lines)
        # Split the inverse mapping back into per-(proc, ref) id segments.
        splits = np.cumsum([seg[2].shape[0] for seg in segments])[:-1]
        seg_ids = dict(zip([(p, r) for p, r, _ in segments], np.split(inv, splits)))

        # A line is analytically resolvable when touched by a single
        # processor (any mix of reads/writes) or by nobody's writes.
        touch = np.zeros((processors, uniq_lines.shape[0]), dtype=bool)
        ever_written = np.zeros(uniq_lines.shape[0], dtype=bool)
        for (p, r), ids_seg in seg_ids.items():
            if ids_seg.size:
                touch[p, ids_seg] = True
                if ref_structure[r].is_write_like:
                    ever_written[ids_seg] = True
        bulk = (touch.sum(axis=0) == 1) | ~ever_written
        res_local = np.flatnonzero(~bulk)
        res_id = np.full(uniq_lines.shape[0], -1, dtype=np.int64)
        if res_local.size:
            res_id[res_local] = np.arange(n_res_lines, n_res_lines + res_local.size)
            n_res_lines += res_local.size
            res_arrays.append((array, uniq_lines[res_local]))

        for p in range(processors):
            ids_parts, wr_parts, order_parts = [], [], []
            for r in ref_idx:
                ids_seg = seg_ids[(p, r)]
                if ids_seg.size == 0:
                    continue
                mask = bulk[ids_seg]
                wr_flag = ref_structure[r].is_write_like
                if mask.any():
                    ids_parts.append(ids_seg[mask])
                    wr_parts.append(np.full(int(mask.sum()), wr_flag, dtype=bool))
                    # Global program order of (iteration n, reference r)
                    # within the processor: n * n_refs + r.
                    order_parts.append(
                        np.flatnonzero(mask).astype(np.int64) * n_refs + r
                    )
                if not mask.all():
                    rows = np.flatnonzero(~mask)
                    residue.append((p, r, rows, res_id[ids_seg[rows]]))
            if ids_parts:
                wr_pa = np.concatenate(wr_parts)
                summary = _private_line_summary(
                    np.concatenate(ids_parts), wr_pa, np.concatenate(order_parts)
                )
                summaries.append(
                    (p, array, uniq_lines, int((~wr_pa).sum()), int(wr_pa.sum()), summary)
                )

        # Machine-wide cold fills: one per bulk line, however many
        # processors each is shared by (first fetch by *anyone*).
        directory.stats.cold_fills += int(bulk.sum())

        # Record the analytic lines' end state.  A written bulk line is
        # private: its sole toucher ends with it in M.  A read-only bulk
        # line ends in S at every toucher.
        bulk_idx = np.flatnonzero(bulk)
        if bulk_idx.size:
            rows_bulk = uniq_lines[bulk_idx]
            wr_bulk = ever_written[bulk_idx]
            tb = touch[:, bulk_idx]
            for p in range(processors):
                sel = tb[p] & wr_bulk
                if sel.any():
                    directory.bulk_install(p, array, rows_bulk[sel], modified=True)
            ro = ~wr_bulk
            if ro.any():
                directory.bulk_install_shared(array, rows_bulk[ro], tb[:, ro])

    # ---- bulk phase: vectorised first-touch accounting ----------------
    for p, array, uniq_lines, reads_total, writes_total, summary in summaries:
        line_ids, first_wr, has_write = summary
        n_lines = int(line_ids.shape[0])
        _bulk_account(
            machine, p, array,
            n_lines=n_lines,
            first_read=n_lines - int(first_wr.sum()),
            upgrade_mask=~first_wr & has_write,
            reads_total=reads_total,
            writes_total=writes_total,
            written=has_write,
            coords_lines=uniq_lines[line_ids],
            sweeps=sweeps,
        )

    # ---- write-shared residue: per-line protocol resolution -----------
    if residue:
        line, proc, write = _residue_events(
            residue, ref_structure, processors, sweeps=sweeps, interleave=interleave
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


def _residue_events(residue, ref_structure, processors, *, sweeps, interleave):
    """The residue's events in ``(line, global time)`` order.

    Global time is the exact engine's issue order: ``(iteration, proc,
    ref)`` for round-robin, ``(proc, iteration, ref)`` for sequential,
    repeated ``sweeps`` times with the sweep as the major key.  Returns
    ``(line, proc, write)`` arrays, one entry per access.
    """
    sizes = [rows.size for _, _, rows, _ in residue]
    proc = np.repeat([p for p, _, _, _ in residue], sizes)
    ref = np.repeat([r for _, r, _, _ in residue], sizes)
    write = np.repeat([ref_structure[r].is_write_like for _, r, _, _ in residue], sizes)
    it = np.concatenate([rows for _, _, rows, _ in residue])
    line = np.concatenate([ids for _, _, _, ids in residue])
    n_refs = len(ref_structure)
    if interleave == "sequential":
        key = (proc * (int(it.max()) + 1) + it) * n_refs + ref
    else:  # roundrobin: one iteration per processor per step
        key = (it * processors + proc) * n_refs + ref
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
        directory._sharers_at_write.observe(value, count)

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
    for s in np.flatnonzero(pairs.any(axis=1)).tolist():
        machine.network.send_bulk_vector(s, pairs[s])


# ----------------------------------------------------------------------
# Vectorised footprint / sharing measurement (both engines)


def collect_footprints(
    streams: dict[int, list[RefStream]], processors: int
) -> tuple[list[dict[str, int]], dict[str, int]]:
    """Per-processor element footprints and cross-processor sharing.

    Replaces the exact engine's per-event ``set`` accumulation with
    vectorised row uniquing over the batched coordinate arrays;
    identical counts (element granularity, like the spread-dilation
    terms it validates).  Returns ``(footprints, shared)`` with
    ``footprints[p][array]`` the number of distinct elements ``p``
    touches and ``shared[array]`` the number of elements touched by more
    than one processor.
    """
    footprints: list[dict[str, int]] = [dict() for _ in range(processors)]
    shared: dict[str, int] = {}
    arrays = sorted({s.array for st in streams.values() for s in st})
    for array in arrays:
        # One unique pass over (proc, coords) rows gives every processor's
        # distinct-element count; a second over the deduped coords alone
        # gives the multiply-touched elements.
        stacks = []
        for p in range(processors):
            parts = [
                s.coords for s in streams[p] if s.array == array and s.coords.size
            ]
            if parts:
                c = np.vstack(parts)
                stacks.append(
                    np.column_stack([np.full(c.shape[0], p, dtype=np.int64), c])
                )
        if not stacks:
            continue
        tagged, _ = _unique_rows(np.vstack(stacks))
        per_proc = np.bincount(tagged[:, 0], minlength=processors)
        for p in range(processors):
            if per_proc[p]:
                footprints[p][array] = int(per_proc[p])
        _, inv = _unique_rows(tagged[:, 1:])
        shared[array] = int((np.bincount(inv) > 1).sum())
    return footprints, shared
