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
* replays only the write-shared residue through the exact scalar
  protocol, in the same global interleaved order the exact engine would
  use.

Analytic accesses never touch a residue line's cache or directory state
(and unbounded caches have no capacity coupling), so removing them from
the replayed stream leaves the residue lines' protocol histories — and
therefore every counter — bit-identical to the exact engine.  For the
same reason the replay never reads a deferred line, so the store stays
arrays for the whole run: the sharer histogram is counted from the
records, and the per-line caches and directory entries are built by
:meth:`~repro.sim.directory.Directory.materialize` only when something
asks for them (a cache query, an invariant check, a later
:meth:`~repro.sim.machine.Machine.access`).  The
differential-parity suite (``tests/test_sim_parity.py``) asserts exactly
that over all of the paper's programs.
"""

from __future__ import annotations

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
    machine.directory._sharers_at_write.observe_bulk(0, int(written.sum()))
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

    # Per-(proc, array) first-touch digests of the bulk lines and the
    # write-shared residue, built array by array.
    summaries: list[tuple] = []
    residue: list[tuple] = []

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
                    elem = streams[p][r].coords[rows]
                    kind = ref_structure[r].kind
                    for it, coord in zip(rows.tolist(), elem.tolist()):
                        residue.append((it, p, r, array, tuple(coord), kind))
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

    # ---- write-shared residue: exact scalar protocol replay -----------
    if interleave == "sequential":
        residue.sort(key=lambda e: (e[1], e[0], e[2]))
    else:  # roundrobin: one iteration per processor per step
        residue.sort(key=lambda e: (e[0], e[1], e[2]))
    events = [(p, array, coords, kind) for _, p, _, array, coords, kind in residue]
    logger.debug(
        "fast engine: %d residue accesses (of %d) replayed exactly",
        len(events),
        sum(s.coords.shape[0] for st_ in streams.values() for s in st_),
    )
    # ``_access``, not ``access``: residue lines are disjoint from the
    # deferred bulk lines, so the replay never needs them materialised.
    access = machine._access
    for _sweep in range(sweeps):
        for p, array, coords, kind in events:
            access(p, array, coords, kind)
        if check_invariants:
            machine.check()


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
