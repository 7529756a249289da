"""E19 — fast-engine throughput: batched simulation vs the exact protocol.

Not a paper figure: this benchmark guards the repository's own
performance claim — ``simulate_nest(engine='fast')`` produces the exact
engine's numbers at a fraction of the cost by resolving provably-private
and globally read-only lines analytically (Theorem 3's intersection
machinery classifies them) and the write-shared residue per line, with
sorts and group-bys instead of the scalar MSI protocol.

Workloads are the simulator-heavy experiments elsewhere in this suite:

* E5  — Figure 9's ``Doseq`` nest (coherence-heavy, 3 sweeps; almost all
  of its cost is the residue, so it must also be ≥ 5× faster);
* E10 — Appendix A's matmul with synchronizing accumulates;
* E17 — the Example 8 scalability sweep's largest instance, on the
  optimiser's own tile (the headline: must be ≥ 5× faster).

Timing methodology: the collector is disabled and drained around each
measured run (a prior machine's millions of dict entries otherwise
trigger collection pauses mid-measurement), machines are dropped between
runs, and each engine takes the best of ``ROUNDS`` runs.  Parity is
asserted on every workload before any timing is trusted.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace

from repro.core import RectangularTile, estimate_traffic
from repro.core.classify import partition_references
from repro.core.optimize import optimize_rectangular
from repro.sim import simulate_nest

from .paper_programs import example8, figure9, matmul_sync
from .reporting import write_bench_report

ROUNDS = 2
E17_PROCESSORS = 12
E17_MIN_SPEEDUP = 5.0
E5_MIN_SPEEDUP = 5.0


def _workloads():
    e17_nest = example8(24)
    e17_opt = optimize_rectangular(
        partition_references(e17_nest.accesses), e17_nest.space, E17_PROCESSORS
    )
    mm_nest = matmul_sync(16)
    mm_opt = optimize_rectangular(
        partition_references(mm_nest.accesses), mm_nest.space, 8
    )
    return [
        # (name, nest, tile, processors)
        ("e05_doseq", figure9(12, 3), RectangularTile([6, 6, 6]), 8),
        ("e10_matmul_sync", mm_nest, mm_opt.tile, 8),
        ("e17_example8", e17_nest, e17_opt.tile, E17_PROCESSORS),
    ]


def _timed_run(nest, tile, processors, engine):
    """One simulation with GC quiesced; returns (stripped result, seconds)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        r = simulate_nest(nest, tile, processors, engine=engine)
        dt = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    # Drop the machine (and its per-line dicts) so later measurements do
    # not pay collection pauses for this run's garbage.
    return replace(r, machine=None), dt


def _measure(nest, tile, processors, engine):
    best = None
    result = None
    for _ in range(ROUNDS):
        r, dt = _timed_run(nest, tile, processors, engine)
        if best is None or dt < best:
            best, result = dt, r
        gc.collect()
    return result, best


def run_all():
    rows = []
    headline_sim = None
    headline = None
    for name, nest, tile, processors in _workloads():
        exact, exact_s = _measure(nest, tile, processors, "exact")
        fast, fast_s = _measure(nest, tile, processors, "fast")
        assert fast == exact, f"{name}: fast engine diverged from exact"
        accesses = exact.total_accesses
        rows.append(
            {
                "workload": name,
                "processors": processors,
                "tile": tile.sides.tolist(),
                "accesses": accesses,
                "exact_wall_s": exact_s,
                "fast_wall_s": fast_s,
                "exact_accesses_per_s": accesses / exact_s,
                "fast_accesses_per_s": accesses / fast_s,
                "speedup": exact_s / fast_s,
            }
        )
        if name == "e17_example8":
            headline_sim = fast
            headline = (nest, tile)
    return rows, headline_sim, headline


def test_fast_engine_speed(benchmark):
    rows, e17_sim, (e17_nest, e17_tile) = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    by_name = {r["workload"]: r for r in rows}

    # Every workload: the fast engine must win outright.
    for r in rows:
        assert r["speedup"] > 1.0, r

    # Headline claim: the E17 workload is at least 5x faster.
    e17 = by_name["e17_example8"]
    assert e17["speedup"] >= E17_MIN_SPEEDUP, e17

    # The write-shared residue is resolved per line, not replayed.
    e05 = by_name["e05_doseq"]
    assert e05["speedup"] >= E5_MIN_SPEEDUP, e05

    write_bench_report(
        "sim_speed",
        processors=E17_PROCESSORS,
        estimate=estimate_traffic(e17_nest, e17_tile, method="theorem4"),
        sim=e17_sim,
        program={
            "workload": "e17_example8",
            "n": 24,
            "processors": E17_PROCESSORS,
            "tile": e17_tile.sides.tolist(),
        },
        meta={
            "workloads": rows,
            "headline": {
                "workload": "e17_example8",
                "speedup": e17["speedup"],
                "required_min_speedup": E17_MIN_SPEEDUP,
            },
            "residue": {
                "workload": "e05_doseq",
                "speedup": e05["speedup"],
                "required_min_speedup": E5_MIN_SPEEDUP,
            },
            "rounds_per_engine": ROUNDS,
        },
    )


def test_fast_engine_smoke():
    """Marker-free quick check for CI's timing guard: parity on a small
    instance of each workload family, no wall-clock assertions."""
    for nest, tile, processors in [
        (figure9(6, 2), RectangularTile([3, 3, 3]), 8),
        (matmul_sync(8), RectangularTile([4, 4, 8]), 8),
        (example8(10), RectangularTile([5, 5, 5]), 8),
    ]:
        exact = simulate_nest(nest, tile, processors, engine="exact")
        fast = simulate_nest(nest, tile, processors, engine="fast")
        assert fast == exact
