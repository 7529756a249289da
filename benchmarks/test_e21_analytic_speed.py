"""E21 — analytic-engine throughput: vectorized kernels, check fan-out.

Not a paper figure: this benchmark guards the repository's performance
claims for the *analytic* side of the pipeline (PR 4):

* the vectorized exact lattice kernels (`union_of_boxes_size`,
  `parallelepiped_lattice_points`) are ≥ 5× faster than the scalar
  oracles they bit-match (the ``*_scalar`` functions, called directly);
* ``repro check`` throughput scales with ``--workers`` (recorded always;
  the ≥ 2.5× 1→4 scaling is asserted only on runners with ≥ 4 cores —
  a single-core container cannot demonstrate parallel speedup);
* the optimiser's exact grid search benefits from the shared
  :class:`~repro.lattice.points.LatticeCountCache` (warm re-run ≤ cold).

Timing methodology matches E19: the collector is disabled and drained
around each measured region and every quantity takes the best of
``ROUNDS`` runs.  Parity between vectorized and scalar kernels is
asserted on every workload before any timing is trusted.  With
``REPRO_BENCH_REPORTS`` set, the numbers land in
``BENCH_analytic_speed.json``.
"""

from __future__ import annotations

import gc
import json
import os
import time

import numpy as np

from repro.check.harness import run_check
from repro.core.classify import partition_references
from repro.core.optimize import optimize_rectangular
from repro.lattice.points import (
    LatticeCountCache,
    analytic_cache_stats,
    parallelepiped_lattice_points,
    union_of_boxes_size,
)
from tests.lattice_oracles import (
    parallelepiped_lattice_points_scalar,
    union_of_boxes_size_scalar,
)

from .paper_programs import example8
from .reporting import write_bench_report

ROUNDS = 2
KERNEL_MIN_SPEEDUP = 5.0
CHECK_CASES = 16
CHECK_WORKERS = 4
CHECK_MIN_SCALING = 2.5
GRID_PROCESSORS = 60  # 3-factor-rich: many feasible grids to score

# Union workload: 3-D, 8 translated boxes, offsets in the E7/E10 style
# (mixed signs, overlapping), extents large enough that the compressed
# cell grid is nontrivial.
_UNION_RNG = np.random.default_rng(7)
UNION_OFFSETS = _UNION_RNG.integers(-50, 51, size=(8, 3)).astype(np.int64)
UNION_EXTENTS = np.array([40, 40, 40], dtype=np.int64)
UNION_REPEATS = 10

# Parallelepiped workload: full-rank 3×3 Q with a ~2M-point bounding box
# (just inside the scalar oracle's historical 5M cap).
PPD_Q = np.array([[95, 11, 2], [7, 110, 13], [3, 17, 120]], dtype=np.int64)


def _best_of(fn, rounds: int = ROUNDS) -> tuple[object, float]:
    """Best-of-``rounds`` wall time with the GC quiesced; returns (result, s)."""
    best = None
    result = None
    for _ in range(rounds):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            r = fn()
            dt = time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()
        if best is None or dt < best:
            best, result = dt, r
    return result, best


def _union_vec():
    return [
        union_of_boxes_size(UNION_OFFSETS, UNION_EXTENTS)
        for _ in range(UNION_REPEATS)
    ]


def _union_scalar():
    return [
        union_of_boxes_size_scalar(UNION_OFFSETS, UNION_EXTENTS)
        for _ in range(UNION_REPEATS)
    ]


def _strip_duration(report: dict) -> dict:
    out = dict(report)
    out.pop("duration_s", None)
    return out


def run_all() -> dict:
    results: dict = {}

    # -- kernel micro-benchmarks --------------------------------------
    vec_counts, vec_s = _best_of(_union_vec)
    scalar_counts, scalar_s = _best_of(_union_scalar)
    assert vec_counts == scalar_counts, "union kernel diverged from scalar oracle"
    results["union_of_boxes_size"] = {
        "boxes": int(UNION_OFFSETS.shape[0]),
        "dims": int(UNION_OFFSETS.shape[1]),
        "extents": UNION_EXTENTS.tolist(),
        "calls": UNION_REPEATS,
        "count": int(vec_counts[0]),
        "vectorized_wall_s": vec_s,
        "scalar_wall_s": scalar_s,
        "speedup": scalar_s / vec_s,
    }

    ppd_vec, ppd_vec_s = _best_of(lambda: parallelepiped_lattice_points(PPD_Q))
    ppd_scalar, ppd_scalar_s = _best_of(
        lambda: parallelepiped_lattice_points_scalar(PPD_Q)
    )
    assert ppd_vec == ppd_scalar, "parallelepiped kernel diverged from scalar oracle"
    results["parallelepiped_lattice_points"] = {
        "q": PPD_Q.tolist(),
        "count": int(ppd_vec),
        "vectorized_wall_s": ppd_vec_s,
        "scalar_wall_s": ppd_scalar_s,
        "speedup": ppd_scalar_s / ppd_vec_s,
    }

    # -- check fan-out -------------------------------------------------
    r1, check1_s = _best_of(
        lambda: run_check(cases=CHECK_CASES, seed=0), rounds=1
    )
    rn, checkn_s = _best_of(
        lambda: run_check(cases=CHECK_CASES, seed=0, workers=CHECK_WORKERS),
        rounds=1,
    )
    assert json.dumps(_strip_duration(r1)) == json.dumps(_strip_duration(rn)), (
        "check report differs across worker counts"
    )
    results["check_throughput"] = {
        "cases": CHECK_CASES,
        "seed": 0,
        "workers_1_wall_s": check1_s,
        "workers_1_cases_per_s": CHECK_CASES / check1_s,
        f"workers_{CHECK_WORKERS}_wall_s": checkn_s,
        f"workers_{CHECK_WORKERS}_cases_per_s": CHECK_CASES / checkn_s,
        "scaling": check1_s / checkn_s,
        "cpu_count": os.cpu_count(),
    }

    # -- optimiser grid search ----------------------------------------
    nest = example8(30)
    uisets = partition_references(nest.accesses)
    cache = LatticeCountCache()
    cold, cold_s = _best_of(
        lambda: optimize_rectangular(
            uisets, nest.space, GRID_PROCESSORS, scoring="exact", cache=cache
        ),
        rounds=1,
    )
    warm, warm_s = _best_of(
        lambda: optimize_rectangular(
            uisets, nest.space, GRID_PROCESSORS, scoring="exact", cache=cache
        ),
        rounds=1,
    )
    assert warm.grid == cold.grid and warm.predicted_cost == cold.predicted_cost
    results["grid_search"] = {
        "workload": "example8(30)",
        "processors": GRID_PROCESSORS,
        "scoring": "exact",
        "cold_wall_s": cold_s,
        "warm_wall_s": warm_s,
        "cache_hits": int(cache.hits),
        "cache_misses": int(cache.misses),
        "grid": list(cold.grid),
    }
    results["_opt"] = cold
    return results


def test_analytic_speed(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    opt = results.pop("_opt")

    # Headline claims: both vectorized kernels ≥ 5× their scalar oracles.
    union = results["union_of_boxes_size"]
    ppd = results["parallelepiped_lattice_points"]
    assert union["speedup"] >= KERNEL_MIN_SPEEDUP, union
    assert ppd["speedup"] >= KERNEL_MIN_SPEEDUP, ppd

    # Warm grid search must not be slower than cold (the shared cache
    # turns every exact enumeration into a hit).
    grid = results["grid_search"]
    assert grid["cache_hits"] > 0, grid

    # Worker scaling needs real cores; on < 4 the numbers are recorded
    # but a single-core container cannot demonstrate parallel speedup.
    check = results["check_throughput"]
    if (os.cpu_count() or 1) >= CHECK_WORKERS:
        assert check["scaling"] >= CHECK_MIN_SCALING, check

    from repro.core import estimate_traffic

    nest = example8(30)
    write_bench_report(
        "analytic_speed",
        processors=GRID_PROCESSORS,
        estimate=estimate_traffic(
            partition_references(nest.accesses), opt.tile, method="exact"
        ),
        program={
            "workload": "example8(30)",
            "processors": GRID_PROCESSORS,
            "tile": opt.tile.sides.tolist(),
        },
        caches=analytic_cache_stats(),
        meta={
            "kernels": {
                "union_of_boxes_size": union,
                "parallelepiped_lattice_points": ppd,
                "required_min_speedup": KERNEL_MIN_SPEEDUP,
            },
            "check_throughput": check,
            "grid_search": grid,
            "rounds": ROUNDS,
        },
    )


def test_analytic_smoke():
    """Marker-free quick check for CI's timing guard: kernel parity on a
    small instance of each workload family, no wall-clock assertions."""
    offs = np.array([[0, 0], [3, 1], [-2, 4]], dtype=np.int64)
    ext = np.array([5, 6], dtype=np.int64)
    assert union_of_boxes_size(offs, ext) == union_of_boxes_size_scalar(offs, ext)
    q = np.array([[7, 1, 0], [2, 9, 1], [0, 3, 8]], dtype=np.int64)
    assert parallelepiped_lattice_points(q) == parallelepiped_lattice_points_scalar(q)
    r1 = _strip_duration(run_check(cases=4, seed=0))
    r2 = _strip_duration(run_check(cases=4, seed=0, workers=2))
    assert json.dumps(r1) == json.dumps(r2)
