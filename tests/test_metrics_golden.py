"""Golden pins for the simulated machine's counts.

Each case runs one small simulation and compares every count a reader
can get — the report's ``measured`` section, which carries each
simulator count once, and ``machine.engine_fallbacks`` — against values
recorded in ``tests/data/metrics_golden.json``.  Small cases store the
JSON itself, larger ones the sha256 of its canonical form.

The cases cover the fast engine at P ≥ 11 (labels proc 10 and 11), the
exact engine with a finite LRU capacity (evictions, capacity misses, the
``replacement`` miss class, probe invalidations), caching disabled, an
``engine="auto"`` fallback and line size 2.

To re-record after a deliberate change to what the simulator counts,
run ``PYTHONPATH=src python -m tests.test_metrics_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from benchmarks.paper_programs import example8, figure9, matmul_sync
from repro.core.tiles import RectangularTile
from repro.obs.report import measured_section
from repro.sim import Machine, MachineConfig, simulate_nest

GOLDEN = Path(__file__).parent / "data" / "metrics_golden.json"

#: Above this many canonical-JSON bytes a pin stores only the sha256.
FULL_LIMIT = 2048


def _run(nest, tile, processors, *, engine, **cfg):
    machine = Machine(MachineConfig(processors=processors, **cfg))
    return simulate_nest(nest, RectangularTile(tile), processors,
                         engine=engine, machine=machine)


def _probe(sim):
    """An invalidation probe for a line cache 1 no longer holds.

    The directory keeps its sharer sets exact under LRU eviction, so a
    simulation never sends one; the probe counter is driven directly.
    """
    assert not sim.machine.caches[1].invalidate(("B", (0, 0, 0)))
    return sim


CASES = {
    # 12 processors on the bulk fast path: labels proc=10, proc=11.
    "fast_p12": lambda: _run(figure9(6, 2), [3, 2, 3], 12, engine="fast"),
    # Finite LRU capacity: evictions, replacement misses, probe misses.
    "exact_lru": lambda: _probe(_run(
        figure9(4, 3), [2, 2, 4], 4, engine="exact", cache_capacity=6
    )),
    # Footnote 2's local-memory machine: no caching at all.
    "no_cache": lambda: _run(
        example8(4), [2, 2, 4], 4, engine="exact", cache_enabled=False
    ),
    # engine="auto" falls back to exact and records why.
    "auto_fallback": lambda: _run(
        matmul_sync(4), [2, 2, 4], 4, engine="auto", cache_capacity=16
    ),
    # Two elements per coherence line, fast engine.
    "line2": lambda: _run(figure9(4, 2), [2, 2, 4], 4, engine="fast", line_size=2),
}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def observe(sim) -> dict:
    """Every count the simulation kept, as its readers see it."""
    return {
        "fallback": dict(sim.machine.engine_fallbacks),
        "measured": measured_section(sim),
    }


def _pin(obj):
    text = _canonical(obj)
    if len(text) <= FULL_LIMIT:
        return {"json": json.loads(text)}
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def record() -> dict:
    return {
        name: {part: _pin(value) for part, value in observe(make()).items()}
        for name, make in CASES.items()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_metrics_match_golden(name, golden):
    seen = observe(CASES[name]())
    for part, pin in golden[name].items():
        assert _pin(seen[part]) == pin, f"{name}: {part} differs"


def test_cases_exercise_what_they_claim():
    """Guard the inputs: each case really reaches the counters it pins."""
    fast = CASES["fast_p12"]()
    assert fast.engine == "fast"
    assert fast.machine.directory.miss_classes.get(("cold", 11))

    lru = CASES["exact_lru"]()
    cache = lru.machine.caches
    assert sum(c.stats.evictions for c in cache) > 0
    assert sum(c.stats.probe_invalidations for c in cache) > 0
    assert lru.machine.directory.stats.capacity_misses > 0
    assert any(
        kind == "replacement" for kind, _ in lru.machine.directory.miss_classes
    )

    off = CASES["no_cache"]()
    assert off.machine.config.cache_enabled is False
    assert sum(p.hits for p in off.processors) == 0

    auto = CASES["auto_fallback"]()
    assert auto.engine == "exact" and auto.engine_fallback

    line2 = CASES["line2"]()
    assert line2.engine == "fast" and line2.machine.config.line_size == 2


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
