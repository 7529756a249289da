"""Differential parity: the fast engine must match the exact engine.

The fast engine (:mod:`repro.sim.fast`) resolves provably-private and
globally read-only cache lines analytically and replays only the shared
residue through the scalar MSI protocol.  Its contract is *bit-identical
results*: every counter a :class:`SimulationResult` carries, every
per-cache stat, the coherence stats, and the directory's end state
(sharer histogram + protocol invariants) must equal the exact engine's.

The unmarked tests are a quick smoke over representative programs; the
exhaustive sweep over every paper program × interleave × line size ×
sweep count is marked ``slow`` (run with ``-m slow`` or no marker
filter).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.paper_programs import (
    example2,
    example3,
    example6,
    example8,
    example9,
    example10,
    figure9,
    matmul_sync,
)
from repro.core.tiles import RectangularTile
from repro.exceptions import SimulationError
from repro.sim import Machine, MachineConfig, simulate_nest, supports_fast_path
from repro.sim.memory import AddressMap

# Small instances of every paper program (keyed by name for test IDs).
PROGRAMS = {
    "example2": lambda: example2(),
    "example3": lambda: example3(8),
    "example6": lambda: example6(),
    "example8": lambda: example8(8),
    "example9": lambda: example9(10),
    "example10": lambda: example10(10),
    "figure9": lambda: figure9(6, 2),
    "matmul_sync": lambda: matmul_sync(6),
}

SMOKE = ("example8", "figure9", "matmul_sync")


def _half_tile(nest) -> RectangularTile:
    """A tile splitting each dimension in two — cuts every axis, so both
    private and shared lines exist."""
    return RectangularTile([-(-int(n) // 2) for n in nest.space.extents])


def _machine(processors: int, **cfg) -> Machine:
    address_map = cfg.pop("address_map", None)
    return Machine(
        MachineConfig(processors=processors, **cfg), address_map=address_map
    )


def assert_parity(nest, tile, processors, *, line_size=1, **kwargs):
    """Run both engines on fresh machines and compare everything."""
    exact = simulate_nest(
        nest,
        tile,
        processors,
        engine="exact",
        machine=_machine(processors, line_size=line_size),
        check_invariants=True,
        **kwargs,
    )
    fast = simulate_nest(
        nest,
        tile,
        processors,
        engine="fast",
        machine=_machine(processors, line_size=line_size),
        check_invariants=True,
        **kwargs,
    )
    assert fast == exact  # all counters incl. per-processor stats
    for p in range(processors):
        assert fast.machine.caches[p].stats == exact.machine.caches[p].stats
    assert fast.machine.directory.stats == exact.machine.directory.stats
    assert (
        fast.machine.directory.sharer_histogram()
        == exact.machine.directory.sharer_histogram()
    )
    assert (
        fast.machine.directory.sharers_at_write.bins
        == exact.machine.directory.sharers_at_write.bins
    )
    fast.machine.check()
    return fast, exact


@pytest.mark.parametrize("name", SMOKE)
def test_smoke_parity(name):
    nest = PROGRAMS[name]()
    assert_parity(nest, _half_tile(nest), 4)


def test_smoke_parity_line_size_and_sweeps():
    nest = PROGRAMS["example8"]()
    assert_parity(nest, _half_tile(nest), 4, line_size=2, sweeps=2)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("interleave", ["roundrobin", "sequential"])
@pytest.mark.parametrize("line_size", [1, 2])
@pytest.mark.parametrize("sweeps", [1, 2])
def test_full_parity_sweep(name, interleave, line_size, sweeps):
    nest = PROGRAMS[name]()
    assert_parity(
        nest,
        _half_tile(nest),
        4,
        line_size=line_size,
        sweeps=sweeps,
        interleave=interleave,
    )


@pytest.mark.slow
def test_parity_node0_address_map():
    """Alternate home mapping changes traffic pricing, not parity."""
    nest = PROGRAMS["example8"]()
    tile = _half_tile(nest)
    results = {}
    for policy in ("interleave", "node0"):
        results[policy] = assert_parity(
            nest, tile, 4, address_map=AddressMap(4, default_policy=policy)
        )[0]
    # Sanity: the node0 map actually re-prices traffic relative to default.
    assert (
        results["node0"].network_hops != results["interleave"].network_hops
        or results["node0"].network_messages
        == results["interleave"].network_messages
    )


def _line_state(machine: Machine):
    """Every cache's ``(addr, state)`` set and every directory entry's
    ``(sharers, owner)``."""
    caches = [
        {(a, machine.caches[p].state(a)) for a in machine.caches[p]._lines}
        for p in range(machine.p)
    ]
    entries = {
        a: (frozenset(e.sharers), e.owner)
        for a, e in machine.directory.entries.items()
    }
    return caches, entries


class TestDeferredStore:
    """The fast engine keeps its analytic lines as arrays (the directory's
    deferred store) and builds per-line state only on demand."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @pytest.mark.parametrize("line_size", [1, 2])
    def test_materialized_end_state_matches_exact(self, name, line_size):
        nest = PROGRAMS[name]()
        tile = _half_tile(nest)
        exact, fast = (
            simulate_nest(
                nest, tile, 4, engine=e, machine=_machine(4, line_size=line_size)
            )
            for e in ("exact", "fast")
        )
        d = fast.machine.directory
        deferred = {
            (r.array, tuple(row)) for r in d._deferred for row in r.coords.tolist()
        }
        # Right after the run only residue lines have per-line state.
        assert not deferred & set(d.entries)
        assert deferred | set(d.entries) == set(exact.machine.directory.entries)
        d.materialize()
        assert not d._deferred
        assert _line_state(fast.machine) == _line_state(exact.machine)
        fast.machine.check()

    def test_access_to_bulk_line_hits(self):
        nest = PROGRAMS["example8"]()
        r = simulate_nest(nest, _half_tile(nest), 4, engine="fast")
        m = r.machine
        rec = next(x for x in m.directory._deferred if x.touch is None)
        coords = tuple(rec.coords[0].tolist())
        kind = "write" if rec.modified else "read"
        assert m.access(int(rec.owner[0]), rec.array, coords, kind)
        assert not m.directory._deferred

    def test_per_line_views_materialize(self):
        nest = PROGRAMS["example8"]()
        r = simulate_nest(nest, _half_tile(nest), 4, engine="fast")
        assert r.machine.directory._deferred
        assert len(r.machine.caches[0]) > 0
        assert not r.machine.directory._deferred

    def test_flush_caches_drops_records(self):
        nest = PROGRAMS["example8"]()
        r = simulate_nest(nest, _half_tile(nest), 4, engine="fast")
        assert r.machine.directory._deferred
        r.machine.flush_caches()
        assert not r.machine.directory._deferred
        assert r.machine.directory.sharer_histogram() == {}
        assert all(len(c) == 0 for c in r.machine.caches)

    def test_deferred_records_block_fast_path(self):
        from repro.sim.fast import fast_path_blockers

        nest = PROGRAMS["example8"]()
        r = simulate_nest(nest, _half_tile(nest), 4, engine="fast")
        d = r.machine.directory
        assert d._deferred
        # Leave the deferred records as the only line state.
        d.entries.clear()
        d._ever_filled.clear()
        for c in r.machine.caches:
            c._lines.clear()
        assert fast_path_blockers(r.machine) == [
            "machine not fresh (pre-existing cache/directory state)"
        ]
        assert d._deferred  # the check itself materialised nothing


def test_auto_falls_back_on_finite_capacity():
    """engine='auto' must not use the fast path when evictions can occur —
    and the fallback still produces the exact engine's numbers."""
    nest = PROGRAMS["example8"]()
    tile = _half_tile(nest)
    auto = simulate_nest(
        nest, tile, 4, engine="auto", machine=_machine(4, cache_capacity=64)
    )
    exact = simulate_nest(
        nest, tile, 4, engine="exact", machine=_machine(4, cache_capacity=64)
    )
    assert auto == exact
    assert auto.capacity_misses > 0  # the finite cache really evicted


def test_auto_falls_back_without_caches():
    nest = PROGRAMS["example8"]()
    tile = _half_tile(nest)
    auto = simulate_nest(
        nest, tile, 4, engine="auto", machine=_machine(4, cache_enabled=False)
    )
    exact = simulate_nest(
        nest, tile, 4, engine="exact", machine=_machine(4, cache_enabled=False)
    )
    assert auto == exact


class TestFastEngineErrors:
    def test_rejects_finite_capacity(self):
        nest = PROGRAMS["example8"]()
        with pytest.raises(SimulationError, match="engine='fast'"):
            simulate_nest(
                nest,
                _half_tile(nest),
                4,
                engine="fast",
                machine=_machine(4, cache_capacity=64),
            )

    def test_rejects_disabled_caches(self):
        nest = PROGRAMS["example8"]()
        with pytest.raises(SimulationError, match="engine='fast'"):
            simulate_nest(
                nest,
                _half_tile(nest),
                4,
                engine="fast",
                machine=_machine(4, cache_enabled=False),
            )

    def test_rejects_observer(self):
        nest = PROGRAMS["example8"]()
        events = []
        with pytest.raises(SimulationError, match="engine='fast'"):
            simulate_nest(
                nest,
                _half_tile(nest),
                4,
                engine="fast",
                observer=lambda *a: events.append(a),
            )

    def test_rejects_used_machine(self):
        nest = PROGRAMS["example8"]()
        tile = _half_tile(nest)
        machine = _machine(4)
        simulate_nest(nest, tile, 4, machine=machine)
        assert not supports_fast_path(machine)
        with pytest.raises(SimulationError, match="engine='fast'"):
            simulate_nest(nest, tile, 4, engine="fast", machine=machine)

    def test_rejects_unknown_engine(self):
        nest = PROGRAMS["example8"]()
        with pytest.raises(SimulationError, match="unknown engine"):
            simulate_nest(nest, _half_tile(nest), 4, engine="warp")


def test_fast_supports_empty_processors():
    """More processors than tiles: some streams are empty."""
    nest = PROGRAMS["example3"]()
    tile = RectangularTile([int(n) for n in nest.space.extents])  # one tile
    fast, exact = (
        simulate_nest(nest, tile, 4, engine=e) for e in ("fast", "exact")
    )
    assert fast == exact
    assert sum(1 for p in fast.processors if p.iterations == 0) == 3


def test_results_identical_matrix_is_deep():
    """Spot-check a handful of derived quantities, not just __eq__."""
    nest = PROGRAMS["matmul_sync"]()
    fast, exact = assert_parity(nest, _half_tile(nest), 4)
    assert fast.total_accesses == exact.total_accesses
    assert fast.miss_rate == exact.miss_rate
    assert fast.shared_elements == exact.shared_elements
    assert [p.footprint for p in fast.processors] == [
        p.footprint for p in exact.processors
    ]
    assert np.isclose(
        fast.mean_misses_per_processor(), exact.mean_misses_per_processor()
    )


class TestEngineObservability:
    """The auto-fallback decision is recorded, not silent (SimulationResult
    engine fields, the machine metrics registry, and a log warning)."""

    def test_fast_path_records_engine(self):
        nest = PROGRAMS["example8"]()
        r = simulate_nest(nest, _half_tile(nest), 4, engine="fast")
        assert r.engine == "fast"
        assert r.engine_fallback is None

    def test_auto_fallback_reason_recorded(self, caplog):
        import logging

        from repro.sim.fast import fast_path_blockers

        nest = PROGRAMS["example8"]()
        machine = _machine(4, cache_capacity=64)
        assert fast_path_blockers(machine) == ["finite cache capacity (64 lines)"]
        with caplog.at_level(logging.WARNING):
            r = simulate_nest(
                nest, _half_tile(nest), 4, engine="auto", machine=machine
            )
        assert r.engine == "exact"
        assert "finite cache capacity" in r.engine_fallback
        assert "fell back to the exact engine" in caplog.text
        assert machine.engine_fallbacks == {"finite cache capacity (64 lines)": 1}

    def test_explicit_fast_error_names_blockers(self):
        nest = PROGRAMS["example8"]()
        with pytest.raises(SimulationError, match="caching disabled"):
            simulate_nest(
                nest,
                _half_tile(nest),
                4,
                engine="fast",
                machine=_machine(4, cache_enabled=False),
            )

    def test_engine_fields_do_not_break_parity(self):
        """engine/engine_fallback are excluded from equality: fast and
        exact results still compare equal."""
        nest = PROGRAMS["example8"]()
        tile = _half_tile(nest)
        fast = simulate_nest(nest, tile, 4, engine="fast")
        exact = simulate_nest(nest, tile, 4, engine="exact")
        assert fast.engine != exact.engine
        assert fast == exact

