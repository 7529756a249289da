"""Tests for the structure-keyed partition-plan tier (repro.core.plan).

Covers the canonical structure key (bounds/P invariance, reference-order
invariance, codec compatibility), exact plan-vs-numeric parity on the
paper's examples and a fuzzed sample (cost, grid, and tile must match
the numeric Theorem-4 optimizer bit-for-bit whenever a plan applies),
instantiation-time fallback taxonomy, the PlanCache counters and
cross-process stats shipping, persistence (v2 schema, v1 acceptance,
unknown-section preservation), the optimize_rectangular wiring, and the
``--inject-fault plan`` self-test plumbing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.check.generator import generate_case
from repro.core.classify import partition_references
from repro.core.optimize import optimize_rectangular
from repro.core.plan import (
    DEFAULT_PLAN_CACHE,
    SOLVER_VERSION,
    PlanCache,
    instantiate_plan,
    plan_optimize,
    solve_plan,
)
from repro.core.structure import class_descriptor, structure_key
from repro.lang import lower_nest, parse_program
from repro.lattice.persist import decode_key, encode_key

STENCIL = """\
Doall (i, 1, {n})
  Doall (j, 1, {n})
    A[i,j] = B[i+1,j] + B[i,j+2]
  EndDoall
EndDoall
"""

#: (file-relative source, bindings, processors) — the differential-test
#: example corpus, reused here as the plan-parity pinned set.
PAPER_EXAMPLES = [
    ("example2.doall", {}, 100),
    ("example3.doall", {"N": 36}, 9),
    ("example6.doall", {}, 25),
    ("example8.doall", {"N": 24}, 8),
    ("matmul.doall", {"N": 32}, 16),
]


def _classify(source: str, bindings: dict | None = None):
    nest = lower_nest(parse_program(source).nests[0], bindings or {})
    return nest, partition_references(nest.accesses)


def _example_path(name: str):
    from pathlib import Path

    return Path(__file__).resolve().parent.parent / "examples" / name


class TestStructureKey:
    def test_bounds_and_processors_abstracted(self):
        nest_a, sets_a = _classify(STENCIL.format(n=16))
        nest_b, sets_b = _classify(STENCIL.format(n=57))
        assert nest_a.space.extents.tolist() != nest_b.space.extents.tolist()
        assert structure_key(sets_a, nest_a.space.depth) == structure_key(
            sets_b, nest_b.space.depth
        )

    def test_offsets_change_key(self):
        _, sets_a = _classify(STENCIL.format(n=16))
        _, sets_b = _classify(
            STENCIL.format(n=16).replace("B[i+1,j]", "B[i+2,j]")
        )
        assert structure_key(sets_a, 2) != structure_key(sets_b, 2)

    def test_reference_order_immaterial(self):
        _, sets_a = _classify(STENCIL.format(n=16))
        _, sets_b = _classify(
            STENCIL.format(n=16).replace(
                "B[i+1,j] + B[i,j+2]", "B[i,j+2] + B[i+1,j]"
            )
        )
        assert structure_key(sets_a, 2) == structure_key(sets_b, 2)

    def test_translation_normalised(self):
        """A common offset translation never splits a family (Prop. 1)."""
        _, sets_a = _classify(STENCIL.format(n=16))
        _, sets_b = _classify(
            STENCIL.format(n=16).replace(
                "B[i+1,j] + B[i,j+2]", "B[i+4,j+3] + B[i+3,j+5]"
            )
        )
        assert structure_key(sets_a, 2) == structure_key(sets_b, 2)

    def test_key_survives_persist_codec(self):
        _, sets = _classify(STENCIL.format(n=16))
        key = structure_key(sets, 2)
        assert decode_key(encode_key(key)) == key

    def test_descriptor_covers_write_flag(self):
        _, sets = _classify(STENCIL.format(n=16))
        descs = [class_descriptor(s) for s in sets]
        assert {d[-1] for d in descs} == {0, 1}  # B read-only, A written


def _plan_vs_numeric(nest, uisets, processors):
    numeric = optimize_rectangular(
        uisets, nest.space, processors, scoring="theorem4"
    )
    planned = plan_optimize(
        uisets, nest.space, processors, cache=PlanCache()
    )
    return numeric, planned


class TestPlanParity:
    @pytest.mark.parametrize("filename,bindings,processors", PAPER_EXAMPLES)
    def test_paper_examples_exact(self, filename, bindings, processors):
        """On the paper's worked examples the plan is never a fallback
        and reproduces the numeric optimum exactly."""
        nest, uisets = _classify(_example_path(filename).read_text(), bindings)
        numeric, planned = _plan_vs_numeric(nest, uisets, processors)
        assert planned is not None, f"{filename}: unexpected plan fallback"
        assert planned.predicted_cost == numeric.predicted_cost
        assert tuple(planned.grid) == tuple(numeric.grid)
        assert planned.tile.sides.tolist() == numeric.tile.sides.tolist()
        assert np.allclose(planned.continuous_sides, numeric.continuous_sides)

    def test_fuzz_sample_parity(self):
        """Fuzzed nests: every applicable plan matches the numeric
        optimizer exactly; fallbacks only for declared reasons."""
        cache = PlanCache()
        applicable = fallbacks = 0
        for case_id in range(40):
            spec = generate_case(case_id, 0)
            nest, uisets = _classify(spec.source())
            try:
                numeric = optimize_rectangular(
                    uisets, nest.space, spec.processors, scoring="theorem4"
                )
            except Exception:
                continue
            planned = plan_optimize(
                uisets, nest.space, spec.processors, cache=cache
            )
            if planned is None:
                fallbacks += 1
                continue
            applicable += 1
            assert planned.predicted_cost == numeric.predicted_cost, spec.source()
            assert tuple(planned.grid) == tuple(numeric.grid), spec.source()
        assert applicable > 0
        # Acceptance gate: fallbacks stay a small minority.
        assert fallbacks < (applicable + fallbacks) * 0.2
        assert set(cache.fallback_reasons()) <= {
            "singular-class",
            "class-too-large",
            "line-range",
            "overflow",
            "no-feasible-grid",
        }

    def test_warm_hit_reuses_payload(self):
        nest, uisets = _classify(STENCIL.format(n=16))
        cache = PlanCache()
        first = plan_optimize(uisets, nest.space, 4, cache=cache)
        nest2, uisets2 = _classify(STENCIL.format(n=44))
        second = plan_optimize(uisets2, nest2.space, 9, cache=cache)
        assert first is not None and second is not None
        stats = cache.stats()
        assert stats == {
            "entries": 1, "hits": 1, "misses": 1, "loads": 0, "fallbacks": 0,
        }

    def test_payload_survives_json(self):
        """Plans persist as pure JSON; a round-tripped payload
        instantiates to the identical result."""
        nest, uisets = _classify(STENCIL.format(n=16))
        payload = solve_plan(uisets, nest.space.depth)
        rt = json.loads(json.dumps(payload))
        a, ra = instantiate_plan(payload, nest.space.extents, 4)
        b, rb = instantiate_plan(rt, nest.space.extents, 4)
        assert ra is None and rb is None
        assert a.predicted_cost == b.predicted_cost
        assert a.grid == b.grid


class TestInstantiationFallbacks:
    def _payload(self):
        nest, uisets = _classify(STENCIL.format(n=16))
        return solve_plan(uisets, nest.space.depth), nest

    def test_stale_payload_version(self):
        payload, nest = self._payload()
        payload = dict(payload, version=SOLVER_VERSION + 1)
        result, reason = instantiate_plan(payload, nest.space.extents, 4)
        assert result is None and reason == "stale-payload"

    def test_depth_mismatch(self):
        payload, _ = self._payload()
        result, reason = instantiate_plan(payload, [16, 16, 16], 4)
        assert result is None and reason == "depth-mismatch"

    def test_p_out_of_range(self):
        payload, nest = self._payload()
        result, reason = instantiate_plan(payload, nest.space.extents, 10**6)
        assert result is None and reason == "p-out-of-range"
        result, reason = instantiate_plan(payload, nest.space.extents, 0)
        assert result is None and reason == "p-out-of-range"

    def test_volume_overflow(self):
        payload, _ = self._payload()
        result, reason = instantiate_plan(payload, [2**21, 2**21], 4)
        assert result is None and reason == "overflow"

    def test_no_feasible_grid(self):
        payload, nest = self._payload()
        # 97 is prime and exceeds both extents: no grid factorisation
        # (but 97 < 16*16, so P itself is in range).
        result, reason = instantiate_plan(payload, [16, 16], 97)
        assert result is None and reason == "no-feasible-grid"


class TestPlanCache:
    def test_export_absorb_entries(self):
        nest, uisets = _classify(STENCIL.format(n=16))
        a = PlanCache()
        plan_optimize(uisets, nest.space, 4, cache=a)
        b = PlanCache()
        assert b.absorb_entries(a.export_entries()) == 1
        assert len(b) == 1 and b.loads == 1
        # Absorbing again (or junk) adds nothing.
        assert b.absorb_entries(a.export_entries()) == 0
        assert b.absorb_entries([("junk-key", "not-a-dict")]) == 0
        # The absorbed payload serves hits without re-solving.
        nest2, uisets2 = _classify(STENCIL.format(n=60))
        assert plan_optimize(uisets2, nest2.space, 4, cache=b) is not None
        assert b.stats()["hits"] == 1 and b.stats()["misses"] == 0

    def test_absorb_stats_delta(self):
        a = PlanCache()
        a.absorb_stats(
            {"hits": 3, "misses": 2, "fallbacks": 1,
             "fallback_reasons": {"singular-class": 1}}
        )
        assert a.stats()["hits"] == 3
        assert a.stats()["misses"] == 2
        assert a.stats()["fallbacks"] == 1
        assert a.fallback_reasons() == {"singular-class": 1}

    def test_clear_keeps_counters(self):
        nest, uisets = _classify(STENCIL.format(n=16))
        cache = PlanCache()
        plan_optimize(uisets, nest.space, 4, cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1

    def test_default_cache_in_analytic_stats(self):
        from repro.lattice import analytic_cache_stats

        stats = analytic_cache_stats()
        assert set(stats) == {"footprint_table", "lattice_cache", "plan"}
        assert set(stats["plan"]) == {
            "entries", "hits", "misses", "loads", "fallbacks",
        }


class TestOptimizeWiring:
    def test_plan_cache_argument_matches_numeric(self):
        nest, uisets = _classify(STENCIL.format(n=20))
        cache = PlanCache()
        with_plan = optimize_rectangular(
            uisets, nest.space, 4, scoring="theorem4", plan_cache=cache
        )
        without = optimize_rectangular(uisets, nest.space, 4, scoring="theorem4")
        assert with_plan.predicted_cost == without.predicted_cost
        assert tuple(with_plan.grid) == tuple(without.grid)
        assert cache.stats()["misses"] == 1
        # Warm path: the second call is a structure hit.
        optimize_rectangular(
            uisets, nest.space, 8, scoring="theorem4", plan_cache=cache
        )
        assert cache.stats()["hits"] == 1

    def test_plan_tier_skipped_for_exact_scoring(self):
        nest, uisets = _classify(STENCIL.format(n=8))
        cache = PlanCache()
        optimize_rectangular(
            uisets, nest.space, 4, scoring="exact", plan_cache=cache
        )
        assert cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "loads": 0, "fallbacks": 0,
        }

    def test_partitioner_forwards_plan_cache(self):
        from repro.core.partitioner import LoopPartitioner

        nest, _ = _classify(STENCIL.format(n=16))
        cache = PlanCache()
        result = LoopPartitioner(nest, 4).partition(plan_cache=cache)
        assert result.grid is not None
        assert len(cache) == 1


class TestPersistence:
    def test_plan_round_trip(self, tmp_path):
        from repro.lattice.persist import load_caches, save_caches
        from repro.lattice.points import FootprintTable, LatticeCountCache

        nest, uisets = _classify(STENCIL.format(n=16))
        a = PlanCache()
        plan_optimize(uisets, nest.space, 4, cache=a)
        save_caches(
            tmp_path,
            footprint_table=FootprintTable(),
            lattice_cache=LatticeCountCache(),
            plan_cache=a,
        )
        b = PlanCache()
        loaded = load_caches(
            tmp_path,
            footprint_table=FootprintTable(),
            lattice_cache=LatticeCountCache(),
            plan_cache=b,
        )
        assert loaded == 1 and len(b) == 1
        assert b.export_entries() == a.export_entries()
        # The reloaded plan instantiates without re-solving.
        nest2, uisets2 = _classify(STENCIL.format(n=48))
        assert plan_optimize(uisets2, nest2.space, 6, cache=b) is not None
        assert b.stats()["hits"] == 1 and b.stats()["misses"] == 0

    def test_v1_file_accepted(self, tmp_path):
        """A version-1 cache file (no plan section) still warm-starts
        the count caches."""
        from repro.lattice.persist import (
            CACHE_FILENAME,
            CACHE_SCHEMA,
            load_caches,
        )
        from repro.lattice.points import FootprintTable, LatticeCountCache

        doc = {
            "schema": CACHE_SCHEMA,
            "version": 1,
            "caches": {"lattice_cache": [[{"t": ["k", 3]}, 7.0]]},
        }
        (tmp_path / CACHE_FILENAME).write_text(json.dumps(doc))
        lc = LatticeCountCache()
        assert (
            load_caches(
                tmp_path,
                footprint_table=FootprintTable(),
                lattice_cache=lc,
                plan_cache=PlanCache(),
            )
            == 1
        )
        assert lc.get_or_compute(("k", 3), lambda: 0) == 7.0

    def test_unknown_sections_preserved(self, tmp_path):
        """A section written by a newer version survives our merge-write
        verbatim (forward compatibility)."""
        from repro.lattice.persist import (
            CACHE_FILENAME,
            CACHE_SCHEMA,
            CACHE_VERSION,
            save_caches,
        )
        from repro.lattice.points import FootprintTable, LatticeCountCache

        doc = {
            "schema": CACHE_SCHEMA,
            "version": CACHE_VERSION,
            "caches": {"future_cache": [["some-key", {"v": [1, 2]}]]},
        }
        (tmp_path / CACHE_FILENAME).write_text(json.dumps(doc))
        ft, lc = FootprintTable(), LatticeCountCache()
        ft.lookup([2], [4])
        save_caches(
            tmp_path, footprint_table=ft, lattice_cache=lc, plan_cache=PlanCache()
        )
        data = json.loads((tmp_path / CACHE_FILENAME).read_text())
        assert data["caches"]["future_cache"] == [["some-key", {"v": [1, 2]}]]
        assert "plan_cache" in data["caches"]


class TestFaultSelfTest:
    def test_plan_fault_is_scoped(self):
        from repro.check.harness import inject_fault
        from repro.core import plan as _plan

        orig = _plan.instantiate_plan
        with inject_fault("plan"):
            assert _plan.instantiate_plan is not orig
        assert _plan.instantiate_plan is orig

    def test_plan_fault_breaks_parity(self):
        from repro.check.harness import inject_fault

        nest, uisets = _classify(STENCIL.format(n=16))
        numeric = optimize_rectangular(uisets, nest.space, 4, scoring="theorem4")
        with inject_fault("plan"):
            planned = plan_optimize(uisets, nest.space, 4, cache=PlanCache())
            assert planned is not None
            assert planned.predicted_cost != numeric.predicted_cost

    def test_check_detects_plan_fault(self):
        from repro.check.harness import CheckConfig, run_check

        report = run_check(
            cases=5, seed=0, fault="plan", config=CheckConfig(shrink_budget=30)
        )
        assert report["failed"] >= 1
        assert any(
            f["invariant"] == "plan-parity" for f in report["failures"]
        )


class TestDefaultCacheHygiene:
    def test_spread_fault_clears_default_plan_cache(self):
        """Faulted solve payloads must never leak out of the faulted
        region into the process-wide default cache."""
        from repro.check.harness import inject_fault

        nest, uisets = _classify(STENCIL.format(n=16))
        with inject_fault("spread"):
            plan_optimize(uisets, nest.space, 4, cache=DEFAULT_PLAN_CACHE)
            assert len(DEFAULT_PLAN_CACHE) >= 1
        assert len(DEFAULT_PLAN_CACHE) == 0
