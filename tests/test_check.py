"""Tests for the differential self-check subsystem (:mod:`repro.check`)."""

import numpy as np
import pytest

from repro.check import (
    CaseSpec,
    ClassSpec,
    CheckConfig,
    check_main,
    generate_case,
    load_corpus,
    run_case,
    run_check,
    save_corpus,
    shrink,
    spec_from_dict,
    spec_to_dict,
)
from repro.check.harness import inject_fault
from repro.lang.parser import parse_program
from repro.obs.report import (
    CHECK_REPORT_SCHEMA,
    build_check_report,
    dump_report,
    load_report,
    validate_check_report,
)

CORPUS = "tests/data/check_corpus.json"


class TestGenerator:
    def test_deterministic(self):
        for cid in range(10):
            a = generate_case(cid, seed=7)
            b = generate_case(cid, seed=7)
            assert a == b

    def test_seed_changes_cases(self):
        assert any(
            generate_case(cid, seed=0) != generate_case(cid, seed=1)
            for cid in range(10)
        )

    def test_declared_ranges(self):
        saw_depths, saw_lines = set(), set()
        for cid in range(60):
            s = generate_case(cid, seed=0)
            assert 1 <= s.depth <= 3
            assert 2 <= s.processors <= 16
            assert s.line_size in (1, 2, 4, 8)
            assert s.total_accesses <= 6000
            assert any(k != "read" for c in s.classes for k in c.kinds)
            for c in s.classes:
                assert len(c.g) == s.depth
            saw_depths.add(s.depth)
            saw_lines.add(s.line_size)
        assert saw_depths == {1, 2, 3}
        assert len(saw_lines) > 1

    def test_access_cap_respected(self):
        s = generate_case(0, seed=0, max_accesses=200)
        assert s.total_accesses <= 200

    def test_source_parses(self):
        for cid in range(20):
            s = generate_case(cid, seed=3)
            program = parse_program(s.source())
            assert len(program.nests) == 1


class TestRunCheck:
    def test_small_run_green(self):
        report = run_check(cases=10, seed=0)
        assert report["failed"] == 0
        assert report["passed"] == 10
        validate_check_report(report)
        # Every oracle family actually fired.
        evals = report["invariant_evaluations"]
        for name in (
            "parse-roundtrip",
            "engine-parity",
            "union-bound",
            "rect-integerisation",
            "codegen-coverage",
            "fills-ge-distinct-lines",
        ):
            assert evals.get(name, 0) > 0, name

    def test_corpus_replay_green(self):
        """Tier-1 regression: every pinned corpus case keeps passing."""
        report = run_check(cases=0, seed=0, corpus_path=CORPUS)
        assert report["failed"] == 0, report["failures"]
        assert report["cases"] == len(load_corpus(CORPUS))

    def test_report_schema_roundtrip(self, tmp_path):
        report = run_check(cases=2, seed=0)
        assert report["schema"] == CHECK_REPORT_SCHEMA
        path = tmp_path / "check.json"
        dump_report(report, path)
        assert load_report(path) == report

    def test_check_main_cli(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = check_main(
            ["--cases", "3", "--seed", "0", "--json-report", str(out)]
        )
        assert rc == 0
        assert "3 passed, 0 failed" in capsys.readouterr().out
        assert load_report(out)["passed"] == 3


class TestFaultInjection:
    def test_spread_fault_caught_and_shrunk(self):
        """A deliberately perturbed spread coefficient must be detected and
        the witness shrunk to a <= 2-deep nest (acceptance criterion)."""
        report = run_check(
            cases=12,
            seed=0,
            fault="spread",
            config=CheckConfig(shrink_budget=120),
        )
        assert report["failed"] >= 1
        assert report["injected_fault"] == "spread"
        f = report["failures"][0]
        assert f["invariant"] == "theorem4-ge-exact"
        assert f["shrunk_depth"] <= 2
        assert f["shrink_steps"] >= 1
        parse_program(f["shrunk_source"])  # witness is a valid program

    def test_exact_count_fault_caught(self):
        report = run_check(
            cases=2,
            seed=0,
            fault="exact-count",
            config=CheckConfig(shrink_budget=40),
        )
        assert report["failed"] >= 1

    def test_engine_fault_caught(self):
        """One sharer bit cleared in one deferred read-only record of the
        fast engine is caught by ``engine-parity``."""
        report = run_check(
            cases=4,
            seed=0,
            fault="engine",
            config=CheckConfig(shrink_budget=40),
        )
        assert report["failed"] >= 1
        assert {f["invariant"] for f in report["failures"]} == {"engine-parity"}

    def test_footprint_fault_caught(self):
        """One extra element in the origin processor's footprint (shared
        by both engines, so parity cannot see it) is caught by the
        footprint oracles."""
        report = run_check(
            cases=2,
            seed=0,
            fault="footprint",
            config=CheckConfig(shrink_budget=20),
        )
        assert report["failed"] >= 1
        caught = {v["invariant"] for v in report["failures"][0]["all_violations"]}
        assert caught & {"origin-tile-footprint-exact", "footprint-upper"}
        assert "engine-parity" not in caught

    def test_classify_fault_caught(self):
        """Dropping the cached-SNF solutions splits classes that should
        merge; ``classification-exact`` (Hermite form, no SNF) flags it."""
        report = run_check(
            cases=3,
            seed=0,
            fault="classify",
            config=CheckConfig(shrink_budget=40),
        )
        assert report["failed"] >= 1
        assert "classification-exact" in {f["invariant"] for f in report["failures"]}

    def test_sumset_fault_caught(self):
        """Dropping one Minkowski summand undercounts dependent-row
        footprints; ``whole-space-footprint`` (the simulator's streams)
        flags it."""
        report = run_check(
            cases=1,
            seed=0,
            fault="sumset",
            config=CheckConfig(shrink_budget=20),
        )
        assert report["failed"] == 1
        caught = {v["invariant"] for v in report["failures"][0]["all_violations"]}
        assert "whole-space-footprint" in caught

    def test_sumset_fault_is_scoped(self):
        from repro.lattice.points import DEFAULT_LATTICE_CACHE

        g, ext = [[1, 0], [0, 1], [0, 0]], [3, 3, 3]
        with inject_fault("sumset"):
            assert DEFAULT_LATTICE_CACHE.count_distinct_images(g, ext) == 4
        assert DEFAULT_LATTICE_CACHE.count_distinct_images(g, ext) == 16

    def test_classification_exact_checks_both_directions(self):
        """A class holding non-intersecting members and two classes that
        should be one are both violations; the true partition is not."""
        from repro.check.invariants import CaseArtifacts, check_classification
        from repro.core.affine import AffineRef, ArrayAccess
        from repro.core.classify import UISet, partition_references

        def refs(*offsets, g=((2,),)):
            return [ArrayAccess(AffineRef("A", g, [o])) for o in offsets]

        def violations(uisets, accesses):
            nest = type("Nest", (), {"accesses": accesses})()
            art = CaseArtifacts(None, nest, uisets, None, None, None, None, None, None, None, None)
            check_classification(art)
            assert art.tally.counts["classification-exact"] == 1
            return [v.detail for v in art.violations]

        acc = refs(0, 1, 2)  # A[2i], A[2i+1], A[2i+2]
        assert violations(partition_references(acc), acc) == []
        joined = violations([UISet(tuple(acc[:2])), UISet((acc[2],))], acc)
        assert any("do not intersect uniformly" in d for d in joined)
        split = violations([UISet((acc[0],)), UISet((acc[1],)), UISet((acc[2],))], acc)
        assert any("were not merged" in d for d in split)

    def test_classify_fault_is_scoped(self):
        from repro.core.affine import AffineRef
        from repro.core.classify import partition_references

        refs = [AffineRef("B", np.eye(2, dtype=int), [0, 0]),
                AffineRef("B", np.eye(2, dtype=int), [2, 1])]
        with inject_fault("classify"):
            assert len(partition_references(refs)) == 2
        assert len(partition_references(refs)) == 1

    def test_objective_check_does_not_trust_the_shared_objective(self, monkeypatch):
        """``pepiped-objective-consistent`` recomputes every claim with a
        freshly compiled objective: a portfolio whose shared compiled
        objective under-reports 4x is flagged."""
        from repro.core import optimize as _opt
        from repro.core.cumulative import Theorem2Objective

        class UnderReporting(Theorem2Objective):
            def __call__(self, l_flat):
                return 0.25 * super().__call__(l_flat)

        monkeypatch.setattr(_opt, "Theorem2Objective", UnderReporting)
        art = run_case(generate_case(45, seed=0))
        assert art.pepiped is not None
        assert "pepiped-objective-consistent" in {v.invariant for v in art.violations}

    def test_spread_fault_leaves_no_faulted_u_cached(self):
        """A class whose ``u`` is first read inside the fault reads its
        real ``u`` after the context exits."""
        from repro.core.affine import AffineRef
        from repro.core.classify import partition_references

        def stencil():
            refs = [AffineRef("B", np.eye(2, dtype=int), [0, 0]),
                    AffineRef("B", np.eye(2, dtype=int), [2, 1])]
            return partition_references(refs)[0]

        s = stencil()
        with inject_fault("spread"):
            assert s.u.tolist() == [0.5, 0.25]
        assert s.u.tolist() == [2.0, 1.0]
        assert stencil().u.tolist() == [2.0, 1.0]

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            with inject_fault("nope"):
                pass

    def test_fault_is_scoped(self):
        """The patch is undone when the context exits."""
        from repro.core.classify import UISet

        orig = UISet.__dict__["u"]
        with inject_fault("spread"):
            assert UISet.__dict__["u"] is not orig
        assert UISet.__dict__["u"] is orig


class TestShrink:
    def test_shrinks_to_minimal_volume(self):
        """Artificial predicate: fails while the volume is >= 12."""
        spec = generate_case(4, seed=0)

        def fails(s):
            return "big" if s.volume >= 12 else None

        small, steps = shrink(spec, fails)
        assert steps > 0
        assert 12 <= small.volume < spec.volume
        # Fixpoint: no candidate shrinks further.
        again, more = shrink(small, fails)
        assert more == 0 or again.volume >= 12

    def test_passing_spec_untouched(self):
        spec = generate_case(0, seed=0)
        same, steps = shrink(spec, lambda s: None)
        assert same == spec and steps == 0

    def test_budget_caps_evaluations(self):
        spec = generate_case(4, seed=0)
        evals = []

        def fails(s):
            evals.append(1)
            return "always"

        shrink(spec, fails, budget=5)
        assert len(evals) <= 6  # initial check + budget

    def test_keeps_a_write(self):
        """Mutations never produce an all-read nest."""
        spec = generate_case(4, seed=0)
        small, _ = shrink(spec, lambda s: "always", budget=80)
        assert any(k != "read" for c in small.classes for k in c.kinds)


class TestCorpusFormat:
    def test_spec_dict_roundtrip(self):
        for cid in range(8):
            spec = generate_case(cid, seed=0)
            assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_save_load(self, tmp_path):
        path = tmp_path / "corpus.json"
        spec = CaseSpec(
            case_id=1,
            depth=1,
            extents=(4,),
            processors=2,
            line_size=1,
            sweeps=1,
            classes=(
                ClassSpec(
                    array="A", g=((1,),), offsets=((0,),), kinds=("write",)
                ),
            ),
        )
        save_corpus(path, [{"spec": spec_to_dict(spec), "note": "tiny"}])
        entries = load_corpus(path)
        assert len(entries) == 1
        assert spec_from_dict(entries[0]["spec"]) == spec

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other", "version": 1, "entries": []}')
        with pytest.raises(ValueError, match="not a check corpus"):
            load_corpus(path)


class TestCheckReport:
    def test_build_and_validate(self):
        report = build_check_report(
            cases=3,
            seed=1,
            passed=2,
            failures=[
                {
                    "case_id": 2,
                    "invariant": "union-bound",
                    "detail": "x",
                    "spec": {},
                }
            ],
        )
        validate_check_report(report)

    def test_failure_count_mismatch_rejected(self):
        report = build_check_report(cases=1, seed=0, passed=1, failures=[])
        report["failed"] = 3
        with pytest.raises(ValueError):
            validate_check_report(report)


class TestLineFootprintOracle:
    def test_exact_line_footprints_match_simulated_fills(self, example8_nest):
        """With line_size > 1 the per-processor line fills (misses minus
        upgrades) equal the exact cumulative *line* footprints evaluated at
        each processor's tile origin — alignment differences included
        (line_size 8 does not divide the tile side 12)."""
        from repro.core import RectangularTile, partition_references
        from repro.core.cumulative import cumulative_line_footprint_exact
        from repro.core.tiles import Tiling
        from repro.sim import Machine, MachineConfig, simulate_nest
        from repro.sim.trace import deal_tiles

        nest = example8_nest
        tile = RectangularTile([12, 12, 12])
        line_size = 8
        uisets = partition_references(nest.accesses)
        deal = deal_tiles(Tiling(nest.space, tile), 8)
        result = simulate_nest(
            nest,
            tile,
            8,
            machine=Machine(MachineConfig(processors=8, line_size=line_size)),
        )
        origins = {p: deal.block(p).min(axis=0) for p in range(8)}
        predictions = set()
        for p in result.processors:
            expected = sum(
                cumulative_line_footprint_exact(
                    s, tile, line_size, origin=origins[p.processor]
                )
                for s in uisets
            )
            fills = int(p.misses) - int(p.write_upgrades)
            assert fills == expected
            predictions.add(expected)
        # The misalignment really exercised the origin dependence.
        assert len(predictions) > 1

    def test_unit_lines_reduce_to_element_footprint(self, example2_nest):
        from repro.core import RectangularTile, partition_references
        from repro.core.cumulative import (
            cumulative_footprint_size_exact,
            cumulative_line_footprint_exact,
        )

        tile = RectangularTile([10, 10])
        for s in partition_references(example2_nest.accesses):
            assert cumulative_line_footprint_exact(
                s, tile, 1, origin=np.array([1, 1])
            ) == cumulative_footprint_size_exact(s, tile)
