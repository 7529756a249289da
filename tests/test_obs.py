"""Tests for the observability layer (:mod:`repro.obs`).

Covers the three sub-layers on their own terms — span nesting and timing
monotonicity, metrics-registry semantics, report schema round-trip — and
their integration with the real pipeline (a simulated run feeding
:func:`~repro.obs.report.build_report`).
"""

import io
import json
import logging

import pytest

from repro.core.partitioner import LoopPartitioner
from repro.lang import compile_nest
from repro.obs import (
    REPORT_SCHEMA,
    REPORT_VERSION,
    Counter,
    EventTraceWriter,
    MetricsRegistry,
    ReportError,
    Tracer,
    build_report,
    configure_logging,
    dump_report,
    get_logger,
    load_report,
    validate_report,
)
from repro.sim import simulate_nest

STENCIL = """
Doall (i, 1, 12)
  Doall (j, 1, 12)
    A(i,j) = B(i-1,j) + B(i,j+1) + B(i+1,j)
  EndDoall
EndDoall
"""


@pytest.fixture
def pipeline():
    nest = compile_nest(STENCIL)
    result = LoopPartitioner(nest, processors=4).partition()
    sim = simulate_nest(nest, result.tile, 4, sweeps=2)
    return nest, result, sim


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTracing:
    def test_nesting_structure(self):
        t = Tracer()
        with t.span("outer", depth=0):
            with t.span("inner.a"):
                pass
            with t.span("inner.b"):
                pass
        assert len(t.roots) == 1
        root = t.roots[0]
        assert root.name == "outer"
        assert root.attrs == {"depth": 0}
        assert [c.name for c in root.children] == ["inner.a", "inner.b"]
        assert [s.name for s in t.walk()] == ["outer", "inner.a", "inner.b"]

    def test_timing_monotonicity(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                sum(range(1000))
        root = t.roots[0]
        inner = root.children[0]
        # Every span closes after it opens, children nest inside parents.
        assert root.end >= root.start
        assert inner.start >= root.start
        assert inner.end <= root.end
        assert 0 <= inner.duration <= root.duration

    def test_exception_still_closes_span(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("x")
        assert t.roots[0].end is not None
        # The stack unwound: the next span is a root, not a child of boom.
        with t.span("after"):
            pass
        assert [s.name for s in t.roots] == ["boom", "after"]

    def test_find_and_phase_totals(self):
        t = Tracer()
        for _ in range(3):
            with t.span("phase.x"):
                pass
        assert len(t.find("phase.x")) == 3
        assert set(t.phase_totals()) == {"phase.x"}
        assert t.phase_totals()["phase.x"] >= 0.0

    def test_to_dicts_shape(self):
        t = Tracer()
        with t.span("a", k=1):
            with t.span("b"):
                pass
        (d,) = t.to_dicts()
        assert d["name"] == "a"
        assert d["attrs"] == {"k": 1}
        assert d["duration_s"] >= 0.0
        assert d["children"][0]["name"] == "b"
        json.dumps(d)  # must be JSON-serialisable as-is

    def test_reset(self):
        t = Tracer()
        with t.span("a"):
            pass
        t.reset()
        assert len(t.roots) == 0

    def test_memory_profiling_attaches_rss(self):
        t = Tracer(profile_memory=True)
        with t.span("m"):
            pass
        # ru_maxrss is available on Linux/macOS; the field is an int there.
        rss = t.roots[0].peak_rss_kb
        assert rss is None or rss > 0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_int_protocol(self):
        """A counter is read through ``.value``; it is not an int."""
        c = Counter("c")
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(TypeError):
            int(c)
        with pytest.raises(TypeError):
            c + 1
        assert c != 3
        c.reset()
        assert c.value == 0

    def test_registry_get_or_create_identity(self):
        r = MetricsRegistry()
        a = r.counter("x", proc=0)
        b = r.counter("x", proc=0)
        assert a is b
        assert r.counter("x", proc=1) is not a
        with pytest.raises(TypeError):
            r.gauge("x", proc=0)  # same key, different type

    def test_total_and_by_label(self):
        r = MetricsRegistry()
        r.counter("m", proc=0).inc(2)
        r.counter("m", proc=1).inc(3)
        assert r.total("m") == 5
        assert r.by_label("m", "proc") == {0: 2, 1: 3}

    def test_snapshot_and_reset(self):
        r = MetricsRegistry()
        r.counter("a").inc(7)
        r.latency_histogram("b").observe(3)
        snap = r.snapshot()
        assert {s["name"] for s in snap} == {"a", "b"}
        json.dumps(snap)
        r.reset()
        assert r.counter("a").value == 0
        assert r.latency_histogram("b").count == 0


# ---------------------------------------------------------------------------
# Report schema
# ---------------------------------------------------------------------------

class TestReport:
    def test_round_trip(self, pipeline, tmp_path):
        nest, result, sim = pipeline
        report = build_report(processors=4, partition=result, sim=sim)
        path = tmp_path / "report.json"
        dump_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded == json.loads(json.dumps(report))  # lossless
        assert loaded["schema"] == REPORT_SCHEMA
        assert loaded["version"] == REPORT_VERSION
        for key in ("generated_by", "program", "predicted", "partition",
                    "measured", "prediction_error", "spans"):
            assert key in loaded

    def test_version_1_report_rejected(self, pipeline, tmp_path):
        """A version-1 file (with its ``metrics`` array) does not load, and
        the error names both versions."""
        nest, result, sim = pipeline
        report = build_report(processors=4, partition=result, sim=sim)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(dict(report, version=1, metrics=[])))
        with pytest.raises(ReportError, match=r"version 1 .*version 2"):
            load_report(str(path))

    def test_measured_matches_simulator(self, pipeline):
        _, result, sim = pipeline
        report = build_report(processors=4, partition=result, sim=sim)
        m = report["measured"]
        assert m["total_misses"] == sim.total_misses
        assert m["miss_breakdown"]["cold"] == int(sim.cold_misses)
        assert m["miss_breakdown"]["coherence"] == int(sim.coherence_misses)
        assert len(m["per_processor"]) == 4
        per_proc_totals = {
            p["processor"]: sum(p["miss_breakdown"].values())
            for p in m["per_processor"]
        }
        # Classified misses reconcile with read+write misses per processor.
        for p in sim.processors:
            assert per_proc_totals[p.processor] == p.read_misses + p.write_misses
        recon = m["invalidation_reconciliation"]
        assert recon["reconciled"] is True

    def test_prediction_error_ratios(self, pipeline):
        _, result, sim = pipeline
        report = build_report(processors=4, partition=result, sim=sim)
        err = report["prediction_error"]["total_misses"]
        assert err["ratio"] == pytest.approx(
            err["measured"] / err["predicted"]
        )

    def test_analysis_only_report(self, pipeline):
        _, result, _ = pipeline
        report = build_report(processors=4, partition=result)
        assert "measured" not in report
        validate_report(report)

    def test_validate_rejects_bad_reports(self):
        with pytest.raises(ReportError):
            validate_report({"schema": REPORT_SCHEMA})  # missing keys
        with pytest.raises(ReportError):
            validate_report(
                {
                    "schema": "other",
                    "version": 1,
                    "generated_by": "x",
                    "program": {},
                    "predicted": {},
                }
            )
        with pytest.raises(ReportError):
            validate_report(
                {
                    "schema": REPORT_SCHEMA,
                    "version": REPORT_VERSION + 1,
                    "generated_by": "x",
                    "program": {},
                    "predicted": {},
                }
            )
        with pytest.raises(ReportError, match="'metrics' section"):
            validate_report(
                {
                    "schema": REPORT_SCHEMA,
                    "version": REPORT_VERSION,
                    "generated_by": "x",
                    "program": {},
                    "predicted": {},
                    "metrics": [],
                }
            )

    def test_build_report_requires_estimate(self):
        with pytest.raises(ReportError):
            build_report(processors=4)


# ---------------------------------------------------------------------------
# Event trace export
# ---------------------------------------------------------------------------

class TestEventTrace:
    def test_sampling_and_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with EventTraceWriter(str(path), every=3) as w:
            for i in range(10):
                w(proc=i % 2, array="A", coords=(i, 0), kind="read", hit=False)
        assert w.events_seen == 10
        assert w.events_written == 4  # seq 0, 3, 6, 9
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert [e["seq"] for e in lines] == [0, 3, 6, 9]
        assert lines[0] == {
            "seq": 0, "proc": 0, "array": "A",
            "coords": [0, 0], "kind": "read", "hit": False,
        }

    def test_limit(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with EventTraceWriter(str(path), limit=2) as w:
            for i in range(5):
                w(0, "A", (i,), "read", True)
        assert w.events_written == 2

    def test_bad_stride(self, tmp_path):
        with pytest.raises(ValueError):
            EventTraceWriter(str(tmp_path / "t.jsonl"), every=0)

    def test_simulator_observer_hook(self, pipeline, tmp_path):
        nest, result, _ = pipeline
        path = tmp_path / "trace.jsonl"
        with EventTraceWriter(str(path)) as w:
            sim = simulate_nest(nest, result.tile, 4, observer=w)
        assert w.events_seen == sim.total_accesses
        first = json.loads(path.read_text().splitlines()[0])
        assert first["array"] in {"A", "B"}


# ---------------------------------------------------------------------------
# Logging
# ---------------------------------------------------------------------------

class TestLogging:
    def test_logger_hierarchy(self):
        assert get_logger("sim.executor").name == "repro.sim.executor"

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        configure_logging("debug", stream=stream)
        configure_logging("debug", stream=stream)
        root = logging.getLogger("repro")
        tagged = [
            h for h in root.handlers if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(tagged) == 1
        get_logger("test").debug("hello %s", "world")
        assert "hello world" in stream.getvalue()
