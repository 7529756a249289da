"""Unit tests for the PR-6 observability primitives.

Covers the flight recorder (ring, pinned exemplars, in-flight view,
burn rates), trace stitching and pretty-printing, the bounded-bucket
:class:`LatencyHistogram`, and the tracer's explicit root ring and
aggregated spans.
"""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    FlightRecorder,
    LatencyHistogram,
    format_span_tree,
    stitch_trace,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Tracer


def _finish(rec, record, **kw):
    defaults = dict(status=200, cache="miss", total_ms=1.0)
    defaults.update(kw)
    rec.finish(record, **defaults)


class TestFlightRecorder:
    def test_ring_keeps_newest(self):
        rec = FlightRecorder(4, trace_capacity=17)
        for i in range(6):
            _finish(rec, rec.begin(f"r{i}", "/v1/partition"))
        recent = rec.recent()
        assert [r["request_id"] for r in recent] == ["r5", "r4", "r3", "r2"]

    def test_recent_n_limits(self):
        rec = FlightRecorder(8)
        for i in range(5):
            _finish(rec, rec.begin(f"r{i}", "/v1/partition"))
        assert [r["request_id"] for r in rec.recent(2)] == ["r4", "r3"]

    def test_inflight_until_finished(self):
        rec = FlightRecorder(4)
        record = rec.begin("live-1", "/v1/simulate")
        live = rec.inflight()
        assert len(live) == 1
        assert live[0]["request_id"] == "live-1"
        assert live[0]["age_ms"] >= 0
        _finish(rec, record)
        assert rec.inflight() == []

    def test_get_returns_record_and_trace(self):
        rec = FlightRecorder(4)
        record = rec.begin("traced", "/v1/partition")
        _finish(rec, record, trace={"name": "request"})
        found = rec.get("traced")
        assert found["record"]["request_id"] == "traced"
        assert found["trace"] == {"name": "request"}
        assert rec.get("nope") is None

    def test_untraced_request_has_no_trace_key(self):
        rec = FlightRecorder(4)
        _finish(rec, rec.begin("plain", "/v1/partition"))
        assert "trace" not in rec.get("plain")

    def test_slowest_traces_survive_eviction(self):
        rec = FlightRecorder(64, trace_capacity=4, slowest=1, errors=1)
        _finish(rec, rec.begin("slow", "/x"), total_ms=500.0, trace={"name": "slow"})
        for i in range(10):
            _finish(rec, rec.begin(f"fast{i}", "/x"), total_ms=1.0,
                    trace={"name": f"fast{i}"})
        assert rec.get("slow")["trace"] == {"name": "slow"}  # pinned
        assert "trace" not in (rec.get("fast0") or {})  # evicted oldest-first
        assert rec.slowest()[0]["request_id"] == "slow"

    def test_errored_traces_survive_eviction(self):
        rec = FlightRecorder(64, trace_capacity=4, slowest=1, errors=1)
        _finish(rec, rec.begin("boom", "/x"), status=500, error_code="internal-error",
                total_ms=1.0, trace={"name": "boom"})
        for i in range(10):
            _finish(rec, rec.begin(f"ok{i}", "/x"), total_ms=2.0,
                    trace={"name": f"ok{i}"})
        assert rec.get("boom")["trace"] == {"name": "boom"}

    def test_trace_store_is_bounded(self):
        rec = FlightRecorder(64, trace_capacity=5, slowest=1, errors=1)
        for i in range(20):
            _finish(rec, rec.begin(f"r{i}", "/x"), total_ms=float(i),
                    trace={"name": f"r{i}"})
        retained = sum(1 for i in range(20) if "trace" in (rec.get(f"r{i}") or {}))
        assert retained <= 5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)
        with pytest.raises(ValueError):
            FlightRecorder(4, trace_capacity=4, slowest=2, errors=2)

    def test_burn_rates(self):
        rec = FlightRecorder(64)
        for i in range(8):
            _finish(rec, rec.begin(f"ok{i}", "/x"), total_ms=10.0)
        _finish(rec, rec.begin("slow", "/x"), total_ms=2000.0)
        _finish(rec, rec.begin("err", "/x"), status=500, error_code="internal-error",
                total_ms=10.0)
        burn = rec.burn_rates(slo_p99_ms=1000.0, slo_error_rate=0.1)
        assert burn["window_requests"] == 10
        assert burn["error_rate"] == 0.1
        assert burn["error_burn"] == 1.0  # burning exactly at budget
        # 1 of 10 requests over the p99 target vs the 1% the SLO allows.
        assert burn["slow_fraction"] == 0.1
        assert burn["latency_burn"] == 10.0

    def test_burn_rates_empty_window(self):
        burn = FlightRecorder(4).burn_rates(slo_p99_ms=100.0, slo_error_rate=0.01)
        assert burn["window_requests"] == 0
        assert burn["error_burn"] == 0.0 and burn["latency_burn"] == 0.0


class TestStitchTrace:
    def test_full_shape(self):
        worker = [{"name": "lang.parse", "duration_s": 0.001,
                   "attrs": {"request_id": "rid-1"}}]
        tree = stitch_trace(
            "rid-1", "/v1/partition", total_ms=12.0, status=200, cache="miss",
            queue_ms=2.0, compute_ms=9.0, worker_pid=1234, worker_spans=worker,
        )
        assert tree["name"] == "request"
        assert tree["attrs"] == {
            "request_id": "rid-1", "endpoint": "/v1/partition",
            "status": 200, "cache": "miss",
        }
        names = [c["name"] for c in tree["children"]]
        assert names == ["serve.queue", "serve.compute"]
        compute = tree["children"][1]
        assert compute["attrs"]["worker_pid"] == 1234
        assert compute["children"] == worker

    def test_minimal_shape(self):
        tree = stitch_trace("rid-2", "/healthz", total_ms=0.5, status=200)
        assert "children" not in tree

    def test_format_span_tree(self):
        tree = stitch_trace(
            "rid-3", "/v1/partition", total_ms=10.0, status=200, queue_ms=1.0,
            compute_ms=8.0,
            worker_spans=[{
                "name": "optimize.rectangular", "duration_s": 0.007,
                "children": [{"name": "lattice.memo", "duration_s": 0.002,
                              "attrs": {"calls": 40}}],
            }],
        )
        text = format_span_tree(tree)
        lines = text.splitlines()
        assert lines[0].startswith("request")
        assert any("├─" in ln or "└─" in ln for ln in lines)
        assert any("lattice.memo" in ln and "×40" in ln for ln in lines)
        # A list of roots renders too (worker span payloads are lists).
        assert "lang.parse" in format_span_tree([{"name": "lang.parse"}])


class TestLatencyHistogram:
    def test_counts_and_sum(self):
        h = LatencyHistogram("t")
        for v in (0.4, 3.0, 3.0, 700.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(706.4)
        assert h.vmin == pytest.approx(0.4) and h.vmax == pytest.approx(700.0)

    def test_quantiles_interpolate_within_buckets(self):
        h = LatencyHistogram("t")
        for v in range(1, 101):  # 1..100 ms
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(50.0, rel=0.25)
        assert h.quantile(0.99) == pytest.approx(99.0, rel=0.25)
        assert h.quantile(0.0) <= h.quantile(1.0) <= 100.0

    def test_overflow_bucket(self):
        h = LatencyHistogram("t")
        h.observe(1e9)  # beyond the largest edge
        buckets = h.cumulative_buckets()
        assert math.isinf(buckets[-1][0])
        assert buckets[-1][1] == 1 and buckets[-2][1] == 0
        assert h.quantile(0.99) == pytest.approx(1e9)

    def test_memory_is_bounded(self):
        h = LatencyHistogram("t")
        for v in range(10000):  # 10k distinct values, fixed bucket array
            h.observe(float(v))
        assert len(h.counts) == len(h.edges) + 1

    def test_to_dict_shape(self):
        h = LatencyHistogram("t")
        h.observe(5.0)
        d = h.to_dict()
        assert d["count"] == 1 and d["sum"] == 5.0
        assert {"p50", "p95", "p99", "max", "mean", "buckets"} <= set(d)
        assert d["buckets"][-1]["le"] == "+Inf"
        assert d["buckets"][-1]["count"] == 1

    def test_reset(self):
        h = LatencyHistogram("t")
        h.observe(5.0)
        h.reset()
        assert h.count == 0 and h.quantile(0.5) == 0.0

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram("t", edges=(5.0, 1.0))

    def test_registry_constructor(self):
        reg = MetricsRegistry()
        h = reg.latency_histogram("serve.latency_ms", endpoint="/x")
        assert reg.latency_histogram("serve.latency_ms", endpoint="/x") is h
        h.observe(2.0)
        snap = [e for e in reg.snapshot() if e["name"] == "serve.latency_ms"]
        assert snap[0]["type"] == "histogram"
        assert "buckets" in snap[0]  # fixed-bucket form, not exact bins


class TestTracerRing:
    def test_root_ring_evicts_oldest_and_counts(self):
        t = Tracer(max_roots=2)
        before = get_registry().counter("tracing.roots_evicted").value
        for i in range(5):
            with t.span(f"root-{i}"):
                pass
        assert [s.name for s in t.roots] == ["root-3", "root-4"]
        assert t.roots_evicted == 3
        assert get_registry().counter("tracing.roots_evicted").value == before + 3

    def test_max_roots_validation(self):
        with pytest.raises(ValueError):
            Tracer(max_roots=0)

    def test_aggregate_spans_merge_under_parent(self):
        t = Tracer()
        with t.span("parent"):
            for _ in range(4):
                with t.span("hot", aggregate=True):
                    pass
        (root,) = t.roots
        (agg,) = root.children
        assert agg.name == "hot" and agg.attrs["calls"] == 4
        assert agg.duration >= 0.0

    def test_aggregate_at_root_level(self):
        t = Tracer()
        for _ in range(3):
            with t.span("hot", aggregate=True):
                pass
        (root,) = t.roots
        assert root.attrs["calls"] == 3

    def test_non_aggregate_spans_stay_separate(self):
        t = Tracer()
        with t.span("parent"):
            with t.span("child"):
                pass
            with t.span("child"):
                pass
        (root,) = t.roots
        assert [c.name for c in root.children] == ["child", "child"]
