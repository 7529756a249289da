"""Tests for ``repro top`` and ``repro trace`` (src/repro/cli_top.py).

:func:`render_dashboard` is a pure function over the three endpoint
payloads, so most frames are asserted offline against canned documents;
``top_main --once`` and ``trace_main show`` then run once against a real
embedded server (the CI smoke path).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main as cli_main
from repro.cli_top import render_dashboard, top_main, trace_main
from repro.serve import EmbeddedServer, ServeClient, ServeConfig

SOURCE = "Doall (i, 1, 8)\n  A[i] = B[i]\nEndDoall\n"


def _dump(metrics=None, server=None, caches=None, slo=None):
    doc = {
        "schema": "repro.serve-metrics",
        "version": 1,
        "server": server or {
            "status": "ok", "uptime_s": 12.0, "workers": 2,
            "inflight": 1, "queue_depth": 64,
        },
        "metrics": metrics or [],
        "caches": caches or {"lattice_cache": {"entries": 9, "hits": 3, "misses": 1}},
    }
    if slo is not None:
        doc["slo"] = slo
    return doc


CANNED_METRICS = [
    {"name": "serve.requests", "type": "counter", "value": 40,
     "labels": {"endpoint": "/v1/partition"}},
    {"name": "serve.requests", "type": "counter", "value": 2,
     "labels": {"endpoint": "/healthz"}},
    {"name": "serve.rejected", "type": "counter", "value": 4},
    {"name": "serve.deadline_exceeded", "type": "counter", "value": 1},
    {"name": "serve.worker_deaths", "type": "counter", "value": 0},
    {"name": "serve.response_cache.hits", "type": "counter", "value": 30},
    {"name": "serve.response_cache.misses", "type": "counter", "value": 10},
    {"name": "serve.coalesced", "type": "counter", "value": 5},
    {"name": "serve.slo.error_burn", "type": "gauge", "value": 0.5},
    {"name": "serve.slo.latency_burn", "type": "gauge", "value": 2.0},
    {"name": "serve.latency_ms", "type": "histogram", "count": 40,
     "p50": 1.5, "p95": 20.0, "p99": 80.0, "max": 95.0,
     "labels": {"endpoint": "/v1/partition"}},
]


class TestRenderDashboard:
    def test_header_and_queue_lines(self):
        frame = render_dashboard(_dump(CANNED_METRICS), {}, {})
        assert "repro top — ok" in frame
        assert "workers 2" in frame
        assert "requests 42" in frame  # summed across endpoints
        assert "rejected(429) 4" in frame
        assert "deadline(504) 1" in frame

    def test_cache_line(self):
        frame = render_dashboard(_dump(CANNED_METRICS), {}, {})
        assert "response 30/40 hits (75%)" in frame
        assert "coalesced 5" in frame
        assert "lattice 9 entries (75% hit)" in frame

    def test_slo_line(self):
        dump = _dump(CANNED_METRICS, slo={"p99_ms": 1000.0, "error_rate": 0.01})
        frame = render_dashboard(dump, {}, {})
        assert "error burn 0.5×" in frame
        assert "latency burn 2.0×" in frame
        assert "p99 1000.0 ms" in frame

    def test_latency_table(self):
        frame = render_dashboard(_dump(CANNED_METRICS), {}, {})
        assert "/v1/partition" in frame
        row = next(ln for ln in frame.splitlines() if ln.startswith("/v1/partition"))
        assert "1.5" in row and "80.0" in row

    def test_throughput_needs_prev_sample(self):
        dump = _dump(CANNED_METRICS)
        assert "req/s" not in render_dashboard(dump, {}, {})
        frame = render_dashboard(dump, {}, {}, prev_requests=22, elapsed_s=2.0)
        assert "10.0 req/s" in frame

    def test_inflight_and_slowest_sections(self):
        debug = {"requests": [], "slowest": [
            {"request_id": "slow-1", "endpoint": "/v1/partition",
             "total_ms": 123.4, "cache": "miss", "status": 200},
        ]}
        inflight = {"inflight": [
            {"request_id": "live-1", "endpoint": "/v1/simulate", "age_ms": 45.6},
        ]}
        frame = render_dashboard(_dump(CANNED_METRICS), debug, inflight)
        assert "in flight (1):" in frame
        assert "live-1" in frame and "45.6 ms" in frame
        assert "slowest requests" in frame and "slow-1" in frame

    def test_recent_errors_section(self):
        debug = {"requests": [
            {"request_id": "bad-1", "endpoint": "/v1/partition",
             "status": 500, "error_code": "internal-error"},
            {"request_id": "ok-1", "endpoint": "/v1/partition", "status": 200},
        ], "slowest": []}
        frame = render_dashboard(_dump(CANNED_METRICS), debug, {})
        assert "recent errors:" in frame
        assert "bad-1" in frame and "[internal-error]" in frame
        assert "ok-1" not in frame.split("recent errors:")[1]

    def test_empty_payloads_render(self):
        frame = render_dashboard({}, {}, {})
        assert "repro top — ?" in frame


@pytest.fixture(scope="module")
def server():
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        with ServeClient("127.0.0.1", emb.port) as client:
            client.partition(SOURCE, 4, label="warm", request_id="top-warm-1")
        yield emb


class TestTopMain:
    def test_once_against_live_server(self, server):
        out = io.StringIO()
        rc = top_main(["--port", str(server.port), "--once"], out=out)
        assert rc == 0
        frame = out.getvalue()
        assert "repro top — ok" in frame
        assert "/v1/partition" in frame

    def test_unreachable_server(self):
        out = io.StringIO()
        rc = top_main(["--port", "1", "--once"], out=out)
        assert rc == 1
        assert "cannot reach" in out.getvalue()

    def test_bad_interval_rejected(self):
        with pytest.raises(SystemExit):
            top_main(["--interval", "0", "--once"], out=io.StringIO())

    def test_cli_dispatch(self, server):
        out = io.StringIO()
        rc = cli_main(["top", "--port", str(server.port), "--once"], out=out)
        assert rc == 0
        assert "repro top" in out.getvalue()


class TestTraceMain:
    def test_show_from_file(self, tmp_path):
        doc = {"schema": "repro.run-report", "spans": [
            {"name": "lang.parse", "duration_s": 0.001},
            {"name": "optimize.rectangular", "duration_s": 0.02,
             "children": [{"name": "lattice.memo", "duration_s": 0.004,
                           "attrs": {"calls": 12}}]},
        ]}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        rc = trace_main(["show", str(path)], out=out)
        assert rc == 0
        text = out.getvalue()
        assert "optimize.rectangular" in text and "×12" in text

    def test_show_from_live_server(self, server):
        out = io.StringIO()
        rc = trace_main(["show", "top-warm-1", "--port", str(server.port)], out=out)
        assert rc == 0
        text = out.getvalue()
        assert "request top-warm-1" in text
        assert "serve.compute" in text

    def test_unknown_id(self, server):
        out = io.StringIO()
        rc = trace_main(["show", "never-seen", "--port", str(server.port)], out=out)
        assert rc == 1
        assert "no request" in out.getvalue()

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = io.StringIO()
        assert trace_main(["show", str(path)], out=out) == 1

    def test_file_without_spans(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        out = io.StringIO()
        rc = trace_main(["show", str(path)], out=out)
        assert rc == 1
        assert "no span tree" in out.getvalue()

    def test_cli_dispatch(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"name": "request", "duration_s": 0.01}))
        out = io.StringIO()
        rc = cli_main(["trace", "show", str(path)], out=out)
        assert rc == 0
        assert "request" in out.getvalue()
