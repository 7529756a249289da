"""Cross-process trace propagation through the serving stack.

The tentpole contract of the telemetry PR: a caller-supplied
``X-Repro-Request-Id`` travels server → worker pool → compute worker and
back, and ``GET /debug/requests/<id>`` returns ONE stitched span tree
containing both the server-side spans (``serve.queue``,
``serve.compute``) and the worker-side pipeline spans (``optimize.*``,
``lattice.*``) recorded in a different process — all tagged with the
same request id.  Runs at ``workers=2`` so the pool boundary is real.

The span *structure* must also be deterministic: identical programs
produce byte-identical trees once volatile fields (durations, pids,
ids) are stripped, whether the analytic caches were cold or warm —
that's what keeps the serve-vs-CLI differential suite stable with
tracing always on.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import EmbeddedServer, ServeClient, ServeConfig, ServeError

SOURCE = (
    "Doall (i, 1, N)\n"
    "  Doall (j, 1, N)\n"
    "    A(i,j) = B(i-1,j) + B(i,j+1) + B(i+1,j)\n"
    "  EndDoall\n"
    "EndDoall\n"
)

#: Diagonal references have dependent rows, so the optimizer must call
#: the memoised lattice kernels — the trace gets ``lattice.*`` spans.
#: (Full-rank stencils like SOURCE resolve through Theorem-5 closed
#: forms and never touch the lattice cache.)
LATTICE_SOURCE = (
    "Doall (i, 1, N)\n"
    "  Doall (j, 1, N)\n"
    "    A(i+j) = A(i+j) + B(i-j)\n"
    "  EndDoall\n"
    "EndDoall\n"
)


@pytest.fixture(scope="module")
def server():
    with EmbeddedServer(ServeConfig(port=0, workers=2)) as emb:
        yield emb


@pytest.fixture
def client(server):
    with ServeClient("127.0.0.1", server.port) as c:
        yield c


def _names(node: dict) -> set[str]:
    out = {node.get("name", "")}
    for child in node.get("children", []):
        out |= _names(child)
    return out


def _strip_volatile(node: dict) -> dict:
    """Drop timings/pids/ids so two structurally equal trees compare equal."""
    out = {"name": node.get("name")}
    attrs = {
        k: v
        for k, v in node.get("attrs", {}).items()
        if k not in ("request_id", "worker_pid")
    }
    if attrs:
        out["attrs"] = attrs
    if node.get("children"):
        out["children"] = [_strip_volatile(c) for c in node["children"]]
    return out


class TestRequestIds:
    def test_caller_id_echoed(self, client):
        client.partition(SOURCE, 3, bindings={"N": 12}, label="echo", request_id="trace-echo-1")
        assert client.last_request_id == "trace-echo-1"

    def test_server_mints_id_when_absent(self, client):
        client.partition(SOURCE, 3, bindings={"N": 12}, label="echo")
        assert client.last_request_id
        assert len(client.last_request_id) == 16

    def test_minted_ids_are_unique(self, client):
        ids = set()
        for _ in range(3):
            client.healthz()
            ids.add(client.last_request_id)
        assert len(ids) == 3

    def test_malformed_id_rejected_not_replaced(self, client):
        with pytest.raises(ServeError) as exc:
            client.partition(
                SOURCE, 3, bindings={"N": 12}, request_id="bad id\twith spaces"
            )
        assert exc.value.status == 400
        assert exc.value.code == "invalid-request"

    def test_overlong_id_rejected(self, client):
        with pytest.raises(ServeError) as exc:
            client.healthz()  # sanity: plain requests still fine
            client.request("GET", "/healthz", request_id="x" * 129)
        assert exc.value.status == 400


class TestStitchedTraces:
    def test_trace_contains_worker_spans_with_matching_id(self, client):
        rid = "trace-stitch-1"
        client.partition(
            LATTICE_SOURCE, 4, bindings={"N": 16}, label="stitch", request_id=rid
        )
        assert client.last_cache_status == "miss"

        found = client.debug_request(rid)
        assert found["schema"] == "repro.serve-debug-request"
        record = found["record"]
        assert record["request_id"] == rid
        assert record["status"] == 200 and record["cache"] == "miss"
        assert record["worker_pid"] is not None
        assert record["compute_ms"] >= 0 and record["queue_ms"] >= 0

        trace = found["trace"]
        assert trace["name"] == "request"
        assert trace["attrs"]["request_id"] == rid
        assert trace["attrs"]["endpoint"] == "/v1/partition"
        names = _names(trace)
        # Server-side spans...
        assert "serve.queue" in names and "serve.compute" in names
        # ...and the worker's pipeline spans, recorded in another process.
        assert any(n.startswith("optimize.") for n in names), sorted(names)
        assert any(n.startswith("lattice.") for n in names), sorted(names)

        # The worker stamped the same request id on its shipped roots.
        compute = next(c for c in trace["children"] if c["name"] == "serve.compute")
        assert compute["attrs"]["worker_pid"] == record["worker_pid"]
        worker_roots = compute.get("children", [])
        assert worker_roots, trace
        for root in worker_roots:
            assert root["attrs"]["request_id"] == rid

    def test_trace_structure_is_deterministic(self, client):
        """Same program twice (distinct cache keys): identical structure.

        The second request runs against warm analytic caches; the
        method-layer aggregate spans fire on hit and miss alike, so the
        stripped trees must be byte-identical.
        """
        trees = []
        for i in (1, 2):
            rid = f"trace-stable-{i}"
            client.partition(
                LATTICE_SOURCE, 6, bindings={"N": 20}, label=f"stable-{i}",
                request_id=rid,
            )
            assert client.last_cache_status == "miss"
            trees.append(_strip_volatile(client.debug_request(rid)["trace"]))
        a, b = (json.dumps(t, sort_keys=True) for t in trees)
        assert a == b

    def test_cache_hit_gets_record_but_no_duplicate_trace(self, client):
        client.partition(SOURCE, 8, bindings={"N": 12}, label="hit", request_id="trace-hit-0")
        client.partition(SOURCE, 8, bindings={"N": 12}, label="hit", request_id="trace-hit-1")
        assert client.last_cache_status == "hit"
        found = client.debug_request("trace-hit-1")
        assert found["record"]["cache"] == "hit"
        assert "trace" not in found  # the miss leader owns the tree

    def test_unknown_id_is_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.debug_request("never-seen")
        assert exc.value.status == 404

    def test_debug_requests_lists_recent(self, client):
        rid = "trace-listed-1"
        client.partition(SOURCE, 5, bindings={"N": 12}, label="listed", request_id=rid)
        dump = client.debug_requests()
        assert dump["schema"] == "repro.serve-debug-requests"
        assert any(r["request_id"] == rid for r in dump["requests"])
        assert isinstance(dump["slowest"], list)

    def test_debug_inflight_shape(self, client):
        dump = client.debug_inflight()
        assert dump["schema"] == "repro.serve-debug-inflight"
        assert isinstance(dump["inflight"], list)
        assert isinstance(dump["admitted"], int)
