"""End-to-end tests of the cluster front tier (``repro route``).

An :class:`~repro.serve.cluster.EmbeddedRouter` over two
:class:`~repro.serve.server.EmbeddedServer` replicas, all over real
sockets — the same paths ``repro loadgen --cluster`` exercises — plus
pure-function tests of rendezvous hashing, ejection/failover tests, the
``/healthz`` readiness window.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

import pytest

from repro.obs import parse_prometheus_text
from repro.serve import (
    EmbeddedRouter,
    EmbeddedServer,
    RouterConfig,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.serve.cluster import rendezvous_order

FAST_SOURCE = "Doall (i, 1, 8)\n  A[i] = B[i]\nEndDoall\n"

EX3_SOURCE = (
    "Doall (i, 1, N)\n"
    "  Doall (j, 1, N)\n"
    "    A[i,j] = B[i,j] + B[i+1,j+3]\n"
    "  EndDoall\n"
    "EndDoall\n"
)

def _wait_ready(port: int, timeout_s: float = 60.0, *, want: bool = True) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with ServeClient("127.0.0.1", port, timeout=5.0) as c:
            h = c.healthz()
        if bool(h.get("ready")) == want:
            return h
        time.sleep(0.05)
    pytest.fail(f"port {port} never reached ready={want} within {timeout_s}s")


def _raw_request(
    port: int, method: str, path: str, body: dict | None = None,
    headers: dict | None = None,
) -> tuple[int, dict, bytes]:
    """Speak HTTP directly so response *bytes* and headers are visible."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, {k.lower(): v for k, v in resp.getheaders()}, raw
    finally:
        conn.close()


class TestRendezvous:
    ADDRS = [f"10.0.0.{i}:8787" for i in range(1, 6)]

    def test_deterministic(self):
        for key in ("a", "b", "('src', 4)"):
            assert rendezvous_order(key, self.ADDRS) == rendezvous_order(
                key, list(reversed(self.ADDRS))
            )

    def test_removal_only_remaps_removed_keys(self):
        keys = [f"key-{i}" for i in range(200)]
        full = {k: rendezvous_order(k, self.ADDRS) for k in keys}
        removed = self.ADDRS[2]
        survivors = [a for a in self.ADDRS if a != removed]
        for k in keys:
            expect = [a for a in full[k] if a != removed]
            assert rendezvous_order(k, survivors) == expect
            # In particular the winning shard only changes for keys the
            # removed replica owned.
            if full[k][0] != removed:
                assert expect[0] == full[k][0]

    def test_spreads_keys(self):
        keys = [f"key-{i}" for i in range(500)]
        owners = {a: 0 for a in self.ADDRS}
        for k in keys:
            owners[rendezvous_order(k, self.ADDRS)[0]] += 1
        # Every replica owns a non-trivial share of a 500-key universe.
        assert all(n >= 25 for n in owners.values()), owners


class TestRouterConfig:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one replica"):
            RouterConfig(replicas=())

    def test_rejects_malformed_address(self):
        with pytest.raises(ValueError, match="HOST:PORTA"):
            RouterConfig(replicas=("HOST:PORTA",))
        with pytest.raises(ValueError, match="HOST:PORT"):
            RouterConfig(replicas=("no-port",))

    def test_rejects_duplicate_address(self):
        with pytest.raises(ValueError, match="duplicate"):
            RouterConfig(replicas=("h:1", "h:1"))


@pytest.fixture(scope="module")
def cluster():
    """Two warm replicas behind a router, torn down router-first."""
    replicas = [EmbeddedServer(ServeConfig(port=0, workers=1)) for _ in range(2)]
    router = None
    try:
        for r in replicas:
            r.start()
        for r in replicas:
            _wait_ready(r.port)
        router = EmbeddedRouter(
            RouterConfig(
                port=0,
                replicas=tuple(f"127.0.0.1:{r.port}" for r in replicas),
                health_interval_s=0.1,
            )
        ).start()
        yield router, replicas
    finally:
        if router is not None:
            router.stop()
        for r in replicas:
            r.stop()


class TestRouting:
    def test_healthz_shape(self, cluster):
        router, replicas = cluster
        with ServeClient("127.0.0.1", router.port) as c:
            h = c.healthz()
        assert h["status"] == "ok" and h["router"] is True
        assert h["ready"] is True
        assert h["replicas_total"] == 2 and h["replicas_routable"] == 2
        addresses = {entry["address"] for entry in h["replicas"]}
        assert addresses == {f"127.0.0.1:{r.port}" for r in replicas}
        assert all(e["healthy"] and e["ready"] for e in h["replicas"])

    def test_response_bytes_match_owning_replica(self, cluster):
        router, _replicas = cluster
        body = {"source": EX3_SOURCE, "processors": 9, "bindings": {"N": 30}}
        status, headers, routed = _raw_request(
            router.port, "POST", "/v1/partition", body
        )
        assert status == 200
        owner = headers["x-repro-replica"]
        assert "x-repro-request-id" in headers
        owner_port = int(owner.rpartition(":")[2])
        status2, headers2, direct = _raw_request(
            owner_port, "POST", "/v1/partition", body
        )
        assert status2 == 200 and headers2["x-repro-cache"] == "hit"
        # The replica serves the retry from its response LRU, so the
        # routed body and the direct body are the same bytes: the router
        # forwarded the response verbatim.
        assert routed == direct

    def test_shard_affinity_is_stable(self, cluster):
        router, _replicas = cluster
        owners: dict[int, set[str]] = {}
        for p in (2, 3, 4, 5, 6, 7, 8, 9):
            for _ in range(2):
                _status, headers, _raw = _raw_request(
                    router.port, "POST", "/v1/partition",
                    {"source": FAST_SOURCE, "processors": p},
                )
                owners.setdefault(p, set()).add(headers["x-repro-replica"])
        # Every distinct key sticks to exactly one replica.
        assert all(len(seen) == 1 for seen in owners.values()), owners

    def test_cache_header_passthrough(self, cluster):
        router, _replicas = cluster
        body = {"source": FAST_SOURCE, "processors": 6, "label": "hdr"}
        _s, first, _r = _raw_request(router.port, "POST", "/v1/partition", body)
        _s, second, _r = _raw_request(router.port, "POST", "/v1/partition", body)
        assert first["x-repro-cache"] in ("miss", "hit")
        assert second["x-repro-cache"] == "hit"

    def test_request_id_propagates_and_trace_grafts(self, cluster):
        router, _replicas = cluster
        rid = "cluster-trace-1"
        status, headers, _raw = _raw_request(
            router.port, "POST", "/v1/partition",
            {"source": EX3_SOURCE, "processors": 9, "bindings": {"N": 26}},
            headers={"X-Repro-Request-Id": rid,
                     "Content-Type": "application/json"},
        )
        assert status == 200 and headers["x-repro-request-id"] == rid
        with ServeClient("127.0.0.1", router.port) as c:
            doc = c.debug_request(rid)
        record = doc["record"]
        assert record["request_id"] == rid
        assert record["replica"] == headers["x-repro-replica"]
        trace = doc["trace"]
        assert trace["name"] == "request" and trace["attrs"]["router"] is True
        (route_span,) = [
            ch for ch in trace["children"] if ch["name"] == "serve.route"
        ]
        assert route_span["attrs"]["replica"] == record["replica"]
        # The replica's own stitched trace hangs under serve.route: the
        # cross-process path is visible end to end from the router.
        (replica_root,) = route_span["children"]
        assert replica_root["name"] == "request"
        replica_names = {ch["name"] for ch in replica_root.get("children", [])}
        assert "serve.compute" in replica_names
        # ... and the replica kept its own record of the same request.
        assert doc["replica_record"]["request_id"] == rid

    def test_422_served_by_router_without_replica_roundtrip(self, cluster):
        router, _replicas = cluster
        with ServeClient("127.0.0.1", router.port) as c:
            with pytest.raises(ServeError) as exc:
                c.partition(FAST_SOURCE, 0)
        assert exc.value.status == 422
        assert exc.value.payload["error"]["field"] == "processors"

    def test_404_and_405(self, cluster):
        router, _replicas = cluster
        with ServeClient("127.0.0.1", router.port) as c:
            with pytest.raises(ServeError) as exc:
                c.request("GET", "/nope")
            assert exc.value.status == 404
            with pytest.raises(ServeError) as exc:
                c.request("POST", "/healthz", {})
            assert exc.value.status == 405

    def test_merged_metrics_json(self, cluster):
        router, replicas = cluster
        with ServeClient("127.0.0.1", router.port) as c:
            c.partition(FAST_SOURCE, 4, label="metrics-warm")
            dump = c.metrics()
        assert dump["schema"] == "repro.serve-metrics"
        assert dump["server"]["router"] is True
        assert dump["server"]["workers"] == len(replicas)
        names = {e["name"] for e in dump["metrics"]}
        assert "route.requests" in names and "route.latency_ms" in names
        replica_labels = {
            e["labels"]["replica"]
            for e in dump["metrics"]
            if "replica" in e.get("labels", {})
        }
        assert replica_labels == {f"127.0.0.1:{r.port}" for r in replicas}
        # Aggregated caches: numeric leaves summed across the fleet.
        assert dump["caches"]["lattice_cache"]["entries"] >= 0
        assert len(dump["replicas"]) == len(replicas)
        assert {"p99_ms", "error_rate"} <= set(dump["slo"])

    def test_merged_prometheus_scrape_parses(self, cluster):
        router, replicas = cluster
        with ServeClient("127.0.0.1", router.port) as c:
            c.partition(FAST_SOURCE, 4, label="prom-warm")
            text = c.metrics_text()
        families = parse_prometheus_text(text)  # strict: raises on dupes
        assert "repro_route_requests" in families
        assert "repro_serve_requests" in families
        serve_requests = families["repro_serve_requests"]
        labels = {s.get("labels", {}).get("replica") for s in serve_requests["samples"]}
        assert {f"127.0.0.1:{r.port}" for r in replicas} <= labels

    def test_debug_requests_and_inflight(self, cluster):
        router, _replicas = cluster
        with ServeClient("127.0.0.1", router.port) as c:
            c.partition(FAST_SOURCE, 7, label="dbg")
            recent = c.debug_requests()
            inflight = c.debug_inflight()
        assert recent["schema"] == "repro.serve-debug-requests"
        assert any(r.get("replica") for r in recent["requests"])
        assert inflight["schema"] == "repro.serve-debug-inflight"
        assert inflight["admitted"] == 0


class TestFailoverAndReadmission:
    def test_ejection_reroutes_to_survivor(self):
        replicas = [EmbeddedServer(ServeConfig(port=0, workers=1)) for _ in range(2)]
        router = None
        try:
            for r in replicas:
                r.start()
            for r in replicas:
                _wait_ready(r.port)
            router = EmbeddedRouter(
                RouterConfig(
                    port=0,
                    replicas=tuple(f"127.0.0.1:{r.port}" for r in replicas),
                    health_interval_s=0.1,
                    eject_after=2,
                )
            ).start()
            survivor = f"127.0.0.1:{replicas[0].port}"
            replicas[1].stop()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with ServeClient("127.0.0.1", router.port) as c:
                    h = c.healthz()
                if h["replicas_routable"] == 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("dead replica never ejected")
            ejected = [e for e in h["replicas"] if not e["healthy"]]
            assert len(ejected) == 1 and ejected[0]["ejections"] == 1
            # Every key now lands on the survivor; zero requests fail.
            for p in (2, 3, 4, 5, 6):
                status, headers, _raw = _raw_request(
                    router.port, "POST", "/v1/partition",
                    {"source": FAST_SOURCE, "processors": p},
                )
                assert status == 200
                assert headers["x-repro-replica"] == survivor
        finally:
            if router is not None:
                router.stop()
            for r in replicas:
                r.stop()

    def test_dead_at_boot_then_readmitted(self):
        # Reserve a port for the replica that is down when the router
        # boots, then bring it up and watch the router re-admit it.
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            reserved = s.getsockname()[1]
        live = EmbeddedServer(ServeConfig(port=0, workers=1)).start()
        router = late = None
        try:
            _wait_ready(live.port)
            router = EmbeddedRouter(
                RouterConfig(
                    port=0,
                    replicas=(
                        f"127.0.0.1:{live.port}",
                        f"127.0.0.1:{reserved}",
                    ),
                    health_interval_s=0.1,
                    eject_after=1,
                    readmit_after=2,
                )
            ).start()
            with ServeClient("127.0.0.1", router.port) as c:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    h = c.healthz()
                    if h["replicas_routable"] == 1:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("down-at-boot replica never ejected")
                # Requests flow through the one live replica meanwhile.
                assert c.partition(FAST_SOURCE, 3)["schema"] == "repro.run-report"
                late = EmbeddedServer(ServeConfig(port=reserved, workers=1)).start()
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    h = c.healthz()
                    if h["replicas_routable"] == 2:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("recovered replica never re-admitted")
                entry = next(
                    e for e in h["replicas"]
                    if e["address"] == f"127.0.0.1:{reserved}"
                )
                assert entry["healthy"] and entry["ready"]
        finally:
            if router is not None:
                router.stop()
            if late is not None:
                late.stop()
            live.stop()

    def test_all_replicas_down_is_typed_503(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead = s.getsockname()[1]
        router = EmbeddedRouter(
            RouterConfig(
                port=0,
                replicas=(f"127.0.0.1:{dead}",),
                health_interval_s=0.2,
                eject_after=1,
            )
        ).start()
        try:
            with ServeClient("127.0.0.1", router.port) as c:
                assert c.healthz()["ready"] is False
                with pytest.raises(ServeError) as exc:
                    c.partition(FAST_SOURCE, 4)
            assert exc.value.status == 503
            assert exc.value.code == "no-replicas"
        finally:
            router.stop()


class TestReadiness:
    def test_healthz_not_ready_until_pool_hydrated(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_WORKER_INIT_DELAY_S", "1.5")
        with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
            with ServeClient("127.0.0.1", emb.port) as c:
                h = c.healthz()
                # The listener is up (status ok, requests would queue)
                # but the pool is still hydrating: not ready yet.
                assert h["status"] == "ok"
                assert h["ready"] is False
            _wait_ready(emb.port)
            with ServeClient("127.0.0.1", emb.port) as c:
                assert c.healthz()["ready"] is True

    def test_router_holds_traffic_until_replica_warm(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_WORKER_INIT_DELAY_S", "1.5")
        emb = EmbeddedServer(ServeConfig(port=0, workers=1)).start()
        router = None
        try:
            router = EmbeddedRouter(
                RouterConfig(
                    port=0,
                    replicas=(f"127.0.0.1:{emb.port}",),
                    health_interval_s=0.1,
                )
            ).start()
            with ServeClient("127.0.0.1", router.port) as c:
                h = c.healthz()
                if not h["ready"]:  # still in the pre-warm window
                    with pytest.raises(ServeError) as exc:
                        c.partition(FAST_SOURCE, 4)
                    assert exc.value.status == 503
                    assert exc.value.code == "no-replicas"
                _wait_ready(router.port)
                report = c.partition(FAST_SOURCE, 4)
                assert report["schema"] == "repro.run-report"
        finally:
            if router is not None:
                router.stop()
            emb.stop()
