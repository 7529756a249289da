"""``repro loadgen`` end to end, and the ``/metrics`` dump reader it uses.

The driver tests run ``loadgen_main`` with ``--json`` and assert what
CI's serve-smoke and cluster-smoke steps assert on that file.  The
reader tests run on a synthetic router dump: the router's own
``route.*`` series plus each replica's series labelled ``replica=``.
"""

from __future__ import annotations

import io
import json
import sys

from repro.serve import (
    EmbeddedRouter,
    EmbeddedServer,
    RouterConfig,
    ServeClient,
    ServeConfig,
)
from repro.serve.client import counter_total, latency, shard_stats
from repro.serve.loadgen import (
    Phase,
    _shard_deltas,
    build_phases,
    family_corpus,
    loadgen_main,
    run_loadgen,
)


def _histogram(count: int, p99: float, **labels) -> dict:
    return {
        "name": labels.pop("name"), "type": "histogram", "labels": labels,
        "count": count, "mean": p99 / 2, "p50": p99 / 2, "p95": p99, "p99": p99,
        "max": p99,
    }


def _counter(name: str, value: int, **labels) -> dict:
    return {"name": name, "type": "counter", "labels": labels, "value": value}


def _router_dump(served: tuple[int, int]) -> dict:
    """A router over replicas A and B (C unreachable); A served
    ``served[0]`` partitions, B ``served[1]``."""
    a, b = "127.0.0.1:1001", "127.0.0.1:1002"
    total = sum(served)
    metrics = [
        _histogram(total, 17.8, name="route.latency_ms", endpoint="/v1/partition"),
        _counter("route.requests", total, endpoint="/v1/partition"),
    ]
    for replica, n in ((a, served[0]), (b, served[1])):
        metrics += [
            _histogram(n, 10.6, name="serve.latency_ms", endpoint="/v1/partition",
                       replica=replica),
            _counter("serve.requests", n, endpoint="/v1/partition", replica=replica),
            _counter("serve.requests", 1, endpoint="/metrics", replica=replica),
            _counter("serve.response_cache.hits", n // 2, replica=replica),
            _counter("serve.response_cache.misses", n - n // 2, replica=replica),
        ]
    replicas = [
        {"address": a, "healthy": True, "ready": True, "ejections": 0, "server": {}},
        {"address": b, "healthy": True, "ready": True, "ejections": 0, "server": {}},
        {"address": "127.0.0.1:1003", "healthy": False, "ready": False,
         "ejections": 1, "server": None},
    ]
    return {"server": {"router": True}, "metrics": metrics, "replicas": replicas}


class TestDumpReader:
    def test_router_latency_is_the_routers_own(self):
        dump = _router_dump((4, 16))
        assert latency(dump)["count"] == 20
        assert latency(dump)["p99"] == 17.8
        assert latency(dump, replica="127.0.0.1:1001")["count"] == 4
        assert latency(dump, replica="127.0.0.1:1002")["count"] == 16

    def test_server_latency_skips_replica_series(self):
        dump = {
            "server": {},
            "metrics": [
                _histogram(3, 5.0, name="serve.latency_ms", endpoint="/v1/partition",
                           replica="127.0.0.1:1001"),
                _histogram(7, 9.0, name="serve.latency_ms", endpoint="/v1/partition"),
                _histogram(9, 2.0, name="serve.latency_ms", endpoint="/healthz"),
            ],
        }
        assert latency(dump)["count"] == 7
        assert latency({"server": {}, "metrics": []}) is None
        assert latency(None) is None

    def test_counter_total_by_replica(self):
        dump = _router_dump((4, 16))
        assert counter_total(dump, "serve.requests") == 22
        assert counter_total(dump, "serve.requests", replica="127.0.0.1:1002") == 17

    def test_shard_stats_lists_every_replica(self):
        shards = shard_stats(_router_dump((4, 16)))
        assert [s["replica"] for s in shards] == [
            "127.0.0.1:1001", "127.0.0.1:1002", "127.0.0.1:1003",
        ]
        a, b, c = shards
        assert a["reachable"] and a["requests"] == 4
        assert a["response_cache"] == {"hits": 2, "misses": 2, "hit_rate": 0.5}
        assert b["latency_ms"]["count"] == 16
        assert c == {"replica": "127.0.0.1:1003", "healthy": False, "ready": False,
                     "ejections": 1, "reachable": False}
        assert shard_stats({"server": {}, "metrics": []}) == []

    def test_shard_deltas_from_two_dumps(self):
        shards = _shard_deltas(_router_dump((4, 16)), _router_dump((6, 26)), 2.0)
        a, b, c = shards
        assert a["requests_delta"] == 2 and b["requests_delta"] == 10
        assert b["throughput_rps"] == 5.0
        assert b["response_cache_delta"] == {"hits": 5, "misses": 5, "hit_rate": 0.5}
        assert not c["reachable"] and "requests_delta" not in c


def test_router_dump_keeps_an_unreachable_replica():
    """A replica the router cannot scrape stays in its dump's roster
    (``server`` null), so its shard reads ``reachable: false``."""
    replicas = [EmbeddedServer(ServeConfig(port=0, workers=1)).start() for _ in range(2)]
    addresses = tuple(f"127.0.0.1:{r.port}" for r in replicas)
    router = EmbeddedRouter(RouterConfig(port=0, replicas=addresses)).start()
    try:
        replicas[1].stop()
        with ServeClient("127.0.0.1", router.port) as c:
            dump = c.metrics()
    finally:
        router.stop()
        for r in replicas:
            r.stop()
    assert [(s["replica"], s["reachable"]) for s in shard_stats(dump)] == [
        (addresses[0], True), (addresses[1], False),
    ]
    assert dump["server"]["workers"] == 1


class TestPhases:
    def test_paper_corpus_is_one_phase(self):
        (phase,) = build_phases(7, generated=2, seed=3)
        assert phase.requests == 7 and phase.tags is None
        assert len(phase.corpus) == 5 + 2

    def test_one_phase_per_family(self):
        phases = build_phases(families=2, sweep=(2, 3))
        assert [p.tags for p in phases] == [
            {"family": 0, "program": "doall"}, {"family": 1, "program": "doall"},
        ]
        assert phases[1].corpus == family_corpus(1, 2, 3)
        assert phases[1].requests == 6


def test_clients_share_one_request_sequence():
    """More client threads than cores, switching often, draw from one
    shared request sequence: each request goes out exactly once."""
    corpus = [(f"tiny{n}", f"Doall (i, 1, {n})\n  A[i] = B[i]\nEndDoall\n", {}, 2)
              for n in (4, 5)]
    interval = sys.getswitchinterval()
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        with ServeClient("127.0.0.1", emb.port) as c:
            before = (latency(c.metrics()) or {}).get("count", 0)
        sys.setswitchinterval(1e-6)
        try:
            stats = run_loadgen(host="127.0.0.1", port=emb.port, clients=8,
                                phases=[Phase(corpus, 150), Phase(corpus, 50)])
        finally:
            sys.setswitchinterval(interval)
    assert stats["error_count"] == 0, stats["errors"]
    assert stats["completed"] == stats["requests"] == 200
    assert stats["server_latency_ms"]["count"] - before == 200


def _run(argv: list[str], tmp_path) -> tuple[int, dict]:
    path = tmp_path / "stats.json"
    rc = loadgen_main(argv + ["--json", str(path)], out=io.StringIO())
    return rc, json.loads(path.read_text())


def test_plain_loadgen_against_a_server(tmp_path):
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        rc, stats = _run(
            ["--port", str(emb.port), "--clients", "4", "--requests", "20"], tmp_path
        )
    assert rc == 0
    # CI serve-smoke's "Assert zero errors, well-formed /metrics ...".
    assert stats["error_count"] == 0, stats["errors"]
    assert stats["completed"] == stats["requests"], stats
    assert stats.get("server_latency_ms"), stats
    assert "per_shard" not in stats and "families" not in stats


def test_cluster_loadgen_against_a_spawned_router(tmp_path):
    rc, stats = _run(
        ["--spawn", "--cluster", "--replicas", "2", "--clients", "4",
         "--requests", "20"],
        tmp_path,
    )
    assert rc == 0
    # CI cluster-smoke's "Assert zero drops and per-shard spread".
    assert stats["error_count"] == 0, stats["errors"]
    assert stats["completed"] == stats["requests"], stats
    shards = stats["per_shard"]
    assert len(shards) == 2, shards
    for shard in shards:
        assert shard["reachable"], shard
        assert shard["healthy"] and shard["ready"], shard
    served = sum(s["response_cache_delta"]["hits"]
                 + s["response_cache_delta"]["misses"] for s in shards)
    assert served == stats["requests"], (served, stats)
    assert stats["server_latency_ms"]["count"] == stats["requests"] + stats["retries_429"]
