"""E26 — cluster serving: shard-affine routing, failover, replica scaling.

Not a paper figure: this benchmark guards the PR-9 cluster-tier claims
over real sockets (router subprocess + N server subprocesses):

* responses through the router are *identical* (timings aside) to a
  single directly-driven server — the router is a pass-through, not a
  reimplementation;
* a full cluster load pass completes with zero dropped or errored
  requests, and the per-shard request counts show rendezvous hashing
  actually spreading the key space;
* hard-killing a replica mid-run loses nothing: the router fails the
  in-flight forward over to a survivor and re-hashes the dead shard's
  keys, so every client request still succeeds;
* (on machines with >= 4 CPUs) warm steady-state throughput scales
  >= 2.5x from 1 replica to 4 — the shard-affinity design point: each
  replica's response LRU serves only its own key range, so adding
  replicas adds independent cache capacity and event loops.

With ``REPRO_BENCH_REPORTS`` set the numbers land in
``BENCH_cluster.json``, including per-shard throughput and latency
tails (p50/p95/p99) and the plan/response cache hit rates per replica.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.obs import parse_prometheus_text
from repro.serve import EmbeddedServer, ServeClient, ServeConfig, spawn_cluster
from repro.serve.loadgen import Phase, run_loadgen

from .reporting import write_bench_report

MIN_SCALING_1_TO_4 = 2.5

STENCIL = (
    "Doall (i, 1, N)\n"
    "  Doall (j, 1, N)\n"
    "    Doall (k, 1, N)\n"
    "      A(i,j,k) = B(i-1,j,k+1) + B(i,j+1,k) + B(i+1,j-2,k-3)\n"
    "    EndDoall\n"
    "  EndDoall\n"
    "EndDoall\n"
)


def _family(dx: int, dy: int) -> str:
    return (
        "Doall (i, 1, N)\n"
        "  Doall (j, 1, N)\n"
        f"    A[i,j] = B[i+{dx},j] + B[i,j+{dy}]\n"
        "  EndDoall\n"
        "EndDoall\n"
    )


#: (label, source, bindings, processors) — 12 distinct canonical keys, so
#: with 2 replicas the odds of rendezvous hashing leaving one shard
#: completely idle are ~2^-11.
PINNED = [
    (f"e26-stencil-N{n}-P{p}", STENCIL, {"N": n}, p)
    for n in (8, 10, 12)
    for p in (4, 8)
] + [
    (f"e26-family{f}-P4", _family(f % 5 + 1, f // 5 % 5 + 2), {"N": 20 + 2 * f}, 4)
    for f in range(6)
]


def _normalize(report: dict) -> str:
    """Strip exactly the run-dependent parts (wall times, cache stats);
    everything else must match byte-for-byte across topologies."""

    def strip_spans(spans):
        out = []
        for s in spans:
            s = dict(s)
            s.pop("duration_s", None)
            s.pop("peak_rss_kb", None)
            if "children" in s:
                s["children"] = strip_spans(s["children"])
            out.append(s)
        return out

    doc = dict(report)
    doc.pop("caches", None)
    doc["spans"] = strip_spans(doc.get("spans", []))
    return json.dumps(doc, sort_keys=True)


def _routed_reports(port: int, corpus) -> dict[str, str]:
    """One request per corpus entry through ``port``; normalized reports."""
    out = {}
    with ServeClient("127.0.0.1", port, max_retries_429=20) as client:
        for label, source, bindings, processors in corpus:
            report = client.partition(
                source, processors, bindings=bindings or None, label=label
            )
            assert report["schema"] == "repro.run-report", report
            out[label] = _normalize(report)
    return out


def test_cluster_smoke():
    """Marker-free quick check for CI: 2-replica cluster over real
    sockets — pass-through identity vs a direct server, warm hits stay
    shard-local, and the merged Prometheus scrape strict-parses."""
    corpus = PINNED[:6]
    with spawn_cluster(replicas=2, workers=1) as cluster:
        routed = _routed_reports(cluster.router_port, corpus)

        with ServeClient("127.0.0.1", cluster.router_port) as client:
            # Warm repeats are response-cache hits at the owning replica.
            for label, source, bindings, processors in corpus:
                client.partition(
                    source, processors, bindings=bindings or None, label=label
                )
                assert client.last_cache_status == "hit", (
                    label,
                    client.last_cache_status,
                )

            # Request-id propagation: router mints/forwards the id and its
            # flight recorder stitches the replica trace under serve.route.
            client.partition(
                corpus[0][1], 4, bindings=corpus[0][2], request_id="e26-smoke-1"
            )
            assert client.last_request_id == "e26-smoke-1"
            one = client.debug_request("e26-smoke-1")
            trace = one.get("trace")
            assert trace and trace["name"] == "request", one
            route_spans = [
                s for s in trace.get("children", []) if s["name"] == "serve.route"
            ]
            assert route_spans and route_spans[0]["attrs"].get("replica"), one

            # The merged exposition must strict-parse, with router-level
            # families plus per-replica labelled serve families.
            parsed = parse_prometheus_text(client.metrics_text())
            assert "repro_route_requests" in parsed, sorted(parsed)
            replica_labels = {
                s["labels"].get("replica")
                for s in parsed["repro_serve_requests"]["samples"]
            }
            assert set(cluster.replica_addresses) <= replica_labels, parsed

    # The same pinned set against one directly-driven server: identical
    # reports (timings aside) — the router added routing, not semantics.
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        direct = _routed_reports(emb.port, corpus)
    assert routed == direct


def test_cluster_replica_kill_zero_drops():
    """Hard-kill one of three replicas mid-run: every request must still
    succeed — the router retries the failed forward on a survivor and
    deterministically re-hashes the dead shard's keys."""
    total, kill_at = 45, 15
    with spawn_cluster(replicas=3, workers=1) as cluster:
        with ServeClient(
            "127.0.0.1", cluster.router_port, max_retries_429=50
        ) as client:
            for i in range(total):
                if i == kill_at:
                    cluster.kill_replica(0)
                label, source, bindings, processors = PINNED[i % len(PINNED)]
                report = client.partition(
                    source, processors, bindings=bindings or None, label=label
                )
                assert report["schema"] == "repro.run-report", (i, report)

            # The router noticed: the dead replica is ejected from the
            # routable fleet (health probes run every 0.5s by default).
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                health = client.healthz()
                if health["replicas_routable"] == 2:
                    break
                time.sleep(0.1)
            assert health["replicas_routable"] == 2, health
            assert health["status"] == "ok", health


def run_cluster_bench() -> dict:
    """Cluster load pass: zero errors, per-shard spread, warm hit rates."""
    with spawn_cluster(
        replicas=2, workers=1, server_extra=["--plan-cache"]
    ) as cluster:
        host, port = "127.0.0.1", cluster.router_port
        stats = run_loadgen(
            host=host,
            port=port,
            clients=2,
            phases=[Phase(PINNED, 5 * len(PINNED))],
        )
        with ServeClient(host, port) as client:
            stats["router_healthz"] = client.healthz()
    return stats


def test_cluster_throughput(benchmark):
    results = benchmark.pedantic(run_cluster_bench, rounds=1, iterations=1)

    assert results["error_count"] == 0, results["errors"]
    assert results["completed"] == results["requests"], results
    # 4 of the 5 passes over the corpus repeat keys: response-cache hits
    # at the owning replica.
    assert results["cache_hits"] >= results["requests"] - len(PINNED), results

    shards = results["per_shard"]
    assert len(shards) == 2, shards
    for shard in shards:
        assert shard["reachable"], shard
        # Every shard computed some of the key space (12 distinct keys
        # make an empty shard vanishingly unlikely) and has a latency
        # tail of its own.
        rc = shard["response_cache_delta"]
        assert rc["hits"] + rc["misses"] > 0, shard
        assert shard["latency_ms"] and shard["latency_ms"]["count"] > 0, shard
    # Each key was computed exactly once cluster-wide — shard affinity
    # means no replica duplicated another's cold compute.
    assert sum(s["response_cache_delta"]["misses"] for s in shards) == len(PINNED), (
        shards
    )

    from repro.core import estimate_traffic, partition_references
    from repro.core.optimize import optimize_rectangular

    from .paper_programs import example8

    nest = example8(12)
    sets = partition_references(nest.accesses)
    opt = optimize_rectangular(sets, nest.space, 8)
    write_bench_report(
        "cluster",
        processors=8,
        estimate=estimate_traffic(sets, opt.tile),
        program={
            "workload": f"{len(PINNED)} pinned keys x 5 passes, 2 replicas",
            "processors": 8,
        },
        meta={
            "cluster": {
                k: results[k]
                for k in (
                    "clients",
                    "requests",
                    "completed",
                    "error_count",
                    "retries_429",
                    "cache_hits",
                    "wall_s",
                    "throughput_rps",
                    "latency_ms",
                )
            },
            "per_shard": results["per_shard"],
            "router_healthz": results["router_healthz"],
            "required_min_scaling_1_to_4": MIN_SCALING_1_TO_4,
        },
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="replica scaling needs >= 4 CPUs (one per replica)",
)
def test_cluster_scaling_1_to_4(tmp_path):
    """The headline scaling claim: warm steady-state throughput grows
    >= 2.5x from 1 replica to 4.  Warm traffic is answered from each
    owner's response LRU, so replicas add independent event loops and
    cache capacity; the shared ``cache_dir`` pre-warms analytic state so
    the cold pass does not distort the comparison."""
    shared = str(tmp_path / "cache")
    os.makedirs(shared, exist_ok=True)
    reports: dict[int, dict[str, str]] = {}
    throughput: dict[int, float] = {}

    for n in (1, 2, 4):
        with spawn_cluster(replicas=n, workers=1, cache_dir=shared) as cluster:
            port = cluster.router_port
            # Cold pass populates every owner's response LRU (and, via
            # --cache-dir, the shared analytic snapshot for later runs).
            reports[n] = _routed_reports(port, PINNED)
            if n == 2:
                continue  # topology-identity sample only
            stats = run_loadgen(
                host="127.0.0.1",
                port=port,
                clients=8,
                phases=[Phase(PINNED, 20 * len(PINNED))],
            )
            assert stats["error_count"] == 0, stats["errors"]
            throughput[n] = stats["throughput_rps"]

    # Identical answers at every topology (timings aside).
    assert reports[1] == reports[2] == reports[4]
    scaling = throughput[4] / throughput[1]
    assert scaling >= MIN_SCALING_1_TO_4, (throughput, scaling)
