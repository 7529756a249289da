"""E22 — partition-as-a-service latency and warm-cache throughput.

Not a paper figure: this benchmark guards the PR-5 serving claims on the
E17 workload (the Example 8 stencil at N = 24 across the machine sizes
P ∈ {2, 4, 8, 12, 24}):

* a cold first request pays the full pipeline (parse → optimise →
  report) through the pool;
* warm steady-state repeats of the same requests are answered from the
  completed-response cache, and their throughput must be ≥ 3× the cold
  first-request rate;
* a full load pass completes with zero dropped or errored requests.

With ``REPRO_BENCH_REPORTS`` set the numbers land in
``BENCH_serve.json`` (p50/p99 latency, req/s, warm-vs-cold speedup) —
including the *server-side* quantiles from the service's own
bounded-bucket ``serve.latency_ms`` histogram, so client-measured and
server-measured latency can be compared in one report.
"""

from __future__ import annotations

import time

from repro.serve import EmbeddedServer, ServeClient, ServeConfig
from repro.serve.client import latency
from repro.serve.loadgen import build_phases, percentile, run_loadgen

from .paper_programs import example8
from .reporting import write_bench_report

N = 24
PS = [2, 4, 8, 12, 24]
WARM_PASSES = 8
MIN_WARM_SPEEDUP = 3.0

E17_SOURCE = (
    "Doall (i, 1, N)\n"
    "  Doall (j, 1, N)\n"
    "    Doall (k, 1, N)\n"
    "      A(i,j,k) = B(i-1,j,k+1) + B(i,j+1,k) + B(i+1,j-2,k-3)\n"
    "    EndDoall\n"
    "  EndDoall\n"
    "EndDoall\n"
)


def run_serve_bench() -> dict:
    corpus = [(f"e17-p{p}", E17_SOURCE, {"N": N}, p) for p in PS]
    cold_latencies: list[float] = []
    warm_latencies: list[float] = []
    errors: list[str] = []
    cache_hits = 0

    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        with ServeClient("127.0.0.1", emb.port) as client:
            # Embedded servers share the process registry, so the
            # histogram may already count other servers' requests.
            before = latency(client.metrics())
            count_before = before["count"] if before else 0
            # Cold pass: every request is a first sight of its key.
            for label, source, bindings, processors in corpus:
                t0 = time.perf_counter()
                client.partition(source, processors, bindings=bindings, label=label)
                cold_latencies.append(time.perf_counter() - t0)
                if client.last_cache_status != "miss":
                    errors.append(f"{label}: cold request was {client.last_cache_status}")

            # Warm steady state: the same keys, answered from the
            # completed-response cache.
            t_warm = time.perf_counter()
            for _ in range(WARM_PASSES):
                for label, source, bindings, processors in corpus:
                    t0 = time.perf_counter()
                    client.partition(
                        source, processors, bindings=bindings, label=label
                    )
                    warm_latencies.append(time.perf_counter() - t0)
                    if client.last_cache_status == "hit":
                        cache_hits += 1
            warm_wall_s = time.perf_counter() - t_warm
            server_latency = latency(client.metrics())

    warm_sorted = sorted(warm_latencies)
    cold_first_s = cold_latencies[0]
    warm_rps = len(warm_latencies) / warm_wall_s
    return {
        "workload": f"example8(N={N}), P={PS}",
        "requests_cold": len(cold_latencies),
        "requests_warm": len(warm_latencies),
        "errors": errors,
        "warm_cache_hits": cache_hits,
        "cold_first_request_s": cold_first_s,
        "cold_first_request_rps": 1.0 / cold_first_s,
        "cold_total_s": sum(cold_latencies),
        "warm_wall_s": warm_wall_s,
        "warm_throughput_rps": warm_rps,
        "warm_vs_cold_speedup": warm_rps * cold_first_s,
        "latency_ms": {
            "cold_mean": sum(cold_latencies) / len(cold_latencies) * 1000,
            "cold_max": max(cold_latencies) * 1000,
            "warm_p50": percentile(warm_sorted, 0.50) * 1000,
            "warm_p99": percentile(warm_sorted, 0.99) * 1000,
            "warm_max": warm_sorted[-1] * 1000,
        },
        # The server's own histogram over the same requests (cold+warm):
        # client-vs-server deltas expose client/transport overhead.
        "server_latency_ms": server_latency,
        "server_count_before": count_before,
    }


def run_family_plan_bench() -> dict:
    """Per-family plan hit rates against a ``plan_cache=True`` server:
    each family shares one structure key, so the first request of a
    family is the only plan miss the server should record for it."""
    with EmbeddedServer(ServeConfig(port=0, workers=1, plan_cache=True)) as emb:
        return run_loadgen(
            host="127.0.0.1",
            port=emb.port,
            clients=2,
            phases=build_phases(families=3, sweep=(3, 2)),
        )


def test_serve_throughput(benchmark):
    results = benchmark.pedantic(run_serve_bench, rounds=1, iterations=1)

    assert not results["errors"], results["errors"]
    # Every warm repeat must be a response-cache hit.
    assert results["warm_cache_hits"] == results["requests_warm"], results
    # The headline claim: steady-state warm throughput beats the cold
    # first-request rate by at least 3×.
    assert results["warm_vs_cold_speedup"] >= MIN_WARM_SPEEDUP, results
    # The server's histogram saw every request the client timed.
    server_lat = results["server_latency_ms"]
    assert server_lat is not None, results
    assert server_lat["count"] - results["server_count_before"] == (
        results["requests_cold"] + results["requests_warm"]
    ), results

    # A plan-cache server answering family sweeps: every family's plan
    # hit rate must reflect the solve-once-per-structure contract.
    family = run_family_plan_bench()
    assert family["error_count"] == 0, family
    for entry in family["families"]:
        plan = entry["plan"]
        assert plan["hits"] + plan["misses"] >= 1, entry
        assert plan["hit_rate"] > 0.5, entry

    from repro.core import estimate_traffic, partition_references
    from repro.core.optimize import optimize_rectangular

    nest = example8(N)
    sets = partition_references(nest.accesses)
    opt = optimize_rectangular(sets, nest.space, 8)
    write_bench_report(
        "serve",
        processors=8,
        estimate=estimate_traffic(sets, opt.tile),
        program={
            "workload": results["workload"],
            "processors": 8,
            "tile": opt.tile.sides.tolist(),
        },
        meta={
            "serve": results,
            "family_plan": family,
            "required_min_warm_speedup": MIN_WARM_SPEEDUP,
            "warm_passes": WARM_PASSES,
        },
    )


def test_serve_smoke():
    """Marker-free quick check for CI's timing guard: one cold + one warm
    request round-trip with no wall-clock assertions."""
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        with ServeClient("127.0.0.1", emb.port) as client:
            first = client.partition(
                E17_SOURCE, 4, bindings={"N": 8}, label="smoke"
            )
            assert first["schema"] == "repro.run-report"
            client.partition(E17_SOURCE, 4, bindings={"N": 8}, label="smoke")
            assert client.last_cache_status == "hit"
