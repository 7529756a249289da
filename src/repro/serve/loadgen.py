"""``repro loadgen`` — a closed-loop load generator for the service.

Drives ``--clients`` concurrent blocking clients through ``--requests``
total requests drawn round-robin from a corpus of the paper's example
programs (optionally extended with seeded random nests from the
:mod:`repro.check` generator via ``--generated``), and reports
throughput and latency percentiles.  ``--spawn`` launches a private
server subprocess on an ephemeral port first, so one command exercises
the full stack — that is what the CI smoke job and the E22 benchmark
run.

429 (overload) responses are retried *inside the client* — capped
exponential backoff honoring the server's ``Retry-After`` hint with
deterministic seeded jitter (see :func:`repro.serve.client.
backoff_delay_s`) — and counted separately; anything else non-200 is an
error, and any error fails the run (exit 1).

``--cluster`` points the same closed loop at a ``repro route`` front
tier instead of a single replica: with ``--spawn --replicas N`` it
launches N private replica subprocesses plus a router over them
(:func:`spawn_cluster`), waits until every replica is warm-hydrated and
routable, drives the load through the router, and reports **per-shard**
throughput and latency tails scraped from each replica's own
``/metrics`` — that is what the CI cluster-smoke job and the E26
benchmark run.

Every request carries a unique ``X-Repro-Request-Id``
(``loadgen-<run>-<n>``) so a slow outlier found in the report can be
looked up on the server with ``/debug/requests/<id>`` or ``repro trace
show``.  After the run, the server's own ``latency_ms`` histogram is
scraped and its p50/p95/p99 reported next to the client-side numbers —
queueing inside the server that the client cannot see (requests
waiting for a busy worker) shows up as the gap between the two.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import uuid

from .client import ServeClient, ServeError

__all__ = [
    "PAPER_CORPUS",
    "ClusterHandle",
    "cluster_shard_stats",
    "family_corpus",
    "flow_family_corpus",
    "loadgen_main",
    "run_loadgen",
    "run_family_sweep",
    "spawn_cluster",
    "spawn_router",
    "spawn_server",
]

#: The paper's worked examples as service requests: (label, source,
#: bindings, processors).  Sizes follow benchmarks/paper_programs.py.
PAPER_CORPUS: list[tuple[str, str, dict, int]] = [
    (
        "example2",
        "Doall (i, 101, 200)\n"
        "  Doall (j, 1, 100)\n"
        "    A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]\n"
        "  EndDoall\n"
        "EndDoall\n",
        {},
        100,
    ),
    (
        "example3",
        "Doall (i, 1, N)\n"
        "  Doall (j, 1, N)\n"
        "    A[i,j] = B[i,j] + B[i+1,j+3]\n"
        "  EndDoall\n"
        "EndDoall\n",
        {"N": 36},
        9,
    ),
    (
        "example6",
        "Doall (i, 0, 99)\n"
        "  Doall (j, 0, 99)\n"
        "    A[i,j] = B[i+j,j] + B[i+j+1,j+2]\n"
        "  EndDoall\n"
        "EndDoall\n",
        {},
        25,
    ),
    (
        "example8",
        "Doall (i, 1, N)\n"
        "  Doall (j, 1, N)\n"
        "    Doall (k, 1, N)\n"
        "      A(i,j,k) = B(i-1,j,k+1) + B(i,j+1,k) + B(i+1,j-2,k-3)\n"
        "    EndDoall\n"
        "  EndDoall\n"
        "EndDoall\n",
        {"N": 24},
        8,
    ),
    (
        "matmul",
        "Doall (i, 1, N)\n"
        "  Doall (j, 1, N)\n"
        "    C[i,j] = A[i,j] + B[j,i]\n"
        "  EndDoall\n"
        "EndDoall\n",
        {"N": 32},
        16,
    ),
]


def _generated_corpus(count: int, seed: int) -> list[tuple[str, str, dict, int]]:
    from ..check.generator import generate_case

    out = []
    for case_id in range(count):
        spec = generate_case(case_id, seed, max_accesses=2000)
        out.append((f"generated-{seed}-{case_id}", spec.source(), {}, spec.processors))
    return out


def family_corpus(
    family: int, n_variants: int, p_variants: int
) -> list[tuple[str, str, dict, int]]:
    """Request sweep for one structural family (plan-cache workload).

    Every variant shares one loop *structure* — a 2-deep stencil whose
    offsets depend only on the family index — so the whole sweep maps to
    a single plan-cache key: with ``--plan-cache`` on the server, the
    first variant solves the family's closed form and every later
    variant is a structure hit.  Bounds (``N``) and processor counts
    vary per variant, so the response cache never short-circuits the
    sweep.
    """
    dx = family % 5 + 1
    dy = family // 5 % 5 + 2
    source = (
        "Doall (i, 1, N)\n"
        "  Doall (j, 1, N)\n"
        f"    A[i,j] = B[i+{dx},j] + B[i,j+{dy}]\n"
        "  EndDoall\n"
        "EndDoall\n"
    )
    procs = [4, 8, 6, 12, 16, 24][: max(1, p_variants)]
    return [
        (f"family{family}-N{24 + 4 * k}-P{p}", source, {"N": 24 + 4 * k}, p)
        for k in range(n_variants)
        for p in procs
    ]


def flow_family_corpus(
    family: int, n_variants: int, p_variants: int
) -> list[tuple[str, str, dict, int, dict]]:
    """Dataflow-program request sweep for one structural family.

    The flow analogue of :func:`family_corpus`: every variant shares one
    two-statement pipeline *structure* — a stencil producer handing
    ``T`` to a shifted consumer, offsets fixed by the family index —
    while bounds (``N``) and processor counts vary.  Each statement is
    independently optimized behind the scenes (co-partitioning runs the
    per-statement optimum first), so with ``--plan-cache`` the server
    solves each statement's closed form once per family and every later
    variant instantiates from the structure-keyed plan tier.

    Entries carry a fifth element: extra ``client.partition`` keyword
    arguments selecting the flow pipeline.
    """
    dx = family % 4 + 1
    dy = family // 4 % 4 + 1
    source = (
        "Doall (i, 0, N)\n  Doall (j, 0, N)\n"
        f"    T[i,j] = A[i,j] + A[i+{dx},j] + A[i,j+{dy}]\n"
        "  EndDoall\nEndDoall\n"
        "Doall (i, 0, N)\n  Doall (j, 0, N)\n"
        f"    B[i,j] = T[i,j] + T[i+{dx},j]\n"
        "  EndDoall\nEndDoall\n"
    )
    procs = [4, 8, 6, 12, 16, 24][: max(1, p_variants)]
    return [
        (
            f"flow{family}-N{15 + 4 * k}-P{p}",
            source,
            {"N": 15 + 4 * k},
            p,
            {"program": "flow", "strategy": "co"},
        )
        for k in range(n_variants)
        for p in procs
    ]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for empty input)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def run_loadgen(**kwargs) -> dict:
    """Fire ``requests`` requests from ``clients`` threads; return stats.

    Takes the keyword arguments of :func:`_run_phase`.
    """
    return _run_phase(**kwargs)[0]


def _run_phase(
    *,
    host: str,
    port: int,
    clients: int,
    requests: int,
    corpus: list[tuple[str, str, dict, int]],
    simulate: bool = False,
    deadline_ms: int | None = None,
    max_retries: int = 5,
) -> tuple[dict, dict | None]:
    """One load phase: its stats and the ``/metrics`` dump taken after it."""
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if not corpus:
        raise ValueError("corpus is empty")
    lock = threading.Lock()
    next_index = 0
    latencies: list[float] = []
    errors: list[dict] = []
    retries = 0
    cache_hits = 0
    run_id = uuid.uuid4().hex[:8]

    def take() -> int | None:
        nonlocal next_index
        with lock:
            if next_index >= requests:
                return None
            i = next_index
            next_index += 1
            return i

    def worker(seed: int) -> None:
        nonlocal retries, cache_hits
        # 429 retries happen inside the client (capped exponential
        # backoff honoring Retry-After, jitter seeded per worker so runs
        # are reproducible); the loop here only classifies outcomes.
        with ServeClient(
            host, port, max_retries_429=max_retries, backoff_seed=seed
        ) as client:
            try:
                while True:
                    i = take()
                    if i is None:
                        return
                    entry = corpus[i % len(corpus)]
                    label, source, bindings, processors = entry[:4]
                    # Optional fifth element: extra request kwargs (the
                    # flow families ride these through the protocol).
                    extra = entry[4] if len(entry) > 4 else {}
                    t0 = time.perf_counter()
                    try:
                        client.partition(
                            source,
                            processors,
                            bindings=bindings or None,
                            simulate=simulate or None,
                            label=label,
                            deadline_ms=deadline_ms,
                            request_id=f"loadgen-{run_id}-{i}",
                            **extra,
                        )
                        with lock:
                            latencies.append(time.perf_counter() - t0)
                            if client.last_cache_status in ("hit", "coalesced"):
                                cache_hits += 1
                    except ServeError as e:
                        with lock:
                            errors.append(
                                {"request": i, "label": label, "status": e.status,
                                 "code": e.code, "message": str(e)}
                            )
                    except OSError as e:
                        with lock:
                            errors.append(
                                {"request": i, "label": label, "status": 0,
                                 "code": "connection", "message": str(e)}
                            )
                        return
            finally:
                with lock:
                    retries += client.retries_429

    t_start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(seed,)) for seed in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.perf_counter() - t_start

    ok = sorted(latencies)
    dump = _scrape(host, port)
    stats = {
        "server_latency_ms": _server_latency(dump),
        "clients": clients,
        "requests": requests,
        "completed": len(ok),
        "errors": errors,
        "error_count": len(errors),
        "retries_429": retries,
        "cache_hits": cache_hits,
        "wall_s": wall_s,
        "throughput_rps": (len(ok) / wall_s) if wall_s > 0 else 0.0,
        "latency_ms": {
            "mean": (sum(ok) / len(ok) * 1000) if ok else 0.0,
            "p50": percentile(ok, 0.50) * 1000,
            "p95": percentile(ok, 0.95) * 1000,
            "p99": percentile(ok, 0.99) * 1000,
            "max": (ok[-1] * 1000) if ok else 0.0,
        },
    }
    return stats, dump


def _scrape(host: str, port: int) -> dict | None:
    """One ``GET /metrics`` of a server; ``None`` when it is unreachable."""
    try:
        with ServeClient(host, port, timeout=10.0) as client:
            return client.metrics()
    except (ServeError, OSError, ValueError):
        return None


def _plan_cache_stats(dump: dict | None) -> dict | None:
    """The plan-cache counters of a ``/metrics`` dump."""
    return (dump or {}).get("caches", {}).get("plan")


def run_family_sweep(
    *,
    host: str,
    port: int,
    clients: int,
    families: int,
    n_variants: int,
    p_variants: int,
    deadline_ms: int | None = None,
    flow: bool = False,
) -> dict:
    """Drive ``families`` structure-family sweeps; report per-family stats.

    Families run sequentially (their request mix must not interleave) and
    the server's ``/metrics`` is scraped once before the first and once
    after each, so every family's entry carries its own hit/miss/fallback
    delta and hit rate — the per-family figures BENCH_serve.json records.  With
    ``flow`` the families are two-statement dataflow pipelines
    (:func:`flow_family_corpus`) instead of single nests.
    """
    family_entries: list[dict] = []
    total_requests = total_completed = total_errors = 0
    t_start = time.perf_counter()
    dump = _scrape(host, port)
    for family in range(families):
        make = flow_family_corpus if flow else family_corpus
        corpus = make(family, n_variants, p_variants)
        before = _plan_cache_stats(dump) or {}
        stats, dump = _run_phase(
            host=host,
            port=port,
            clients=clients,
            requests=len(corpus),
            corpus=corpus,
            deadline_ms=deadline_ms,
        )
        after = _plan_cache_stats(dump) or {}
        delta = {
            k: after.get(k, 0) - before.get(k, 0)
            for k in ("hits", "misses", "fallbacks")
        }
        lookups = delta["hits"] + delta["misses"]
        family_entries.append(
            {
                "family": family,
                "program": "flow" if flow else "doall",
                "requests": len(corpus),
                "completed": stats["completed"],
                "errors": stats["error_count"],
                "latency_ms": stats["latency_ms"],
                "plan": dict(
                    delta,
                    hit_rate=(delta["hits"] / lookups) if lookups else None,
                ),
            }
        )
        total_requests += len(corpus)
        total_completed += stats["completed"]
        total_errors += stats["error_count"]
    wall_s = time.perf_counter() - t_start
    return {
        "families": family_entries,
        "requests": total_requests,
        "completed": total_completed,
        "error_count": total_errors,
        "wall_s": wall_s,
        "throughput_rps": (total_completed / wall_s) if wall_s > 0 else 0.0,
        "plan_cache": _plan_cache_stats(dump),
    }


def _server_latency(dump: dict | None) -> dict | None:
    """The server's own latency histogram for ``/v1/partition``.

    The server-side quantiles include queueing the client never sees
    (requests waiting for a busy worker) but exclude client→server network and
    connection setup; a healthy gap between the two views is small.
    Returns ``None`` without a dump or when the server has no samples.
    """
    for entry in (dump or {}).get("metrics", []):
        if (
            entry.get("name") == "serve.latency_ms"
            and entry.get("labels", {}).get("endpoint") == "/v1/partition"
            and entry.get("count")
        ):
            return {
                "count": entry["count"],
                "mean": entry["mean"],
                "p50": entry["p50"],
                "p95": entry["p95"],
                "p99": entry["p99"],
                "max": entry["max"],
            }
    return None


def _spawn_with_port_file(
    subcommand: list[str], *, timeout_s: float = 60.0
) -> tuple[subprocess.Popen, int]:
    """Launch ``python -m repro <subcommand>`` with ``--port 0
    --port-file`` appended; return ``(process, port)`` once listening."""
    port_file = tempfile.NamedTemporaryFile(
        prefix="repro-port.", suffix=".txt", delete=False
    )
    port_file.close()
    os.unlink(port_file.name)
    # Children must resolve the same `repro` package as this process,
    # whether it came from an install or a source checkout on PYTHONPATH.
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro"] + subcommand + [
        "--port", "0", "--port-file", port_file.name,
    ]
    proc = subprocess.Popen(cmd, env=env)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"{subcommand[0]} subprocess exited early with code {proc.returncode}"
            )
        try:
            with open(port_file.name, encoding="utf-8") as fh:
                text = fh.read().strip()
            if text:
                os.unlink(port_file.name)
                return proc, int(text)
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    proc.terminate()
    raise RuntimeError(f"{subcommand[0]} did not start within {timeout_s}s")


def spawn_server(
    *,
    workers: int = 1,
    queue_depth: int = 64,
    cache_dir: str | None = None,
    extra_args: list[str] | None = None,
    timeout_s: float = 60.0,
) -> tuple[subprocess.Popen, int]:
    """Start ``python -m repro serve`` on an ephemeral port; returns
    ``(process, port)`` once the server is listening."""
    cmd = ["serve", "--workers", str(workers), "--queue-depth", str(queue_depth)]
    if cache_dir:
        cmd += ["--cache-dir", cache_dir]
    cmd += extra_args or []
    return _spawn_with_port_file(cmd, timeout_s=timeout_s)


def spawn_router(
    replicas: list[str],
    *,
    extra_args: list[str] | None = None,
    timeout_s: float = 60.0,
) -> tuple[subprocess.Popen, int]:
    """Start ``python -m repro route`` over ``replicas`` (HOST:PORT list)
    on an ephemeral port; returns ``(process, port)`` once listening."""
    cmd = ["route", "--replicas", ",".join(replicas)]
    cmd += extra_args or []
    return _spawn_with_port_file(cmd, timeout_s=timeout_s)


class ClusterHandle:
    """A spawned router + replica fleet (see :func:`spawn_cluster`)."""

    def __init__(
        self,
        router_proc: subprocess.Popen,
        router_port: int,
        replicas: list[tuple[subprocess.Popen, int]],
    ):
        self.router_proc = router_proc
        self.router_port = router_port
        self.replicas = replicas

    @property
    def replica_addresses(self) -> list[str]:
        return [f"127.0.0.1:{port}" for _, port in self.replicas]

    def wait_ready(self, timeout_s: float = 120.0) -> None:
        """Block until the router reports every replica routable.

        Replicas advertise ``ready`` only once their worker pool is
        warm-hydrated, so returning from here means the first real
        request will not pay process-spawn latency.
        """
        deadline = time.monotonic() + timeout_s
        last = "unreachable"
        while time.monotonic() < deadline:
            try:
                with ServeClient("127.0.0.1", self.router_port, timeout=5.0) as c:
                    health = c.healthz()
            except (ServeError, OSError) as e:
                last = str(e)
                time.sleep(0.1)
                continue
            if health.get("replicas_routable") == len(self.replicas):
                return
            last = (
                f"{health.get('replicas_routable')}/{len(self.replicas)} routable"
            )
            time.sleep(0.1)
        raise RuntimeError(f"cluster not ready within {timeout_s}s ({last})")

    def kill_replica(self, index: int) -> None:
        """Hard-kill one replica (failover tests); the router must absorb it."""
        self.replicas[index][0].kill()

    def terminate(self) -> None:
        """Stop the router first, then the replicas."""
        procs = [self.router_proc] + [p for p, _ in self.replicas]
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()


def spawn_cluster(
    *,
    replicas: int = 2,
    workers: int = 1,
    queue_depth: int = 64,
    cache_dir: str | None = None,
    cache_exchange_s: float | None = None,
    server_extra: list[str] | None = None,
    router_extra: list[str] | None = None,
    timeout_s: float = 60.0,
    wait_ready: bool = True,
) -> ClusterHandle:
    """Spawn ``replicas`` server subprocesses plus a router over them.

    With ``cache_dir`` every replica shares the directory for warm starts
    and — when ``cache_exchange_s`` is set — periodically snapshots and
    absorbs plan/lattice cache deltas through the union-merge lockfile
    protocol, so one replica's analytic work warms its peers.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    fleet: list[tuple[subprocess.Popen, int]] = []
    handle = None
    try:
        extra = list(server_extra or [])
        if cache_exchange_s is not None:
            extra += ["--cache-exchange-s", str(cache_exchange_s)]
        for _ in range(replicas):
            fleet.append(
                spawn_server(
                    workers=workers,
                    queue_depth=queue_depth,
                    cache_dir=cache_dir,
                    extra_args=extra,
                    timeout_s=timeout_s,
                )
            )
        router_proc, router_port = spawn_router(
            [f"127.0.0.1:{port}" for _, port in fleet],
            extra_args=router_extra,
            timeout_s=timeout_s,
        )
        handle = ClusterHandle(router_proc, router_port, fleet)
        if wait_ready:
            handle.wait_ready()
        return handle
    except BaseException:
        if handle is not None:
            handle.terminate()
        else:
            for proc, _ in fleet:
                proc.terminate()
        raise


def cluster_shard_stats(host: str, port: int) -> list[dict]:
    """Per-shard serving stats for the fleet behind a router.

    Asks the router's ``/healthz`` for the replica roster, then scrapes
    every replica's own ``/metrics`` directly: requests served, cache
    dispositions, and the replica-local ``/v1/partition`` latency tail.
    Values are cumulative since replica start — callers wanting a
    per-run delta scrape before and after and subtract.
    """
    try:
        with ServeClient(host, port, timeout=10.0) as client:
            health = client.healthz()
    except (ServeError, OSError):
        return []
    shards = []
    for entry in health.get("replicas", []):
        address = entry.get("address", "")
        rhost, _, rport = address.rpartition(":")
        shard = {
            "replica": address,
            "healthy": entry.get("healthy"),
            "ready": entry.get("ready"),
            "ejections": entry.get("ejections", 0),
        }
        dump = _scrape(rhost, int(rport)) if rport.isdigit() else None
        shard["reachable"] = dump is not None
        if dump is None:
            shards.append(shard)
            continue

        def counter_total(name: str, metrics=dump.get("metrics", [])) -> float:
            return sum(
                e.get("value", 0) for e in metrics if e.get("name") == name
            )

        hits = counter_total("serve.response_cache.hits")
        misses = counter_total("serve.response_cache.misses")
        shard["requests"] = counter_total("serve.requests")
        shard["response_cache"] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / (hits + misses)) if hits + misses else None,
        }
        plan = dump.get("caches", {}).get("plan")
        if plan:
            lookups = plan.get("hits", 0) + plan.get("misses", 0)
            shard["plan_cache"] = dict(
                plan, hit_rate=(plan.get("hits", 0) / lookups) if lookups else None
            )
        shard["latency_ms"] = _server_latency(dump)
        shards.append(shard)
    return shards


def _shard_deltas(
    before: list[dict], after: list[dict], wall_s: float
) -> list[dict]:
    """Per-run view of each shard: request/cache deltas + throughput share."""
    prior = {s.get("replica"): s for s in before}
    out = []
    for shard in after:
        base = prior.get(shard.get("replica"), {})
        entry = dict(shard)
        if shard.get("reachable") and "requests" in shard:
            delta = shard["requests"] - base.get("requests", 0)
            entry["requests_delta"] = delta
            entry["throughput_rps"] = (delta / wall_s) if wall_s > 0 else 0.0
            base_rc = base.get("response_cache", {})
            hits = shard["response_cache"]["hits"] - base_rc.get("hits", 0)
            misses = shard["response_cache"]["misses"] - base_rc.get("misses", 0)
            entry["response_cache_delta"] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / (hits + misses)) if hits + misses else None,
            }
        out.append(entry)
    return out


def build_loadgen_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Load-generate against a repro serve instance using the "
        "paper's example programs.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument("--clients", type=int, default=4, metavar="N")
    p.add_argument("--requests", type=int, default=40, metavar="M",
                   help="total requests across all clients")
    p.add_argument("--generated", type=int, default=0, metavar="K",
                   help="extend the corpus with K seeded random nests "
                   "(repro.check generator)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="seed for --generated")
    p.add_argument("--simulate", action="store_true",
                   help="request machine-simulator validation too")
    p.add_argument("--deadline-ms", type=int, default=None, metavar="MS")
    p.add_argument("--families", type=int, default=0, metavar="K",
                   help="family-sweep mode: drive K structure families "
                   "(same loop shape, varying bounds and P) sequentially "
                   "and report per-family plan-cache hit rates")
    p.add_argument("--sweep", default="4,3", metavar="N,P",
                   help="with --families: N bound variants x P processor "
                   "counts per family (default 4,3)")
    p.add_argument("--flow", action="store_true",
                   help="with --families: sweep two-statement dataflow "
                   "pipelines (\"program\": \"flow\") instead of single "
                   "nests")
    p.add_argument("--cluster", action="store_true",
                   help="the target is a repro route front tier: report "
                   "per-shard throughput and latency tails scraped from "
                   "each replica behind it (with --spawn, launch the "
                   "whole fleet first)")
    p.add_argument("--replicas", type=int, default=2, metavar="N",
                   help="with --cluster --spawn: number of replica "
                   "subprocesses behind the spawned router (default 2)")
    p.add_argument("--cache-exchange-s", type=float, default=None, metavar="S",
                   help="with --cluster --spawn: replicas exchange "
                   "plan/lattice cache deltas through --spawn-cache-dir "
                   "every S seconds")
    p.add_argument("--spawn", action="store_true",
                   help="launch a private server subprocess on an ephemeral "
                   "port, load it, then drain it")
    p.add_argument("--spawn-workers", type=int, default=1, metavar="N",
                   help="--workers for the spawned server")
    p.add_argument("--spawn-cache-dir", default=None, metavar="DIR",
                   help="--cache-dir for the spawned server")
    p.add_argument("--spawn-plan-cache", action="store_true",
                   help="--plan-cache for the spawned server")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the stats dict as JSON")
    return p


def loadgen_main(argv: list[str] | None = None, *, out=None) -> int:
    """Entry point for ``repro loadgen``."""
    parser = build_loadgen_parser()
    args = parser.parse_args(argv)
    if args.clients < 1:
        parser.error(f"--clients must be >= 1, got {args.clients}")
    if args.requests < 1:
        parser.error(f"--requests must be >= 1, got {args.requests}")
    if args.generated < 0:
        parser.error(f"--generated must be >= 0, got {args.generated}")
    if args.families < 0:
        parser.error(f"--families must be >= 0, got {args.families}")
    if args.flow and not args.families:
        parser.error("--flow requires --families")
    try:
        sweep_n, sweep_p = (int(x) for x in args.sweep.split(","))
        if sweep_n < 1 or sweep_p < 1:
            raise ValueError
    except ValueError:
        parser.error(f"--sweep must be N,P with both >= 1, got {args.sweep!r}")
    out = out or sys.stdout

    corpus = list(PAPER_CORPUS)
    if args.generated:
        corpus.extend(_generated_corpus(args.generated, args.seed))

    proc = None
    cluster = None
    shards_before: list[dict] = []
    host, port = args.host, args.port
    try:
        if args.spawn and args.cluster:
            extra = ["--plan-cache"] if args.spawn_plan_cache else []
            cluster = spawn_cluster(
                replicas=args.replicas,
                workers=args.spawn_workers,
                cache_dir=args.spawn_cache_dir,
                cache_exchange_s=args.cache_exchange_s,
                server_extra=extra,
            )
            host, port = "127.0.0.1", cluster.router_port
            print(
                f"loadgen: spawned router on port {port} over "
                f"{args.replicas} replica(s): "
                f"{', '.join(cluster.replica_addresses)}",
                file=out,
            )
        elif args.spawn:
            extra = ["--plan-cache"] if args.spawn_plan_cache else []
            proc, port = spawn_server(
                workers=args.spawn_workers,
                cache_dir=args.spawn_cache_dir,
                extra_args=extra,
            )
            host = "127.0.0.1"
            print(f"loadgen: spawned server on port {port}", file=out)
        if args.cluster:
            shards_before = cluster_shard_stats(host, port)
        if args.families:
            stats = run_family_sweep(
                host=host,
                port=port,
                clients=args.clients,
                families=args.families,
                n_variants=sweep_n,
                p_variants=sweep_p,
                deadline_ms=args.deadline_ms,
                flow=args.flow,
            )
        else:
            stats = run_loadgen(
                host=host,
                port=port,
                clients=args.clients,
                requests=args.requests,
                corpus=corpus,
                simulate=args.simulate,
                deadline_ms=args.deadline_ms,
            )
        if args.cluster:
            stats["per_shard"] = _shard_deltas(
                shards_before, cluster_shard_stats(host, port), stats["wall_s"]
            )
    finally:
        if cluster is not None:
            cluster.terminate()
        if proc is not None:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()

    if args.families:
        print(
            f"loadgen: {stats['completed']}/{stats['requests']} ok across "
            f"{len(stats['families'])} families, {stats['error_count']} errors "
            f"in {stats['wall_s']:.2f}s ({stats['throughput_rps']:.1f} req/s)",
            file=out,
        )
        for entry in stats["families"]:
            plan = entry["plan"]
            rate = plan.get("hit_rate")
            rate_text = f"{rate * 100:.0f}%" if rate is not None else "n/a"
            kind = "flow family" if entry.get("program") == "flow" else "family"
            print(
                f"  {kind} {entry['family']}: {entry['completed']}/"
                f"{entry['requests']} ok, plan hits {plan['hits']} "
                f"misses {plan['misses']} fallbacks {plan['fallbacks']} "
                f"(hit rate {rate_text}), p50 "
                f"{entry['latency_ms']['p50']:.1f} ms",
                file=out,
            )
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(stats, fh, indent=2)
                fh.write("\n")
            print(f"stats -> {args.json}", file=out)
        return 1 if stats["error_count"] else 0

    lat = stats["latency_ms"]
    print(
        f"loadgen: {stats['completed']}/{stats['requests']} ok, "
        f"{stats['error_count']} errors, {stats['retries_429']} overload "
        f"retries, {stats['cache_hits']} cache/coalesce hits in "
        f"{stats['wall_s']:.2f}s ({stats['throughput_rps']:.1f} req/s)",
        file=out,
    )
    print(
        f"latency ms: mean {lat['mean']:.1f}  p50 {lat['p50']:.1f}  "
        f"p99 {lat['p99']:.1f}  max {lat['max']:.1f}",
        file=out,
    )
    server_lat = stats.get("server_latency_ms")
    if server_lat:
        print(
            f"server-side latency ms (from /metrics histogram): "
            f"p50 {server_lat['p50']:.1f}  p95 {server_lat['p95']:.1f}  "
            f"p99 {server_lat['p99']:.1f}  over {server_lat['count']} requests",
            file=out,
        )
    for shard in stats.get("per_shard", []):
        if not shard.get("reachable"):
            print(f"  shard {shard['replica']}: unreachable", file=out)
            continue
        lat = shard.get("latency_ms") or {}
        lat_text = (
            f"p50 {lat['p50']:.1f}  p95 {lat['p95']:.1f}  p99 {lat['p99']:.1f}"
            if lat
            else "no samples"
        )
        rc = shard.get("response_cache_delta", {})
        rate = rc.get("hit_rate")
        rate_text = f"{rate * 100:.0f}%" if rate is not None else "n/a"
        print(
            f"  shard {shard['replica']}: {shard.get('requests_delta', 0):.0f} "
            f"requests ({shard.get('throughput_rps', 0.0):.1f} req/s), "
            f"response-cache hit rate {rate_text}, latency ms {lat_text}",
            file=out,
        )
    for err in stats["errors"][:10]:
        print(
            f"  error: request {err['request']} ({err['label']}): "
            f"[{err['code']}] {err['message']}",
            file=out,
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
        print(f"stats -> {args.json}", file=out)
    return 1 if stats["error_count"] else 0
