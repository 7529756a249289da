"""``repro loadgen`` — a closed-loop load generator for the service.

``--clients`` blocking clients run one or more *phases* of requests
drawn round-robin from a corpus (:func:`build_phases`): one phase of
``--requests`` over the paper's example programs plus ``--generated K``
seeded random nests, or with ``--families K [--flow]`` one phase per
structure family (one loop shape at varying bounds and processor
counts), which shows a ``--plan-cache`` server's per-family hit rate.

One driver, :func:`run_loadgen`, scrapes the target's ``/metrics``
before the first phase and after each, and reads the dumps with the
reader in :mod:`repro.serve.client`.  Each phase gets its client-side
throughput and latency percentiles, its plan-cache delta and the
target's own ``latency_ms`` histogram; queueing inside the server shows
as the gap between the two views.  Behind a ``repro route`` front tier,
whose dump carries every replica's series, the same dumps give
per-shard request counts, cache hit rates and latency tails.

``--spawn`` first launches the target on an ephemeral port: one server,
or with ``--cluster`` a router over ``--replicas N`` servers
(:func:`spawn_cluster`), warm and routable before the first request.

429 responses are retried inside the client (capped exponential backoff
honoring ``Retry-After``, seeded jitter; see
:func:`repro.serve.client.backoff_delay_s`) and counted; any other
non-200 is an error and fails the run (exit 1).  Every request carries
a unique ``X-Repro-Request-Id`` (``loadgen-<run>-<n>``) for
``/debug/requests/<id>`` and ``repro trace show``.
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
from typing import NamedTuple

from .client import (
    ServeClient,
    ServeError,
    cache_stats,
    hit_rate,
    is_router,
    latency,
    shard_stats,
)

__all__ = [
    "PAPER_CORPUS",
    "ClusterHandle",
    "Phase",
    "build_phases",
    "family_corpus",
    "flow_family_corpus",
    "loadgen_main",
    "run_loadgen",
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


#: Processor counts the family sweeps step through.
_SWEEP_PROCS = [4, 8, 6, 12, 16, 24]


def _variants(name: str, source: str, n0: int, n_variants: int, p_variants: int, *extra):
    """One family's requests: ``N = n0, n0+4, ...`` times the first
    ``p_variants`` processor counts, each entry ``(label, source,
    bindings, processors, *extra)``."""
    return [
        (f"{name}-N{n0 + 4 * k}-P{p}", source, {"N": n0 + 4 * k}, p, *extra)
        for k in range(n_variants)
        for p in _SWEEP_PROCS[: max(1, p_variants)]
    ]


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
    return _variants(f"family{family}", source, 24, n_variants, p_variants)


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
    return _variants(
        f"flow{family}", source, 15, n_variants, p_variants,
        {"program": "flow", "strategy": "co"},
    )


class Phase(NamedTuple):
    """One load phase: ``requests`` requests drawn round-robin from
    ``corpus``.  A phase with ``tags`` (a family sweep's ``family`` and
    ``program``) is listed in the run's ``families``."""

    corpus: list
    requests: int
    tags: dict | None = None


def build_phases(
    requests: int = 40,
    *,
    generated: int = 0,
    seed: int = 0,
    families: int = 0,
    sweep: tuple[int, int] = (4, 3),
    flow: bool = False,
) -> list[Phase]:
    """The phases of a run.

    Without ``families``: one phase of ``requests`` requests over the
    paper corpus plus ``generated`` seeded random nests.  With
    ``families``: one phase per structure family, each variant of the
    ``sweep`` (N bound variants, P processor counts) requested once —
    single nests, or with ``flow`` two-statement dataflow pipelines.
    """
    if not families:
        corpus = PAPER_CORPUS + (_generated_corpus(generated, seed) if generated else [])
        return [Phase(corpus, requests)]
    make = flow_family_corpus if flow else family_corpus
    program = "flow" if flow else "doall"
    corpora = [make(family, *sweep) for family in range(families)]
    return [
        Phase(corpus, len(corpus), {"family": family, "program": program})
        for family, corpus in enumerate(corpora)
    ]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for empty input)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def run_loadgen(
    *,
    host: str,
    port: int,
    clients: int,
    phases: list[Phase],
    simulate: bool = False,
    deadline_ms: int | None = None,
    max_retries: int = 5,
) -> dict:
    """Run ``phases`` in order from ``clients`` threads; return the stats.

    The result holds the whole run's client stats, the target's own
    ``/v1/partition`` histogram (``server_latency_ms``, cumulative since
    it started), the run's plan-cache delta (``plan``), the cumulative
    ``plan_cache`` counters and, behind a router, ``per_shard``.  Tagged
    phases are listed under ``families`` with the same per-phase stats.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if not phases or any(p.requests < 1 or not p.corpus for p in phases):
        raise ValueError("every phase needs requests >= 1 and a non-empty corpus")
    run_id = uuid.uuid4().hex[:8]
    dumps = [_scrape(host, port)]
    first, wall_s, records, entries = 0, 0.0, [], []
    for phase in phases:
        phase_records, phase_wall_s = _drive(
            host, port, clients, phase, first,
            run_id=run_id, simulate=simulate, deadline_ms=deadline_ms,
            max_retries=max_retries,
        )
        dumps.append(_scrape(host, port))
        entries.append(
            dict(phase.tags or {},
                 **_client_stats(clients, phase.requests, phase_wall_s, phase_records),
                 **_target_stats(dumps[-2], dumps[-1]))
        )
        first += phase.requests
        wall_s += phase_wall_s
        records += phase_records
    stats = dict(
        _client_stats(clients, first, wall_s, records),
        **_target_stats(dumps[0], dumps[-1]),
        plan_cache=cache_stats(dumps[-1], "plan"),
    )
    if is_router(dumps[-1]):
        stats["per_shard"] = _shard_deltas(dumps[0], dumps[-1], wall_s)
    if any(phase.tags for phase in phases):
        stats["families"] = entries
    return stats


def _drive(
    host: str,
    port: int,
    clients: int,
    phase: Phase,
    first: int,
    *,
    run_id: str,
    simulate: bool,
    deadline_ms: int | None,
    max_retries: int,
) -> tuple[list[dict], float]:
    """One phase's closed loop: a record per client thread, and the wall
    time.  The phase's request ``k`` is the run's request ``first + k``."""
    # One iterator shared by the threads: next() on it is atomic under
    # the GIL, so each request goes out once.
    todo = iter(range(phase.requests))
    records = [
        {"latencies": [], "errors": [], "cache_hits": 0, "retries_429": 0}
        for _ in range(clients)
    ]

    def client_loop(seed: int) -> None:
        record = records[seed]
        # 429 retries happen inside the client (capped exponential
        # backoff honoring Retry-After, jitter seeded per client so runs
        # are reproducible); the loop here only classifies outcomes.
        with ServeClient(
            host, port, max_retries_429=max_retries, backoff_seed=seed
        ) as client:
            for k in todo:
                # An optional fifth element holds extra request keywords
                # (the flow families ride these through the protocol).
                label, source, bindings, processors, *extra = phase.corpus[
                    k % len(phase.corpus)
                ]
                error = {"request": first + k, "label": label}
                t0 = time.perf_counter()
                try:
                    client.partition(
                        source,
                        processors,
                        bindings=bindings or None,
                        simulate=simulate or None,
                        label=label,
                        deadline_ms=deadline_ms,
                        request_id=f"loadgen-{run_id}-{first + k}",
                        **dict(*extra),
                    )
                except ServeError as e:
                    record["errors"].append(
                        dict(error, status=e.status, code=e.code, message=str(e))
                    )
                    continue
                except OSError as e:
                    record["errors"].append(
                        dict(error, status=0, code="connection", message=str(e))
                    )
                    break
                record["latencies"].append(time.perf_counter() - t0)
                record["cache_hits"] += client.last_cache_status in ("hit", "coalesced")
            record["retries_429"] = client.retries_429

    t_start = time.perf_counter()
    threads = [
        threading.Thread(target=client_loop, args=(seed,)) for seed in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, time.perf_counter() - t_start


def _client_stats(clients: int, requests: int, wall_s: float, records: list[dict]) -> dict:
    """What the clients saw, from their records."""
    ok = sorted(x for r in records for x in r["latencies"])
    errors = sorted((e for r in records for e in r["errors"]), key=lambda e: e["request"])
    return {
        "clients": clients,
        "requests": requests,
        "completed": len(ok),
        "errors": errors,
        "error_count": len(errors),
        "retries_429": sum(r["retries_429"] for r in records),
        "cache_hits": sum(r["cache_hits"] for r in records),
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


def _target_stats(before: dict | None, after: dict | None) -> dict:
    """The target's view between two dumps: its own latency histogram
    and the plan-cache delta."""
    prior = cache_stats(before, "plan") or {}
    now = cache_stats(after, "plan") or {}
    plan = {k: now.get(k, 0) - prior.get(k, 0) for k in ("hits", "misses", "fallbacks")}
    plan["hit_rate"] = hit_rate(plan["hits"], plan["misses"])
    return {"server_latency_ms": latency(after), "plan": plan}


def _scrape(host: str, port: int) -> dict | None:
    """One ``GET /metrics`` of the target; ``None`` when it is unreachable."""
    try:
        with ServeClient(host, port, timeout=10.0) as client:
            return client.metrics()
    except (ServeError, OSError, ValueError):
        return None


def _shard_deltas(before: dict | None, after: dict | None, wall_s: float) -> list[dict]:
    """Each replica behind a router at the end of the run, with its share
    of the run: request and response-cache deltas, throughput."""
    prior = {s["replica"]: s for s in shard_stats(before)}
    shards = shard_stats(after)
    for shard in filter(lambda s: s["reachable"], shards):
        base = prior.get(shard["replica"], {})
        delta = shard["requests"] - base.get("requests", 0)
        shard["requests_delta"] = delta
        shard["throughput_rps"] = (delta / wall_s) if wall_s > 0 else 0.0
        hits, misses = (
            shard["response_cache"][k] - base.get("response_cache", {}).get(k, 0)
            for k in ("hits", "misses")
        )
        shard["response_cache_delta"] = {
            "hits": hits, "misses": misses, "hit_rate": hit_rate(hits, misses)
        }
    return shards


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

    @property
    def processes(self) -> list[subprocess.Popen]:
        """The router first, then the replicas."""
        return [self.router_proc] + [p for p, _ in self.replicas]

    def terminate(self) -> None:
        """Stop the router first, then the replicas."""
        _terminate(self.processes)

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
        _terminate(handle.processes if handle else [p for p, _ in fleet])
        raise


def _terminate(procs: list[subprocess.Popen]) -> None:
    """SIGTERM every process (a graceful drain), then reap them; one
    still running after 30 s is killed."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


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
                   help="with --spawn: launch a repro route front tier "
                   "over --replicas server subprocesses instead of one "
                   "server (per-shard stats appear for any router target)")
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
    phases = build_phases(
        args.requests,
        generated=args.generated,
        seed=args.seed,
        families=args.families,
        sweep=(sweep_n, sweep_p),
        flow=args.flow,
    )

    spawned: list[subprocess.Popen] = []
    host, port = args.host, args.port
    try:
        if args.spawn:
            extra = ["--plan-cache"] if args.spawn_plan_cache else []
            host = "127.0.0.1"
            if args.cluster:
                cluster = spawn_cluster(
                    replicas=args.replicas,
                    workers=args.spawn_workers,
                    cache_dir=args.spawn_cache_dir,
                    cache_exchange_s=args.cache_exchange_s,
                    server_extra=extra,
                )
                spawned, port = cluster.processes, cluster.router_port
                print(
                    f"loadgen: spawned router on port {port} over "
                    f"{args.replicas} replica(s): "
                    f"{', '.join(cluster.replica_addresses)}",
                    file=out,
                )
            else:
                proc, port = spawn_server(
                    workers=args.spawn_workers,
                    cache_dir=args.spawn_cache_dir,
                    extra_args=extra,
                )
                spawned = [proc]
                print(f"loadgen: spawned server on port {port}", file=out)
        stats = run_loadgen(
            host=host,
            port=port,
            clients=args.clients,
            phases=phases,
            simulate=args.simulate,
            deadline_ms=args.deadline_ms,
        )
    finally:
        _terminate(spawned)

    _print_summary(stats, out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
        print(f"stats -> {args.json}", file=out)
    return 1 if stats["error_count"] else 0


def _print_summary(stats: dict, out) -> None:
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
    for entry in stats.get("families", []):
        plan = entry["plan"]
        kind = "flow family" if entry["program"] == "flow" else "family"
        print(
            f"  {kind} {entry['family']}: {entry['completed']}/"
            f"{entry['requests']} ok, plan hits {plan['hits']} "
            f"misses {plan['misses']} fallbacks {plan['fallbacks']} "
            f"(hit rate {_percent(plan['hit_rate'])}), p50 "
            f"{entry['latency_ms']['p50']:.1f} ms",
            file=out,
        )
    for shard in stats.get("per_shard", []):
        if not shard["reachable"]:
            print(f"  shard {shard['replica']}: unreachable", file=out)
            continue
        lat = shard["latency_ms"]
        lat_text = (
            f"p50 {lat['p50']:.1f}  p95 {lat['p95']:.1f}  p99 {lat['p99']:.1f}"
            if lat
            else "no samples"
        )
        print(
            f"  shard {shard['replica']}: {shard['requests_delta']:.0f} "
            f"requests ({shard['throughput_rps']:.1f} req/s), response-cache "
            f"hit rate {_percent(shard['response_cache_delta']['hit_rate'])}, "
            f"latency ms {lat_text}",
            file=out,
        )
    for err in stats["errors"][:10]:
        print(
            f"  error: request {err['request']} ({err['label']}): "
            f"[{err['code']}] {err['message']}",
            file=out,
        )


def _percent(rate: float | None) -> str:
    return f"{rate * 100:.0f}%" if rate is not None else "n/a"
