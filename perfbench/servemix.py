"""The ``serve-mix`` workload: ``repro serve`` in a child process, driven
by an open-loop load generator written against the standard library only.

One load-generator process (``run.py`` itself) sends requests on a fixed
schedule, evenly spaced at :data:`RATE_RPS`, over at most two keep-alive
connections.  Each request is timed from its scheduled send time, so a
stall counts against every request queued behind it; how late the
generator itself ran is reported as ``loadgen.late_p99_ms``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import common

#: Offered load: 0.2 of the single-worker capacity measured for this mix
#: (98 requests/s, a closed loop over two connections) on a 2-core x86
#: container at the commit that added the benchmark.  That host slows by
#: up to 1.5x for minutes at a time; at 30-50 requests/s its slow phases
#: queued requests and moved the p90 by 30-50% between runs.
RATE_RPS = common.PLAN_RATE["serve-mix"]
CONNECTIONS = 2
#: Host-speed probes (0.1 s apart) before and after the load.
PROBES = 10
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
#: Served responses re-run in process and compared, and flight-recorder
#: traces read, per run.
COMPARE_SAMPLE = 24
TRACE_SAMPLE = 40
#: The flight recorder keeps the last 512 records; sample traces only
#: from requests recent enough to still be there.
TRACE_WINDOW = 400


class Server:
    """One ``repro serve --workers 1 --plan-cache`` child process."""

    def __init__(self, tag: str):
        self.port_file = os.path.join(common.OUT_DIR, f"serve-{tag}.port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log = open(os.path.join(common.OUT_DIR, f"serve-{tag}.log"), "w")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--port-file", self.port_file,
                "--workers", "1", "--plan-cache", "--log-level", "warning",
            ],
            cwd=common.ROOT,
            env=common.child_env(),
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.port = None

    def wait_ready(self) -> float:
        """Seconds from launch until ``/healthz`` reports ready."""
        deadline = self.t_launch + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise common.BenchError(
                    f"server exited with {self.proc.returncode}; see {self.log.name}"
                )
            if self.port is None and os.path.exists(self.port_file):
                text = open(self.port_file).read().strip()
                self.port = int(text) if text else None
            if self.port is not None:
                try:
                    status, body, _ = request(self.port, "GET", "/healthz")
                    if status == 200 and json.loads(body).get("ready"):
                        return time.perf_counter() - self.t_launch
                except OSError:
                    pass
            time.sleep(0.01)
        raise common.BenchError(f"server not ready in {READY_TIMEOUT_S:.0f} s")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its descendants (its pool worker)."""
        total_kb = 0
        for pid in [self.proc.pid] + _descendants(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/task/{p}/children") as fh:
                kids = [int(x) for x in fh.read().split()]
        except OSError:
            kids = []
        out += kids
        todo += kids
    return out


def request(port: int, method: str, path: str, body=None, headers=None, conn=None):
    own = conn is None
    conn = conn or http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read(), dict(resp.getheaders())
    finally:
        if own:
            conn.close()


def open_loop(port: int, ops: list[dict], rate: float) -> tuple[list[dict], float]:
    """Send ``ops`` on an evenly spaced schedule; returns per-request records
    and the wall time from the first scheduled send to the last reply."""
    records: list[dict | None] = [None] * len(ops)
    lock = threading.Lock()
    next_index = [0]
    t0 = time.perf_counter() + 0.05

    def drive() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    k = next_index[0]
                    next_index[0] += 1
                if k >= len(ops):
                    return
                due = t0 + k / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                op = ops[k]
                headers = {
                    "Content-Type": "application/json",
                    "X-Repro-Request-Id": f"pb-{k}",
                }
                try:
                    status, body, resp_headers = request(
                        port, "POST", "/v1/partition", json.dumps(op["payload"]), headers, conn
                    )
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
                    status, body, resp_headers = 0, str(exc).encode(), {}
                done = time.perf_counter()
                records[k] = {
                    "id": op["id"],
                    "cls": op["cls"],
                    "status": status,
                    "late_ms": (sent - due) * 1000.0,
                    "ms": (done - due) * 1000.0,
                    "done": done,
                    "cache": resp_headers.get("X-Repro-Cache"),
                    "body": body,
                }
        finally:
            conn.close()

    threads = [threading.Thread(target=drive) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, max(r["done"] for r in records) - t0


def _metric(snapshot: dict, name: str, **labels) -> dict | None:
    for m in snapshot["metrics"]:
        if m["name"] == name and m.get("labels", {}) == labels:
            return m
    return None


def _counter(snapshot: dict, name: str, **labels) -> float:
    m = _metric(snapshot, name, **labels)
    return m["value"] if m else 0


def _histogram_p50(before: dict, after: dict) -> float:
    """Median of a fixed-bucket latency histogram's delta, interpolated."""
    b_counts = {str(b["le"]): b["count"] for b in before["buckets"]} if before else {}
    edges = [(b["le"], b["count"] - b_counts.get(str(b["le"]), 0)) for b in after["buckets"]]
    total = edges[-1][1]
    if total == 0:
        return 0.0
    half, lo_edge, lo_count = total / 2.0, 0.0, 0
    for le, count in edges:
        if count >= half:
            if le == "+Inf":
                return float(lo_edge)
            return lo_edge + (le - lo_edge) * (half - lo_count) / max(count - lo_count, 1)
        lo_edge, lo_count = le, count
    return float(lo_edge)


def metrics_snapshot(port: int) -> dict:
    status, body, _ = request(port, "GET", "/metrics", headers={"Accept": "application/json"})
    if status != 200:
        raise common.BenchError(f"/metrics returned {status}")
    return json.loads(body)


def run(runner, count: int, setup_runs: int) -> dict:
    """One ``serve-mix`` run; returns the same result shape as the worker."""
    args = runner.args
    pool = common.load_pool()
    ops = common.build_ops("serve-mix", args.seed, pool, count)

    setup_s, server = [], None
    for k in range(setup_runs):
        server = Server(f"{args.seed}-{k}")
        try:
            setup_s.append(server.wait_ready())
        except BaseException:
            server.stop()
            raise
        if k < setup_runs - 1:
            server.stop()
    try:
        # The host's speed is probed while the server idles just before and
        # just after the load: a probe during the load would also measure
        # the load's own use of the two cores.
        probes = runner.worker("probe", PROBES)["probe_ms"]
        before = metrics_snapshot(server.port)
        records, wall_s = open_loop(server.port, ops, RATE_RPS)
        after = metrics_snapshot(server.port)
        peak_rss_mb = server.peak_rss_mb()
        probes += runner.worker("probe", PROBES)["probe_ms"]
        traces = fetch_traces(server.port, records, args.seed) if args.trace else []
    finally:
        server.stop()

    # ---- untimed: output checks and deterministic counts -------------
    ok = [r for r in records if r["status"] == 200]
    reports = {}
    for r in ok:
        reports[r["id"]] = json.loads(r["body"])
    failures: dict[str, int] = {}
    for r in records:
        if r["status"] != 200:
            key = f"http-{r['status']}"
            failures[key] = failures.get(key, 0) + 1
    payloads = {op["id"]: op["payload"] for op in ops}
    rng = random.Random(f"check:serve-mix:{args.seed}")
    distinct = sorted(reports)
    sample = {
        "compare": [
            {
                "id": i,
                "payload": payloads[i],
                "served": {k: reports[i][k] for k in ("partition", "predicted")},
            }
            for i in rng.sample(distinct, min(COMPARE_SAMPLE, len(distinct)))
        ],
        "simulate": [
            {"id": i, "payload": payloads[i], "served": {"partition": reports[i]["partition"]}}
            for i in distinct
            if common.simulated_sample("serve-mix", i)
        ],
    }
    verified = runner.worker("verify-serve", data=sample)
    check_failed = verified["check_failed"]
    if check_failed:
        failures["check"] = len(check_failed)
        bad = {c.split(":")[0] for c in check_failed}
        for r in records:
            if r["id"] in bad:
                r["status"] = -1
    predicted = sum(reports[r["id"]]["predicted"]["cold_misses_per_tile"] for r in ok)
    digest_src = json.dumps([[r["id"], reports[r["id"]]["partition"]] for r in ok], sort_keys=True)

    result = {
        "workload": "serve-mix",
        "seed": args.seed,
        "mode": "traced" if args.trace else "run",
        "ops_digest": common.ops_digest(ops),
        "wall_s": wall_s,
        "latencies_ms": [r["ms"] for r in records if r["status"] == 200],
        "attempted": len(records),
        "failed": sum(1 for r in records if r["status"] != 200),
        "peak_rss_mb": peak_rss_mb,
        "probe_ms": probes,
        "host_scale": common.REF_PROBE_MS / (sum(probes) / len(probes)),
        "open_loop": True,
        "setup_s": setup_s,
        "check_failed": check_failed,
        "deterministic": {
            "predicted_misses": predicted,
            "simulated_misses": verified["simulated_misses"],
            "failures": dict(sorted(failures.items())),
            "tile_digest": common.sha16(digest_src),
        },
        "classes": class_latencies(records),
    }
    if args.trace:
        result["layers"] = layer_metrics(records, before, after, traces)
    return result


def class_latencies(records: list[dict]) -> dict:
    """Median and max latency per request class, to place p50 and the tail."""
    out = {}
    for cls in common.SERVE_SHARES:
        xs = [r["ms"] for r in records if r["cls"] == cls and r["status"] == 200]
        if xs:
            out[cls] = {"n": len(xs), "p50_ms": common.median(xs), "max_ms": max(xs)}
    return out


def fetch_traces(port: int, records: list[dict], seed: int) -> list[dict]:
    """``serve.queue``/``serve.compute`` of a seeded sample of computed requests."""
    recent = [k for k, r in enumerate(records) if r["cache"] == "miss"][-TRACE_WINDOW:]
    rng = random.Random(f"trace:serve-mix:{seed}")
    out = []
    for k in sorted(rng.sample(recent, min(TRACE_SAMPLE, len(recent)))):
        status, body, _ = request(port, "GET", f"/debug/requests/pb-{k}")
        if status != 200:
            continue
        doc = json.loads(body)
        children = doc.get("trace", {}).get("children", [])
        spans = {c["name"]: c["duration_s"] * 1000.0 for c in children}
        record = doc.get("record") or {}
        out.append(
            {
                "queue_ms": spans.get("serve.queue", record.get("queue_ms")),
                "compute_ms": spans.get("serve.compute", record.get("compute_ms")),
            }
        )
    return out


def layer_metrics(records, before, after, traces) -> dict:
    if not traces:
        raise common.BenchError("no /debug/requests/<id> trace answered for the sampled ids")
    client_p50 = common.median([r["ms"] for r in records if r["status"] == 200])
    server_p50 = _histogram_p50(
        _metric(before, "serve.latency_ms", endpoint="/v1/partition"),
        _metric(after, "serve.latency_ms", endpoint="/v1/partition"),
    )

    def delta(name, **labels):
        return _counter(after, name, **labels) - _counter(before, name, **labels)

    plan_hits = delta("analytic.cache.hits", cache="plan")
    plan_misses = delta("analytic.cache.misses", cache="plan")
    batch_after = _metric(after, "serve.batch_size") or {"count": 0, "sum": 0}
    batch_before = _metric(before, "serve.batch_size") or {"count": 0, "sum": 0}
    batches = batch_after["count"] - batch_before["count"]
    late = [r["late_ms"] for r in records]

    def span_median(key):
        return common.median([t[key] for t in traces if t[key] is not None])

    return {
        "serve.server_p50_ms": server_p50,
        "serve.overhead_ms": client_p50 - server_p50,
        "serve.queue_ms": span_median("queue_ms"),
        "serve.compute_ms": span_median("compute_ms"),
        "serve.response_cache_hit_rate": sum(r["cache"] == "hit" for r in records) / len(records),
        "serve.plan_hit_rate": plan_hits / max(plan_hits + plan_misses, 1),
        "serve.plan_fallbacks": delta("plan.fallbacks", cache="plan"),
        "serve.batch_size_mean": (batch_after["sum"] - batch_before["sum"]) / max(batches, 1),
        "serve.rejected": delta("serve.rejected"),
        "serve.coalesced": delta("serve.coalesced"),
        "loadgen.late_p99_ms": common.quantile(late, 0.99),
    }
