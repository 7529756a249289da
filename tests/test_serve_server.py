"""End-to-end tests of the partition service over real sockets.

An :class:`~repro.serve.server.EmbeddedServer` (the production
:class:`PartitionServer` on a background thread) is exercised through
the blocking :class:`~repro.serve.client.ServeClient` — the same path
``repro loadgen`` uses.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import signal
import threading
import time

import pytest

from repro.serve import EmbeddedServer, ServeClient, ServeConfig, ServeError

FAST_SOURCE = "Doall (i, 1, 8)\n  A[i] = B[i]\nEndDoall\n"

#: A request whose compute takes long enough to observe in-flight state.
SLOW_SOURCE = (
    "Doall (i, 1, N)\n"
    "  Doall (j, 1, N)\n"
    "    Doall (k, 1, N)\n"
    "      A(i,j,k) = B(i-1,j,k+1) + B(i,j+1,k) + B(i+1,j-2,k-3)\n"
    "    EndDoall\n"
    "  EndDoall\n"
    "EndDoall\n"
)


@pytest.fixture(scope="module")
def server():
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        yield emb


@pytest.fixture
def client(server):
    with ServeClient("127.0.0.1", server.port) as c:
        yield c


class TestEndpoints:
    def test_healthz(self, client):
        h = client.healthz()
        assert h["status"] == "ok"
        assert h["workers"] == 1 and h["queue_depth"] == 64

    def test_partition_report_shape(self, client):
        report = client.partition(FAST_SOURCE, 4, label="fast")
        assert report["schema"] == "repro.run-report"
        assert report["program"]["source"] == "fast"
        assert report["partition"]["method"] == "rectangular"
        assert "measured" not in report  # simulate not requested

    def test_simulate_route_forces_simulation(self, client):
        report = client.simulate(FAST_SOURCE, 2, label="fast-sim")
        assert "measured" in report
        assert "miss_breakdown" in report["measured"]
        assert "prediction_error" in report

    def test_response_cache_hit_identical_body(self, client):
        first = client.partition(FAST_SOURCE, 4, label="cache-me")
        status_first = client.last_cache_status
        second = client.partition(FAST_SOURCE, 4, label="cache-me")
        assert client.last_cache_status == "hit"
        assert status_first in ("miss", "hit")  # module-scoped server reuse
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_metrics_endpoint(self, client):
        client.partition(FAST_SOURCE, 4, label="metrics-warmup")
        m = client.metrics()
        assert m["schema"] == "repro.serve-metrics"
        names = {entry["name"] for entry in m["metrics"]}
        assert "serve.requests" in names
        assert "serve.responses" in names
        assert "serve.latency_ms" in names
        assert "serve.batches" in names
        assert m["caches"]["lattice_cache"]["entries"] >= 0
        assert m["server"]["status"] == "ok"

    def test_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.request("GET", "/nope")
        assert exc.value.status == 404 and exc.value.code == "not-found"

    def test_405(self, client):
        with pytest.raises(ServeError) as exc:
            client.request("POST", "/healthz", {})
        assert exc.value.status == 405 and exc.value.code == "method-not-allowed"
        with pytest.raises(ServeError) as exc:
            client.request("GET", "/v1/partition")
        assert exc.value.status == 405

    def test_400_bad_json(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/partition", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            payload = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400
        assert payload["error"]["code"] == "invalid-request"
        assert "not valid JSON" in payload["error"]["message"]

    def test_422_names_field(self, client):
        with pytest.raises(ServeError) as exc:
            client.partition(FAST_SOURCE, 0)
        assert exc.value.status == 422
        assert exc.value.payload["error"]["field"] == "processors"

    def test_pipeline_error_is_typed(self, client):
        with pytest.raises(ServeError) as exc:
            client.partition("Doall (i, 1, N)\n  A[i] = B[i]\nEndDoall\n", 4)
        assert exc.value.code == "pipeline-error"
        assert "N" in str(exc.value)  # unbound symbol named

    def test_empty_loop_is_pipeline_error(self, client):
        with pytest.raises(ServeError) as exc:
            client.partition(
                "Doall (i, 1, N)\n  A[i] = B[i]\nEndDoall\n", 4, bindings={"N": 0}
            )
        assert exc.value.status == 422
        assert exc.value.code == "pipeline-error"

    def test_413_oversized_body(self, server):
        import socket

        # The server refuses on the Content-Length header alone, before
        # the body arrives — so speak raw HTTP and never send the body.
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as s:
            s.sendall(
                b"POST /v1/partition HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: %d\r\n\r\n" % ((1 << 20) + 1)
            )
            raw = b""
            while b"\r\n\r\n" not in raw:
                chunk = s.recv(4096)
                if not chunk:
                    break
                raw += chunk
        assert raw.startswith(b"HTTP/1.1 413 ")
        assert b"exceeds" in raw


class TestCoalescing:
    def test_concurrent_identical_requests_share_compute(self, server):
        label = "coalesce-target"
        statuses: list[str | None] = []
        reports: list[dict] = []
        lock = threading.Lock()

        def fire():
            with ServeClient("127.0.0.1", server.port) as c:
                r = c.partition(
                    SLOW_SOURCE, 8, bindings={"N": 18}, label=label
                )
                with lock:
                    statuses.append(c.last_cache_status)
                    reports.append(r)

        threads = [threading.Thread(target=fire) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(reports) == 3
        # The event loop serialises admission: exactly one request started
        # the compute; the others coalesced onto it or hit the finished
        # response in the cache.
        assert statuses.count("miss") == 1
        assert all(s in ("miss", "coalesced", "hit") for s in statuses)
        bodies = {json.dumps(r, sort_keys=True) for r in reports}
        assert len(bodies) == 1


class TestBackpressure:
    def test_429_when_admission_queue_full(self):
        config = ServeConfig(port=0, workers=1, queue_depth=1)
        with EmbeddedServer(config) as emb:
            done = threading.Event()

            def occupy():
                # method="auto" runs the parallelepiped portfolio, which
                # takes seconds: the request is still in flight when the
                # rejected one arrives, however fast the rectangular
                # pass on a warm worker is.
                with ServeClient("127.0.0.1", emb.port) as c:
                    c.partition(
                        SLOW_SOURCE, 8, bindings={"N": 20}, method="auto", label="occupy"
                    )
                done.set()

            t = threading.Thread(target=occupy)
            t.start()
            # Wait until the slow request is admitted and in flight.
            # max_retries_429=0 surfaces the raw 429 instead of letting
            # the client ride it out with its built-in backoff.
            with ServeClient("127.0.0.1", emb.port, max_retries_429=0) as c:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if c.healthz()["inflight"] >= 1:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("slow request never became in-flight")
                with pytest.raises(ServeError) as exc:
                    c.partition(FAST_SOURCE, 4, label="rejected")
                assert exc.value.status == 429
                assert exc.value.code == "overloaded"
                assert exc.value.retry_after is not None
            t.join(timeout=120)
            assert done.is_set()
            # After the occupier finishes, admission opens again.
            with ServeClient("127.0.0.1", emb.port) as c:
                assert c.partition(FAST_SOURCE, 4, label="rejected")[
                    "schema"
                ] == "repro.run-report"


class TestDeadlines:
    def test_504_then_cached_result_on_retry(self, server):
        with ServeClient("127.0.0.1", server.port) as c:
            with pytest.raises(ServeError) as exc:
                c.partition(
                    SLOW_SOURCE, 8, bindings={"N": 16}, label="deadline",
                    deadline_ms=1,
                )
            assert exc.value.status == 504
            assert exc.value.code == "deadline-exceeded"
            # The shielded computation kept running; the retry (same
            # canonical key — deadline is excluded) coalesces or hits.
            report = c.partition(
                SLOW_SOURCE, 8, bindings={"N": 16}, label="deadline"
            )
            assert c.last_cache_status in ("coalesced", "hit")
            assert report["schema"] == "repro.run-report"


class TestWorkerDeath:
    def test_worker_died_then_pool_replaced(self):
        import os
        import signal

        with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
            with ServeClient("127.0.0.1", emb.port) as c:
                c.partition(FAST_SOURCE, 4, label="before-death")
                for pid in emb.server._batcher.worker_pids():
                    os.kill(pid, signal.SIGKILL)
                with pytest.raises(ServeError) as exc:
                    c.partition(FAST_SOURCE, 8, label="during-death")
                assert exc.value.status == 500
                assert exc.value.code == "worker-died"
                # The batcher replaced the pool: the service keeps serving.
                report = c.partition(FAST_SOURCE, 8, label="after-death")
                assert report["schema"] == "repro.run-report"
                m = c.metrics()
                deaths = [
                    e for e in m["metrics"] if e["name"] == "serve.worker_deaths"
                ]
                assert deaths and deaths[0]["value"] >= 1


def _children(pid: int) -> list[int]:
    out = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as fh:
            out += [int(c) for c in fh.read().split()]
    return out


def _running(pid: int) -> bool:
    """Alive and not a zombie awaiting a reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not os.path.exists("/proc/self/task"), reason="needs Linux /proc"
)
def test_pool_workers_exit_after_server_sigkill():
    """A SIGKILLed server leaves no pool worker behind."""
    from repro.serve.loadgen import spawn_server

    proc, port = spawn_server(workers=1)
    try:
        deadline = time.monotonic() + 60
        with ServeClient("127.0.0.1", port) as c:
            while not c.healthz().get("ready"):
                assert time.monotonic() < deadline, "server never became ready"
                time.sleep(0.1)
        workers = _children(proc.pid)
        assert workers, "no pool worker forked"
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 5
    while any(_running(pid) for pid in workers):
        assert time.monotonic() < deadline, f"orphaned workers {workers} still run"
        time.sleep(0.1)


class TestDrain:
    def test_graceful_drain_closes_listener(self):
        emb = EmbeddedServer(ServeConfig(port=0, workers=1)).start()
        port = emb.port
        with ServeClient("127.0.0.1", port) as c:
            c.partition(FAST_SOURCE, 4, label="pre-drain")
        emb.stop()
        assert not emb._thread.is_alive()
        with pytest.raises((ConnectionError, OSError)):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", "/healthz")
            conn.getresponse()


    def test_drain_timeout_bounds_shutdown(self):
        """A request whose worker never answers: once ``drain_s`` runs
        out, shutdown fails it with 503 and the service thread exits."""
        emb = EmbeddedServer(ServeConfig(port=0, workers=1, drain_s=0.2)).start()
        outcome: list = []
        pid = None
        try:
            with ServeClient("127.0.0.1", emb.port) as c:
                deadline = time.monotonic() + 60
                while not c.healthz().get("ready"):
                    assert time.monotonic() < deadline, "server never became ready"
                    time.sleep(0.05)
            (pid,) = emb.server._batcher.worker_pids()
            os.kill(pid, signal.SIGSTOP)

            def stuck_request():
                try:
                    with ServeClient("127.0.0.1", emb.port, timeout=30) as c:
                        outcome.append(c.partition(FAST_SOURCE, 3, label="stuck"))
                except (ServeError, OSError) as e:
                    outcome.append(e)

            requester = threading.Thread(target=stuck_request)
            requester.start()
            with ServeClient("127.0.0.1", emb.port) as c:
                while not c.debug_inflight()["inflight"]:
                    time.sleep(0.02)
            emb._loop.call_soon_threadsafe(emb.server.signal_shutdown)
            emb._thread.join(timeout=10)
            assert not emb._thread.is_alive(), "shutdown waited past drain_s"
            requester.join(timeout=10)
            (error,) = outcome
            assert isinstance(error, ServeError), error
            assert error.status == 503 and error.code == "shutting-down", error
        finally:
            for sig in (signal.SIGKILL, signal.SIGCONT):  # never leave it stopped
                try:
                    if pid is not None:
                        os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            emb.stop()


class TestFlowFamilies:
    def test_flow_family_corpus_shape(self):
        from repro.serve.loadgen import flow_family_corpus

        corpus = flow_family_corpus(0, 2, 2)
        assert len(corpus) == 4
        sources = {source for _, source, _, _, _ in corpus}
        assert len(sources) == 1, "one structure per family"
        labels = [label for label, *_ in corpus]
        assert len(set(labels)) == len(labels)
        for _, _, bindings, processors, extra in corpus:
            assert bindings["N"] >= 1 and processors >= 1
            assert extra == {"program": "flow", "strategy": "co"}
        # Different families use different offsets (distinct structures).
        other = flow_family_corpus(1, 1, 1)
        assert other[0][1] not in sources

    def test_flow_family_sweep_completes(self, tmp_path):
        from repro.serve.loadgen import loadgen_main

        path = tmp_path / "loadgen-flow-families.json"
        with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
            rc = loadgen_main(
                ["--port", str(emb.port), "--families", "1", "--flow",
                 "--sweep", "2,2", "--clients", "2", "--json", str(path)],
                out=io.StringIO(),
            )
        stats = json.loads(path.read_text())
        assert rc == 0
        # CI serve-smoke's "Assert per-flow-family stats".
        assert stats["error_count"] == 0, stats
        (fam,) = stats["families"]
        assert fam["program"] == "flow"
        assert fam["completed"] == fam["requests"] == 4


def test_metrics_count_worker_cache_traffic():
    """The server's ``/metrics`` counts the analytic-cache hits and
    misses its pool workers had, for every cache: what a request adds to
    the worker's counters (its report's ``caches``) the server adds too.
    ``B(i+j)`` has dependent rows, so the request queries both the
    footprint table and the lattice-count cache."""
    source = (
        "Doall (i, 1, N)\n  Doall (j, 1, N)\n    A(i,j) = B(i+j)\n"
        "  EndDoall\nEndDoall\n"
    )
    names = ("footprint_table", "lattice_cache")
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        with ServeClient("127.0.0.1", emb.port) as c:
            before = c.partition(FAST_SOURCE, 3, label="warm-up")["caches"]
            served_before = c.metrics()["caches"]
            worker = c.partition(source, 4, bindings={"N": 9})["caches"]
            served = c.metrics()["caches"]
    for name in names:
        # Hits or misses, depending on what the worker inherited warm.
        assert sum(worker[name][k] - before[name][k] for k in ("hits", "misses"))
    for name in names:
        for counter in ("hits", "misses"):
            assert (
                served[name][counter] - served_before[name][counter]
                == worker[name][counter] - before[name][counter]
            ), (name, counter, served, worker)


#: A generated nest with a singular class (dependent rows after column
#: reduction): the grid search counts its footprint exactly.
SINGULAR_SOURCE = (
    "Doall (i1, 0, 3)\n"
    "  Doall (i2, 0, 5)\n"
    "    Doall (i3, 0, 4)\n"
    "      A[-2i1 - 2i2 + i3 + 3, -i1 - i2 - i3] = 1\n"
    "      l$B[-2i2 - 4i3 - 3, 2i2 + 4i3 - 2, i1 - 2i2 - 4i3 + 2] = 1\n"
    "    EndDoall\n"
    "  EndDoall\n"
    "EndDoall\n"
)

#: Metrics label → ``caches`` key of each default analytic cache.
CACHE_LABELS = {"footprint_table": "footprint_table", "lattice": "lattice_cache"}


@pytest.mark.parametrize("workers", [1, 2])
def test_cache_metrics_equal_caches_section(workers):
    """``/metrics`` names each analytic-cache count once, summed over the
    workers' snapshots: after worker traffic that includes a singular
    class, the ``analytic.cache.*`` entries (JSON and Prometheus text
    alike) equal the ``caches`` section.  The entries stay in the
    workers that computed them; only their counts reach the server."""
    from repro.lattice import DEFAULT_LATTICE_CACHE
    from repro.obs import parse_prometheus_text

    stencil = (
        "Doall (i, 1, N)\n  Doall (j, 1, N)\n    A(i,j) = B(i-1,j) + B(i+1,j)\n"
        "  EndDoall\nEndDoall\n"
    )
    # Forked workers start from this process's tables: start them empty,
    # so every entry counted below is one a worker computed.
    DEFAULT_LATTICE_CACHE.clear()
    with EmbeddedServer(ServeConfig(port=0, workers=workers)) as emb:
        with ServeClient("127.0.0.1", emb.port) as c:
            c.partition(SINGULAR_SOURCE, 4)
            for n in (16, 24):
                c.partition(stencil, 4, bindings={"N": n})
            dump = c.metrics()
            text = c.metrics_text()
    caches = dump["caches"]
    assert caches["lattice_cache"]["entries"] >= 1, caches
    assert len(DEFAULT_LATTICE_CACHE) == 0  # the server computed nothing
    want = {
        (f"analytic.cache.{name}", label): caches[key][name]
        for label, key in CACHE_LABELS.items()
        for name in ("hits", "misses")
    }
    entries = [e for e in dump["metrics"] if e["name"].startswith("analytic.cache.")]
    assert all(e["type"] == "counter" and set(e["labels"]) == {"cache"} for e in entries)
    assert {(e["name"], e["labels"]["cache"]): e["value"] for e in entries} == want
    assert len(entries) == len(want)
    families = parse_prometheus_text(text)
    seen = {
        (name, s["labels"]["cache"]): s["value"]
        for name in {name for name, _ in want}
        for s in families["repro_" + name.replace(".", "_")]["samples"]
    }
    assert seen == want


@pytest.mark.parametrize("program,source", [
    ("doall", "Doall (i, 1, N)\n  A[i] = B[i]\nEndDoall\n"),
    ("flow", "Doall (i, 1, N)\n  T[i] = A[i]\nEndDoall\n"
             "Doall (i, 1, N)\n  B[i] = T[i]\nEndDoall\n"),
], ids=["doall", "flow"])
def test_execute_request_empty_loop_is_pipeline_error(program, source):
    from repro.serve.pipeline import execute_request
    from repro.serve.protocol import PartitionRequest, ProtocolError

    request = PartitionRequest(
        source=source, processors=4, bindings=(("N", 0),), program=program
    )
    with pytest.raises(ProtocolError) as exc:
        execute_request(request)
    assert exc.value.code == "pipeline-error"
    assert "upper bound 0 < lower 1" in str(exc.value)


def test_benchmark_contract_flags_still_accepted():
    """Two retired plan-tier switches stay accepted, and do nothing, while
    the benchmark still passes them: ``perfbench/servemix.py`` starts
    ``repro serve --plan-cache`` and ``perfbench/worker.py``'s
    ``verify_serve`` calls ``init_worker(plan_cache=True)``."""
    from repro.serve.pipeline import init_worker
    from repro.serve.server import build_serve_parser

    assert build_serve_parser().parse_args(["--plan-cache"]).plan_cache is True
    init_worker(plan_cache=True)
