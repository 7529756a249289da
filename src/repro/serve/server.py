"""Partition-as-a-service: the asyncio HTTP server.

``python -m repro serve`` turns the one-shot pipeline into a long-lived
service so the expensive lattice/footprint machinery is paid once and
amortised across requests:

* ``POST /v1/partition`` — Doall source + machine parameters in, the
  ``repro.run-report`` document out (byte-identical, timings aside, to
  the CLI's ``--json-report`` for the same program);
* ``POST /v1/simulate`` — same request shape with ``simulate`` forced on;
* ``GET /healthz`` — liveness + admission-queue state;
* ``GET /metrics`` — the process :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot plus the workers' summed analytic-cache statistics, as JSON
  whatever the ``Accept`` header asks for;
* ``GET /debug/requests`` — the flight recorder's recent requests
  (newest first) plus the pinned slowest exemplars;
* ``GET /debug/requests/<id>`` — one request's record and its stitched
  cross-process span tree;
* ``GET /debug/inflight`` — requests currently being served.

Every request gets a **request id** — caller-supplied via the
``X-Repro-Request-Id`` header or minted here — which is echoed back in
the response header, threaded to the worker process that runs the compute,
stamped onto the worker's span trees, and used to stitch one
Dapper-style trace per request (server-side ``serve.queue`` /
``serve.compute`` timing around the worker's ``optimize.*`` /
``lattice.*`` spans).  Ids ride in headers, never in bodies: response
bodies stay byte-identical to the CLI's, which the response cache and
``tests/test_serve_differential.py`` rely on.

Production semantics, in the order a request meets them:

1. **Parsing/validation** — malformed HTTP or JSON → 400; schema
   violations → 422 with a typed error payload naming the field.
2. **Response cache** — an LRU of completed responses keyed by the
   request's canonical key; steady-state repeats of a warm request skip
   compute entirely (``X-Repro-Cache: hit``).
3. **Coalescing** — identical requests *in flight* share one
   computation (``X-Repro-Cache: coalesced``).
4. **Admission control** — at most ``--queue-depth`` unique computations
   may be queued or running; beyond that the server sheds load with
   ``429`` + ``Retry-After`` instead of building an unbounded backlog.
5. **Dispatch** — the :class:`~repro.serve.workers.WorkerPool` ships
   an admitted request to an idle compute worker at once, over that
   worker's own pipe; requests that arrive while every worker is busy
   wait in a FIFO and go one at a time to the next worker that frees.
6. **Deadlines** — each request has a deadline (``deadline_ms`` or the
   server default); a request whose compute is still running when it
   expires gets ``504``, while the computation itself is left to finish
   and populate the response cache for the retry.
7. **Graceful drain** — SIGTERM/SIGINT stop the listener, let in-flight
   work finish (bounded by ``--drain-s``; what is left then fails with
   ``503 shutting-down``), then exit.

:class:`PartitionServer` owns all of it: the listener, the connection
loop, the one dispatcher (endpoint naming, request ids, 404/405, typed
errors, ``serve.requests`` / ``.responses`` / ``.latency_ms`` metrics,
flight records), the endpoints and the drain.  Request framing is
:mod:`repro.serve.http`'s.
"""

from __future__ import annotations

import argparse
import asyncio
import math
import signal
import sys
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass

from .. import __version__
from ..lattice.memo import publish_cache_metrics
from ..obs import FlightRecorder, configure_logging, get_logger, get_registry, stitch_trace
from .http import FramingError, Request, encode_response, read_request
from .protocol import (
    MAX_DEADLINE_MS,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_partition_request,
    error_payload,
    validate_request_id,
)
from .workers import WorkerPool

__all__ = ["ServeConfig", "PartitionServer", "EmbeddedServer", "serve_main"]

logger = get_logger("serve.server")

POST_ROUTES = ("/v1/partition", "/v1/simulate")
GET_ROUTES = ("/healthz", "/metrics", "/debug/requests", "/debug/inflight")
DEBUG_REQUEST_PREFIX = "/debug/requests/"

#: Seconds an idle keep-alive connection is held open.
IDLE_TIMEOUT_S = 60.0

#: Seconds shutdown waits, after the drain, for connections still
#: answering a request; any left then are cancelled.
CLOSE_TIMEOUT_S = 10.0

#: Each bounded :class:`ServeConfig` field → (its CLI flag, lowest,
#: highest allowed value).
_BOUNDS = {
    "port": ("--port", 0, 65535),
    "workers": ("--workers", 1, math.inf),
    "queue_depth": ("--queue-depth", 1, math.inf),
    "response_cache_size": ("--response-cache", 0, math.inf),
    "deadline_ms": ("--deadline-ms", 1, MAX_DEADLINE_MS),
    "drain_s": ("--drain-s", 0, math.inf),
    "flight_capacity": ("--flight-capacity", 1, math.inf),
}


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance (CLI flags map 1:1).

    An out-of-range value raises :class:`ValueError` naming its flag.
    """

    host: str = "127.0.0.1"
    port: int = 8787  # 0 = ephemeral (the bound port lands in --port-file)
    workers: int = 1
    queue_depth: int = 64
    response_cache_size: int = 256  # 0 disables the response cache
    deadline_ms: int = 60_000
    drain_s: float = 10.0
    port_file: str | None = None
    slo_p99_ms: float = 1000.0
    slo_error_rate: float = 0.01
    flight_capacity: int = 512
    opt_budget_s: float | None = None  # per-member parallelepiped budget

    def __post_init__(self) -> None:
        for name, (flag, lo, hi) in _BOUNDS.items():
            value = getattr(self, name)
            if not lo <= value <= hi:  # NaN fails too
                bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
                raise ValueError(f"{flag} must be {bound}, got {value}")


class PartitionServer:
    """The server: listener, connections, dispatch, admission,
    coalescing, the response cache, the worker pool and the drain.

    ``self._admitted`` counts the unique computations queued or running.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.port: int | None = None
        self.started_at: float | None = None
        self._server: asyncio.base_events.Server | None = None
        self._metrics = get_registry()
        self._flight = FlightRecorder(self.config.flight_capacity)
        self._pool = WorkerPool(
            workers=self.config.workers, opt_budget_s=self.config.opt_budget_s
        )
        self._admitted = 0
        self._inflight: dict[tuple, asyncio.Task] = {}
        self._response_cache: OrderedDict[tuple, dict] = OrderedDict()
        self._ready = False
        self._requests_served = 0
        self._shutdown_event: asyncio.Event | None = None
        self._draining = False
        self._prewarm_task: asyncio.Task | None = None
        self._connections: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()  # waiting for a request

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Start the workers, bind the listener, write the port file."""
        self._pool.start()
        self._metrics.gauge("serve.queue_depth_limit").set(self.config.queue_depth)
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        self._prewarm_task = asyncio.create_task(self._prewarm())
        logger.info("listening on %s:%d", self.config.host, self.port)
        if self.config.port_file:
            with open(self.config.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{self.port}\n")

    async def _prewarm(self) -> None:
        """Hydrate the workers, then flip ``/healthz`` readiness.

        The listener answers immediately (liveness), but ``ready`` stays
        false until every compute worker has spawned and finished
        :func:`~repro.serve.pipeline.init_worker` — so a load balancer or
        a rolling restart never sends traffic at a server whose first
        request would eat the whole cold-hydration cost.
        """
        try:
            await self._pool.prewarm()
        except Exception:  # pragma: no cover - worker failures surface later
            logger.exception("worker prewarm failed; serving anyway")
        finally:
            self._ready = True
            self._metrics.gauge("serve.ready").set(1)
            logger.info("workers warm; server ready")

    def signal_shutdown(self) -> None:
        """Begin graceful drain (call from within the event loop)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def serve_until_shutdown(self) -> None:
        assert self._shutdown_event is not None, "start() first"
        await self._shutdown_event.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop prewarm and the listener, drain, then await connections.

        Idle keep-alive connections are closed as the listener closes;
        a connection answering a request finishes it (with
        ``Connection: close``) and is awaited after the drain, so no
        connection handler is left for the event loop to cancel.

        The drain takes at most ``drain_s`` plus the workers' join: what
        it did not finish, stopping the pool fails with 503
        ``shutting-down`` (killing busy workers) before the request
        tasks are awaited.
        """
        if self._server is None:
            return
        self._draining = True
        if self._prewarm_task is not None:
            self._prewarm_task.cancel()
            try:
                await self._prewarm_task
            except (asyncio.CancelledError, Exception):
                pass
            self._prewarm_task = None
        self._server.close()
        for writer in self._idle:
            writer.close()  # its pending read sees EOF; the handler returns
        await self._server.wait_closed()
        self._server = None
        try:
            await asyncio.wait_for(self._pool.drain(), timeout=self.config.drain_s)
        except asyncio.TimeoutError:
            logger.warning(
                "drain did not finish within %.1fs; abandoning in-flight work",
                self.config.drain_s,
            )
        await self._pool.stop()
        if self._inflight:
            await asyncio.gather(*list(self._inflight.values()), return_exceptions=True)
        logger.info("drained; %d requests served", self._requests_served)
        if self._connections:
            _, stuck = await asyncio.wait(self._connections, timeout=CLOSE_TIMEOUT_S)
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)

    # -- connections -----------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._draining:
                self._idle.add(writer)
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), timeout=IDLE_TIMEOUT_S
                    )
                except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
                    break  # idle keep-alive connection, or the peer left
                except FramingError as e:
                    writer.write(
                        encode_response(
                            e.status,
                            error_payload("invalid-request", str(e)),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                status, payload, headers = await self._dispatch(request)
                keep_alive = (
                    not self._draining
                    and request.headers.get("connection", "keep-alive").lower() != "close"
                )
                writer.write(
                    encode_response(status, payload, keep_alive=keep_alive, headers=headers)
                )
                await writer.drain()
                self._requests_served += 1
                if not keep_alive:
                    break
        except ConnectionError:  # peer vanished mid-response
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass

    async def _dispatch(self, request: Request):
        """One request → ``(status, payload, headers)``; never raises."""
        method, path, headers = request.method, request.path, request.headers
        if path.startswith(DEBUG_REQUEST_PREFIX):
            endpoint = "/debug/requests/<id>"
        else:
            endpoint = path if path in POST_ROUTES + GET_ROUTES else "other"
        self._metrics.counter("serve.requests", endpoint=endpoint).inc()
        t0 = time.perf_counter()
        extra: dict[str, str] = {}
        record = meta = error_code = None
        try:
            request_id = (
                validate_request_id(headers.get("x-repro-request-id"))
                or uuid.uuid4().hex[:16]
            )
            extra["X-Repro-Request-Id"] = request_id
            if endpoint == "other":
                raise ProtocolError(
                    f"no such endpoint {path!r}", code="not-found", status=404
                )
            allowed = "POST" if path in POST_ROUTES else "GET"
            if method != allowed:
                raise ProtocolError(
                    f"{path} only supports {allowed}", code="method-not-allowed", status=405
                )
            if allowed == "POST":
                record = self._flight.begin(request_id, endpoint)
                status, payload, extra_c, meta = await self._compute_response(
                    path, request.body, request_id
                )
                extra.update(extra_c)
            else:
                status, payload = 200, self._handle_get(path)
        except ProtocolError as e:
            status, payload, error_code = e.status, e.to_payload(), e.code
            # The worker's timings of a failed compute (see WorkerPool).
            meta = getattr(e, "compute_meta", None)
            if e.status == 429:
                extra.setdefault("Retry-After", "1")
        except Exception as e:  # pragma: no cover - dispatch safety net
            logger.exception("unhandled serve error serving %s %s", method, path)
            status, error_code = 500, "internal-error"
            payload = error_payload("internal-error", f"{type(e).__name__}: {e}")
        total_ms = (time.perf_counter() - t0) * 1000.0
        if record is not None:
            cache = extra.get("X-Repro-Cache")
            meta = meta or {}
            details = {k: meta.get(k) for k in ("queue_ms", "compute_ms", "worker_pid")}
            # A full trace is kept only for requests that actually ran the
            # compute (cache=miss with worker meta); hits and coalesced
            # followers reuse the leader's computation, so their records
            # carry the latency breakdown but no duplicate span tree.
            if cache == "miss" and "spans" in meta:
                details["trace"] = stitch_trace(
                    record.request_id,
                    record.endpoint,
                    total_ms=total_ms,
                    status=status,
                    cache=cache,
                    worker_spans=meta["spans"],
                    **details,
                )
            self._flight.finish(
                record, status=status, cache=cache,
                total_ms=round(total_ms, 3), error_code=error_code, **details,
            )
        self._metrics.counter(
            "serve.responses", endpoint=endpoint, status=str(status)
        ).inc()
        self._metrics.latency_histogram(
            "serve.latency_ms", endpoint=endpoint
        ).observe(total_ms)
        return status, payload, extra

    # -- compute endpoints -----------------------------------------------
    async def _compute_response(self, path: str, body: bytes, request_id: str):
        """A POST route → ``(status, payload, headers, worker meta)``."""
        if self._draining:
            raise ProtocolError(
                "server is draining", code="shutting-down", status=503
            )
        request = decode_partition_request(
            body, force_simulate=(path == "/v1/simulate")
        )
        key = request.canonical_key

        cached = self._response_cache.get(key)
        if cached is not None:
            self._response_cache.move_to_end(key)
            self._metrics.counter("serve.response_cache.hits").inc()
            return 200, cached, {"X-Repro-Cache": "hit"}, None
        self._metrics.counter("serve.response_cache.misses").inc()

        extra = {"X-Repro-Cache": "miss"}
        task = self._inflight.get(key)
        if task is not None:
            self._metrics.counter("serve.coalesced").inc()
            extra["X-Repro-Cache"] = "coalesced"
        else:
            if self._admitted >= self.config.queue_depth:
                self._metrics.counter("serve.rejected").inc()
                raise ProtocolError(
                    f"admission queue is full ({self.config.queue_depth} "
                    "requests queued or running); retry shortly",
                    code="overloaded",
                    status=429,
                )
            self._admitted += 1
            self._metrics.gauge("serve.inflight").set(self._admitted)
            # The leader's request id travels to the worker; coalesced
            # followers share its result (and therefore its span trees).
            task = asyncio.ensure_future(self._compute(request, request_id))
            self._inflight[key] = task
            task.add_done_callback(lambda _t, key=key: self._compute_done(key))

        deadline_s = (request.deadline_ms or self.config.deadline_ms) / 1000.0
        try:
            # shield(): a timed-out waiter must not cancel the shared
            # computation out from under coalesced followers (and the
            # response cache, which the retry will hit).
            report, meta = await asyncio.wait_for(
                asyncio.shield(task), timeout=deadline_s
            )
        except asyncio.TimeoutError:
            self._metrics.counter("serve.deadline_exceeded").inc()
            raise ProtocolError(
                f"request did not complete within {deadline_s * 1000:.0f} ms "
                "(the computation continues and will populate the cache)",
                code="deadline-exceeded",
                status=504,
            ) from None
        return 200, report, extra, meta

    async def _compute(self, request, request_id: str) -> tuple[dict, dict]:
        report, meta = await self._pool.submit(request, request_id)
        if self.config.response_cache_size > 0:
            self._response_cache[request.canonical_key] = report
            self._response_cache.move_to_end(request.canonical_key)
            while len(self._response_cache) > self.config.response_cache_size:
                self._response_cache.popitem(last=False)
        return report, meta

    def _compute_done(self, key: tuple) -> None:
        self._inflight.pop(key, None)
        self._admitted -= 1
        self._metrics.gauge("serve.inflight").set(self._admitted)

    # -- GET endpoints ---------------------------------------------------
    def _handle_get(self, path: str) -> dict:
        if path == "/healthz":
            return self._healthz()
        if path == "/metrics":
            return self._metrics_dump()
        if path == "/debug/requests":
            return {
                "schema": "repro.serve-debug-requests",
                "version": 1,
                "requests": self._flight.recent(50),
                "slowest": self._flight.slowest(),
            }
        if path == "/debug/inflight":
            return {
                "schema": "repro.serve-debug-inflight",
                "version": 1,
                "admitted": self._admitted,
                "inflight": self._flight.inflight(),
            }
        request_id = path[len(DEBUG_REQUEST_PREFIX):]
        found = self._flight.get(request_id)
        if found is None:
            raise ProtocolError(
                f"no retained request {request_id!r} (records and traces "
                "are bounded rings; it may have been evicted)",
                code="not-found",
                status=404,
            )
        return dict({"schema": "repro.serve-debug-request", "version": 1}, **found)

    def _healthz(self) -> dict:
        uptime_s = 0.0
        if self.started_at is not None:
            uptime_s = round(time.monotonic() - self.started_at, 3)
        return {
            "status": "draining" if self._draining else "ok",
            "ready": bool(self._ready and not self._draining),
            "version": __version__,
            "uptime_s": uptime_s,
            "inflight": self._admitted,
            "queue_depth": self.config.queue_depth,
            "workers": self.config.workers,
            "response_cache_entries": len(self._response_cache),
        }

    def _metrics_dump(self) -> dict:
        """The ``/metrics`` JSON dump.

        SLO burn rates are scrape-time quantities (a ratio over the
        flight recorder's trailing window), and the analytic-cache
        counters are the workers' latest counts, so both are refreshed
        on every read rather than on every request.
        """
        server = self._healthz()
        burn = self._flight.burn_rates(
            slo_p99_ms=self.config.slo_p99_ms,
            slo_error_rate=self.config.slo_error_rate,
        )
        self._metrics.gauge("serve.slo.error_burn").set(burn["error_burn"])
        self._metrics.gauge("serve.slo.latency_burn").set(burn["latency_burn"])
        self._metrics.gauge("serve.slo.error_rate").set(burn["error_rate"])
        self._metrics.gauge("serve.slo.window_requests").set(burn["window_requests"])
        caches = self._pool.cache_stats()
        publish_cache_metrics(self._metrics, caches)
        return {
            "schema": "repro.serve-metrics",
            "version": 1,
            "generated_by": f"repro {__version__}",
            "server": server,
            "metrics": self._metrics.snapshot(),
            "caches": caches,
            "slo": {
                "p99_ms": self.config.slo_p99_ms,
                "error_rate": self.config.slo_error_rate,
            },
        }


# ----------------------------------------------------------------------
# Embedding and CLI


class EmbeddedServer:
    """A :class:`PartitionServer` on a background thread.

    For tests and in-process embedding: ``start()`` returns once the
    port is bound; ``stop()`` runs the full graceful drain.  Usable as a
    context manager.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.server = PartitionServer(config)
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    def start(self):
        self._thread = threading.Thread(target=self._run, name="repro-serve", daemon=True)
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._started.is_set():
            raise RuntimeError("embedded server did not start within 30s")
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as e:
                self._startup_error = e
                self._started.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self.server.serve_until_shutdown()

        try:
            asyncio.run(main())
        except BaseException:
            if not self._started.is_set():  # pragma: no cover - surfaced in start()
                self._started.set()

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.signal_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def build_serve_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-lived partition-as-a-service HTTP server: "
        "POST /v1/partition, POST /v1/simulate, GET /healthz, GET /metrics.",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 = ephemeral; see --port-file)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port here once listening")
    p.add_argument("--slo-p99-ms", type=float, default=1000.0, metavar="MS",
                   help="latency SLO target: p99 of request latency "
                   "(feeds the serve.slo.latency_burn gauge)")
    p.add_argument("--slo-error-rate", type=float, default=0.01, metavar="RATE",
                   help="error-budget SLO: allowed 5xx fraction "
                   "(feeds the serve.slo.error_burn gauge)")
    p.add_argument("--flight-capacity", type=int, default=512, metavar="N",
                   help="per-request flight-recorder ring size")
    p.add_argument("--log-level", default=None,
                   choices=["debug", "info", "warning", "error"])
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="compute worker processes (>= 1)")
    p.add_argument("--queue-depth", type=int, default=64, metavar="N",
                   help="max computations queued or running before the "
                   "server sheds load with 429 (>= 1)")
    p.add_argument("--response-cache", type=int, default=256, metavar="N",
                   help="completed-response LRU size (0 disables)")
    p.add_argument("--deadline-ms", type=int, default=60_000, metavar="MS",
                   help="default per-request deadline")
    p.add_argument("--drain-s", type=float, default=10.0, metavar="S",
                   help="max seconds to wait for in-flight work on shutdown")
    # Accepted and ignored: the structure-keyed plan tier it switched on
    # is gone, but perfbench/servemix.py still starts the server with it.
    # It goes with the next benchmark change.
    p.add_argument("--plan-cache", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--opt-budget", type=float, default=None, metavar="SECONDS",
                   help="wall-time budget per parallelepiped portfolio "
                   "member (SLSQP, simulated annealing) in partition "
                   "workers; unset keeps responses bit-reproducible")
    return p


def serve_main(argv: list[str] | None = None, *, out=None) -> int:
    """Entry point for ``repro serve``: serve until SIGTERM/SIGINT, then
    drain.  Returns the process exit code."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            response_cache_size=args.response_cache,
            deadline_ms=args.deadline_ms,
            drain_s=args.drain_s,
            port_file=args.port_file,
            slo_p99_ms=args.slo_p99_ms,
            slo_error_rate=args.slo_error_rate,
            flight_capacity=args.flight_capacity,
            opt_budget_s=args.opt_budget,
        )
    except ValueError as e:
        parser.error(str(e))
    if args.log_level:
        configure_logging(args.log_level)
    out = out or sys.stdout
    server = PartitionServer(config)

    async def run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.signal_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(
            f"serve: listening on http://{config.host}:{server.port} "
            f"(workers={config.workers}, queue-depth={config.queue_depth})",
            file=out,
            flush=True,
        )
        await server.serve_until_shutdown()
        print("serve: drained, bye", file=out, flush=True)

    try:
        asyncio.run(run())
    except OSError as e:
        print(f"error: cannot listen on {config.host}:{config.port}: {e}", file=out)
        return 1
    return 0
