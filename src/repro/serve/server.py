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
  snapshot plus the workers' summed analytic-cache statistics as JSON,
  or Prometheus text
  exposition when the ``Accept`` header asks for ``text/plain``;
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

The HTTP framing, connection loop, dispatcher, ``/debug`` endpoints and
lifecycle are the core in :mod:`repro.serve.http`; this module holds
the server's handlers.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from collections import OrderedDict
from dataclasses import dataclass

from .. import __version__
from ..lattice.memo import publish_cache_metrics
from ..obs import configure_logging, get_logger, stitch_trace
from .http import EmbeddedService, HttpService, run_service, service_parser
from .protocol import ProtocolError, decode_partition_request
from .workers import WorkerPool

__all__ = ["ServeConfig", "PartitionServer", "EmbeddedServer", "serve_main"]

logger = get_logger("serve.server")


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8787  # 0 = ephemeral (the bound port lands in --port-file)
    workers: int = 1
    queue_depth: int = 64
    response_cache_size: int = 256
    deadline_ms: int = 60_000
    drain_s: float = 10.0
    port_file: str | None = None
    slo_p99_ms: float = 1000.0
    slo_error_rate: float = 0.01
    flight_capacity: int = 512
    opt_budget_s: float | None = None  # per-member parallelepiped budget


class PartitionServer(HttpService):
    """The server: admission, coalescing, the response cache and the
    worker pool, on top of :class:`~repro.serve.http.HttpService`."""

    name = "serve"

    def __init__(self, config: ServeConfig | None = None):
        super().__init__(config or ServeConfig())
        if self.config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.config.workers}")
        if self.config.queue_depth < 1:
            raise ValueError(f"queue-depth must be >= 1, got {self.config.queue_depth}")
        self._pool = WorkerPool(
            workers=self.config.workers, opt_budget_s=self.config.opt_budget_s
        )
        # self._admitted (from HttpService) counts unique computations
        # queued or running.
        self._inflight: dict[tuple, asyncio.Task] = {}
        self._response_cache: OrderedDict[tuple, dict] = OrderedDict()
        self._ready = False

    # -- lifecycle -------------------------------------------------------
    async def _setup(self) -> None:
        """Start the workers before the listener binds."""
        self._pool.start()
        self._metrics.gauge("serve.queue_depth_limit").set(self.config.queue_depth)

    def _on_listening(self) -> None:
        self._spawn(self._prewarm())
        logger.info("listening on %s:%d", self.config.host, self.port)

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

    async def _drain(self) -> None:
        """Drain in-flight work once the listener is closed.

        Shutdown takes at most ``drain_s`` plus the workers' join: what
        the drain did not finish, stopping the pool fails with 503
        ``shutting-down`` (killing busy workers) before the request
        tasks are awaited.
        """
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

    def _flight_details(self, record, status, cache, meta, total_ms) -> dict:
        """Worker timings for a compute request's flight record, and its
        stitched trace.

        A full trace is kept only for requests that actually ran the
        compute (cache=miss with worker meta); hits and coalesced
        followers reuse the leader's computation, so their records carry
        the latency breakdown but no duplicate span tree.
        """
        details = {k: meta.get(k) for k in ("queue_ms", "compute_ms", "worker_pid")}
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
        return details

    async def _handle_compute(self, path: str, body: bytes, request_id: str):
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
    def _healthz(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "ready": bool(self._ready and not self._draining),
            "version": __version__,
            "uptime_s": self._uptime_s(),
            "inflight": self._admitted,
            "queue_depth": self.config.queue_depth,
            "workers": self.config.workers,
            "response_cache_entries": len(self._response_cache),
        }

    def _refresh_slo_gauges(self) -> None:
        """Recompute SLO burn-rate gauges from the flight-recorder window.

        Burn rates are scrape-time quantities (a ratio over a trailing
        window), so they are refreshed on every ``/metrics`` read rather
        than on every request.
        """
        burn = self._flight.burn_rates(
            slo_p99_ms=self.config.slo_p99_ms,
            slo_error_rate=self.config.slo_error_rate,
        )
        self._metrics.gauge("serve.slo.error_burn").set(burn["error_burn"])
        self._metrics.gauge("serve.slo.latency_burn").set(burn["latency_burn"])
        self._metrics.gauge("serve.slo.error_rate").set(burn["error_rate"])
        self._metrics.gauge("serve.slo.window_requests").set(burn["window_requests"])

    async def _metric_entries(self) -> list[dict]:
        self._refresh_slo_gauges()
        publish_cache_metrics(self._metrics, self._pool.cache_stats())
        return self._metrics.snapshot()

    async def _metrics_json(self) -> dict:
        return {
            "schema": "repro.serve-metrics",
            "version": 1,
            "generated_by": f"repro {__version__}",
            "server": self._healthz(),
            "metrics": await self._metric_entries(),
            "caches": self._pool.cache_stats(),
            "slo": {
                "p99_ms": self.config.slo_p99_ms,
                "error_rate": self.config.slo_error_rate,
            },
        }


# ----------------------------------------------------------------------
# Embedding and CLI


class EmbeddedServer(EmbeddedService):
    """A :class:`PartitionServer` on a background thread (tests, embedding)."""

    service_class = PartitionServer


def build_serve_parser() -> argparse.ArgumentParser:
    p = service_parser(
        "repro serve",
        "Long-lived partition-as-a-service HTTP server: "
        "POST /v1/partition, POST /v1/simulate, GET /healthz, GET /metrics.",
        port=8787,
    )
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
    """Entry point for ``repro serve``."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.queue_depth < 1:
        parser.error(f"--queue-depth must be >= 1, got {args.queue_depth}")
    if args.log_level:
        configure_logging(args.log_level)
    out = out or sys.stdout
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

    return run_service(
        PartitionServer(config),
        out=out,
        banner=f"(workers={config.workers}, queue-depth={config.queue_depth})",
    )
