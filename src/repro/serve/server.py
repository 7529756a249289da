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
  snapshot plus analytic-cache statistics as JSON, or Prometheus text
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
5. **Dispatch and batching** — the
   :class:`~repro.serve.batching.MicroBatcher` ships an admitted request
   to an idle compute worker at once, over that worker's own pipe;
   requests that arrive while every worker is busy pile up and go to the
   first worker that frees as one batch of at most ``--max-batch``.
6. **Deadlines** — each request has a deadline (``deadline_ms`` or the
   server default); a request whose compute is still running when it
   expires gets ``504``, while the computation itself is left to finish
   and populate the response cache for the retry.
7. **Graceful drain** — SIGTERM/SIGINT stop the listener, let in-flight
   work finish (bounded by ``--drain-s``; what is left then fails with
   ``503 shutting-down``), flush the warm caches to ``--cache-dir``,
   then exit.

The HTTP framing, connection loop, dispatcher, ``/debug`` endpoints and
lifecycle are the shared core in :mod:`repro.serve.http`; this module
holds only the replica's handlers.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from collections import OrderedDict
from dataclasses import dataclass

from .. import __version__
from ..lattice.memo import analytic_cache_stats, publish_cache_metrics
from ..obs import configure_logging, get_logger, stitch_trace
from .batching import MicroBatcher
from .http import EmbeddedService, HttpService, run_service, service_parser
from .protocol import ProtocolError, decode_partition_request

__all__ = ["ServeConfig", "PartitionServer", "EmbeddedServer", "serve_main"]

logger = get_logger("serve.server")


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8787  # 0 = ephemeral (the bound port lands in --port-file)
    workers: int = 1
    queue_depth: int = 64
    max_batch: int = 8
    cache_dir: str | None = None
    response_cache_size: int = 256
    deadline_ms: int = 60_000
    drain_s: float = 10.0
    port_file: str | None = None
    slo_p99_ms: float = 1000.0
    slo_error_rate: float = 0.01
    flight_capacity: int = 512
    trace_requests: bool = True  # ship worker span trees back per request
    plan_cache: bool = False  # route theorem-4 optimisation through plans
    opt_budget_s: float | None = None  # per-member parallelepiped budget
    cache_exchange_s: float | None = None  # period of cross-replica cache exchange


class PartitionServer(HttpService):
    """The replica: admission, coalescing, the response cache and the
    batcher, on top of the shared :class:`~repro.serve.http.HttpService`."""

    name = "serve"

    def __init__(self, config: ServeConfig | None = None):
        super().__init__(config or ServeConfig())
        if self.config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.config.workers}")
        if self.config.queue_depth < 1:
            raise ValueError(f"queue-depth must be >= 1, got {self.config.queue_depth}")
        self._batcher = MicroBatcher(
            workers=self.config.workers,
            cache_dir=self.config.cache_dir,
            max_batch=self.config.max_batch,
            ship_traces=self.config.trace_requests,
            plan_cache=self.config.plan_cache,
            opt_budget_s=self.config.opt_budget_s,
        )
        # self._admitted (from HttpService) counts unique computations
        # queued or running.
        self._inflight: dict[tuple, asyncio.Task] = {}
        self._response_cache: OrderedDict[tuple, dict] = OrderedDict()
        self._ready = False

    # -- lifecycle -------------------------------------------------------
    async def _setup(self) -> None:
        """Hydrate caches and start the workers before the listener binds."""
        loaded = 0
        if self.config.cache_dir:
            from ..lattice.persist import load_caches

            loaded = load_caches(self.config.cache_dir)
            logger.info(
                "warm-started analytic caches: %d entries from %s",
                loaded,
                self.config.cache_dir,
            )
        self._batcher.start()
        self._metrics.gauge("serve.queue_depth_limit").set(self.config.queue_depth)
        self._metrics.gauge("serve.cache_entries_loaded").set(loaded)

    def _on_listening(self) -> None:
        self._spawn(self._prewarm())
        if self.config.cache_dir and self.config.cache_exchange_s:
            self._spawn(self._cache_exchange_loop())
        logger.info("listening on %s:%d", self.config.host, self.port)

    async def _prewarm(self) -> None:
        """Hydrate the workers, then flip ``/healthz`` readiness.

        The listener answers immediately (liveness), but ``ready`` stays
        false until every compute worker has spawned and finished
        :func:`~repro.serve.pipeline.init_worker` — so a router or a
        rolling restart never sends traffic at a replica whose first
        request would eat the whole cold-hydration cost.
        """
        try:
            await self._batcher.prewarm()
        except Exception:  # pragma: no cover - worker failures surface later
            logger.exception("worker prewarm failed; serving anyway")
        finally:
            self._ready = True
            self._metrics.gauge("serve.ready").set(1)
            logger.info("workers warm; replica ready")

    async def _cache_exchange_loop(self) -> None:
        """Periodic cross-replica cache exchange through ``--cache-dir``.

        Every period, snapshot this replica's analytic-cache deltas into
        the shared directory (union-merge under the lockfile) and absorb
        peers' entries published since the last cycle.  Runs in an
        executor thread — the lockfile wait must never stall the loop.
        """
        from ..lattice.persist import exchange_caches

        loop = asyncio.get_running_loop()
        assert self.config.cache_exchange_s is not None
        while True:
            await asyncio.sleep(self.config.cache_exchange_s)
            try:
                written, absorbed = await loop.run_in_executor(
                    None, exchange_caches, self.config.cache_dir
                )
            except (OSError, TimeoutError) as e:
                self._metrics.counter("serve.cache_exchange.errors").inc()
                logger.warning("cache exchange failed: %s", e)
                continue
            self._metrics.counter("serve.cache_exchange.cycles").inc()
            self._metrics.counter("serve.cache_exchange.absorbed").inc(absorbed)
            self._metrics.gauge("serve.cache_exchange.last_written").set(written)

    async def _drain(self) -> None:
        """Drain in-flight work and flush caches once the listener is closed.

        Shutdown takes at most ``drain_s`` plus the workers' join: what
        the drain did not finish, stopping the batcher fails with 503
        ``shutting-down`` (killing busy workers) before the request
        tasks are awaited.
        """
        try:
            await asyncio.wait_for(self._batcher.drain(), timeout=self.config.drain_s)
        except asyncio.TimeoutError:
            logger.warning(
                "drain did not finish within %.1fs; abandoning in-flight work",
                self.config.drain_s,
            )
        await self._batcher.stop()
        if self._inflight:
            await asyncio.gather(*list(self._inflight.values()), return_exceptions=True)
        if self.config.cache_dir:
            from ..lattice.persist import save_caches

            try:
                written = save_caches(self.config.cache_dir)
                logger.info(
                    "persisted analytic caches: %d entries in %s",
                    written,
                    self.config.cache_dir,
                )
            except OSError as e:
                logger.warning(
                    "could not persist analytic caches to %r: %s",
                    self.config.cache_dir,
                    e,
                )
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
        if self.config.trace_requests and cache == "miss" and "spans" in meta:
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
        report, meta = await self._batcher.submit(request, request_id)
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
        publish_cache_metrics(self._metrics)
        return self._metrics.snapshot()

    async def _metrics_json(self) -> dict:
        return {
            "schema": "repro.serve-metrics",
            "version": 1,
            "generated_by": f"repro {__version__}",
            "server": self._healthz(),
            "metrics": await self._metric_entries(),
            "caches": analytic_cache_stats(),
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
    p.add_argument("--max-batch", type=int, default=8, metavar="N",
                   help="max requests per worker batch")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="warm-start the analytic caches from DIR at startup "
                   "and flush them there on shutdown; defaults to "
                   "$REPRO_CACHE_DIR when that is set")
    p.add_argument("--response-cache", type=int, default=256, metavar="N",
                   help="completed-response LRU size (0 disables)")
    p.add_argument("--deadline-ms", type=int, default=60_000, metavar="MS",
                   help="default per-request deadline")
    p.add_argument("--drain-s", type=float, default=10.0, metavar="S",
                   help="max seconds to wait for in-flight work on shutdown")
    p.add_argument("--plan-cache", action="store_true",
                   help="solve the Sec 3.6 closed forms once per loop "
                   "structure and instantiate cached plans per request "
                   "(falls back to the numeric optimizer when a structure "
                   "has no closed form)")
    p.add_argument("--cache-exchange-s", type=float, default=None, metavar="S",
                   help="with --cache-dir: every S seconds, snapshot this "
                   "replica's analytic-cache deltas into the shared cache "
                   "directory and absorb peers' entries (cross-replica "
                   "cache exchange for multi-replica serving)")
    p.add_argument("--opt-budget", type=float, default=None, metavar="SECONDS",
                   help="wall-time budget per parallelepiped portfolio "
                   "member (SLSQP, simulated annealing) in partition "
                   "workers; unset keeps responses bit-reproducible")
    p.add_argument("--no-request-traces", action="store_true",
                   help="do not ship worker span trees back per request "
                   "(/debug/requests/<id> loses stitched traces; used to "
                   "measure telemetry overhead)")
    return p


def serve_main(argv: list[str] | None = None, *, out=None) -> int:
    """Entry point for ``repro serve``."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.queue_depth < 1:
        parser.error(f"--queue-depth must be >= 1, got {args.queue_depth}")
    if args.max_batch < 1:
        parser.error(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.log_level:
        configure_logging(args.log_level)
    out = out or sys.stdout
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        cache_dir=args.cache_dir or os.environ.get("REPRO_CACHE_DIR"),
        response_cache_size=args.response_cache,
        deadline_ms=args.deadline_ms,
        drain_s=args.drain_s,
        port_file=args.port_file,
        slo_p99_ms=args.slo_p99_ms,
        slo_error_rate=args.slo_error_rate,
        flight_capacity=args.flight_capacity,
        trace_requests=not args.no_request_traces,
        plan_cache=args.plan_cache,
        opt_budget_s=args.opt_budget,
        cache_exchange_s=args.cache_exchange_s,
    )

    return run_service(
        PartitionServer(config),
        out=out,
        banner=f"(workers={config.workers}, queue-depth={config.queue_depth})",
    )
