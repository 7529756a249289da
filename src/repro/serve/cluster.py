"""``repro route`` — the multi-replica front tier (consistent-hash router).

The paper's whole pipeline is per-loop-shape: the Sec 3.6 closed forms
and Theorem-2/4 cost terms depend only on the canonical structure of the
nest, which is what the lattice caches key on.  That makes the serve
tier ideal for *shard affinity*: route every canonical request key to a
fixed replica, and that replica's response LRU and warm lattice caches
stay hot on its slice of the keyspace.  :class:`RouterServer` is that front tier:

* computes the same canonical request key the replica's response LRU
  uses (:attr:`~repro.serve.protocol.PartitionRequest.canonical_key`)
  and **rendezvous-hashes** it across the configured replicas — removing
  a replica deterministically remaps only *its* keys onto the survivors,
  every other key keeps its shard (and its warm caches);
* tracks per-replica health via ``/healthz`` (consecutive probe or
  forward failures eject a replica; consecutive ready probes re-admit
  it) and routes only to replicas that are healthy **and** ready
  (worker pool warm-hydrated);
* forwards request and response bodies byte-for-byte over bounded
  keep-alive connection pools
  (:class:`~repro.serve.client.AsyncConnectionPool`), so a response
  through the router is byte-identical to one from the replica;
* retries a failed forward on the next replica in rendezvous order, so
  a replica killed mid-request costs a re-forward, not a dropped
  request;
* aggregates ``/metrics`` (JSON and merged Prometheus text, each
  replica's series labeled ``replica="host:port"``) and ``/debug``
  across the fleet, and propagates ``X-Repro-Request-Id`` end to end —
  ``/debug/requests/<id>`` grafts the replica's stitched trace under
  the router's ``serve.route`` span, so ``repro top`` / ``repro trace``
  pointed at the router see the whole cross-process path including the
  routing hop.

Replicas share no analytic-cache state: each worker's memo stays warm
for the worker's lifetime, and shard affinity sends a key back to the
worker pool that has it.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
import time
from dataclasses import dataclass

from .. import __version__
from ..obs import configure_logging, get_logger, stitch_trace
from .client import AsyncConnectionPool, ServeError
from .http import (
    Body,
    EmbeddedService,
    FramingError,
    HttpService,
    merge_numeric,
    run_service,
    service_parser,
)
from .protocol import ProtocolError, decode_partition_request

__all__ = [
    "RouterConfig",
    "RouterServer",
    "EmbeddedRouter",
    "rendezvous_order",
    "route_main",
]

logger = get_logger("serve.cluster")

#: Response headers forwarded from replica to client verbatim (the
#: replica's Content-Type travels with the relayed body).
_PASSTHROUGH_HEADERS = {"x-repro-cache": "X-Repro-Cache", "retry-after": "Retry-After"}


def rendezvous_order(key: str, addresses: list[str]) -> list[str]:
    """Replicas by descending rendezvous (highest-random-weight) score.

    Each ``(address, key)`` pair hashes independently, so removing an
    address reshuffles nothing: every key's surviving candidates keep
    their relative order, and only the removed address's keys move (each
    to its own second choice).  That is exactly the stability the
    per-replica response and lattice caches want during ejection and
    re-admit.
    """
    def score(address: str) -> bytes:
        return hashlib.sha256(
            address.encode("utf-8") + b"\x00" + key.encode("utf-8")
        ).digest()

    return sorted(addresses, key=score, reverse=True)


@dataclass(kw_only=True)
class RouterConfig:
    """Tunables of one router instance (CLI flags map 1:1).

    ``replicas`` is given as ``HOST:PORT`` strings and stored parsed, as
    ``(address, host, port)`` triples.
    """

    host: str = "127.0.0.1"
    port: int = 8790
    replicas: tuple = ()
    pool_size: int = 8
    health_interval_s: float = 0.5
    health_timeout_s: float = 2.0
    eject_after: int = 2
    readmit_after: int = 2
    forward_timeout_s: float = 120.0
    port_file: str | None = None
    flight_capacity: int = 512
    slo_p99_ms: float = 1000.0
    slo_error_rate: float = 0.01

    def __post_init__(self):
        if not self.replicas:
            raise ValueError("router needs at least one replica address")
        seen = set()
        parsed = []
        for address in self.replicas:
            address = address.strip()
            host_part, sep, port_part = address.rpartition(":")
            if not sep or not host_part:
                raise ValueError(f"replica address must be HOST:PORT, got {address!r}")
            try:
                replica_port = int(port_part)
            except ValueError:
                raise ValueError(
                    f"replica address must be HOST:PORT, got {address!r}"
                ) from None
            if address in seen:
                raise ValueError(f"duplicate replica address {address!r}")
            seen.add(address)
            parsed.append((address, host_part, replica_port))
        self.replicas = tuple(parsed)
        self.eject_after = max(1, self.eject_after)
        self.readmit_after = max(1, self.readmit_after)


class Replica:
    """Router-side state for one backend replica."""

    def __init__(self, address: str, host: str, port: int, *, pool_size: int):
        self.address = address
        self.host = host
        self.port = port
        self.pool = AsyncConnectionPool(host, port, size=pool_size)
        self.healthy = True
        self.ready = False  # set by the first successful probe
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.ejections = 0
        self.last_error: str | None = None

    @property
    def routable(self) -> bool:
        return self.healthy and self.ready

    def to_dict(self) -> dict:
        return {
            "address": self.address,
            "healthy": self.healthy,
            "ready": self.ready,
            "consecutive_failures": self.consecutive_failures,
            "ejections": self.ejections,
            "last_error": self.last_error,
            "pool_connects": self.pool.connects,
        }


#: Errors that mean "this replica did not produce a usable response".
_FORWARD_ERRORS = (
    OSError,
    ConnectionError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    FramingError,
    ServeError,
)


class RouterServer(HttpService):
    """The front tier: rendezvous sharding, health probes, failover and
    the merged ``/metrics``, on top of the shared
    :class:`~repro.serve.http.HttpService`."""

    name = "route"

    def __init__(self, config: RouterConfig):
        super().__init__(config)
        self._replicas: dict[str, Replica] = {
            address: Replica(address, host, port, pool_size=config.pool_size)
            for address, host, port in config.replicas
        }

    # -- lifecycle -------------------------------------------------------
    async def _setup(self) -> None:
        """Probe the fleet once before the listener binds."""
        await self._probe_all()

    def _on_listening(self) -> None:
        self._spawn(self._health_loop())
        self._refresh_fleet_gauges()
        logger.info(
            "routing on %s:%d across %d replica(s): %s",
            self.config.host,
            self.port,
            len(self._replicas),
            ", ".join(self._replicas),
        )

    async def _drain(self) -> None:
        for replica in self._replicas.values():
            await replica.pool.close()
        logger.info("router drained; %d requests served", self._requests_served)

    # -- health tracking -------------------------------------------------
    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            await self._probe_all()

    async def _probe_all(self) -> None:
        await asyncio.gather(
            *(self._probe(r) for r in self._replicas.values()),
            return_exceptions=True,
        )
        self._refresh_fleet_gauges()

    async def _probe(self, replica: Replica) -> None:
        try:
            status, _headers, body = await asyncio.wait_for(
                replica.pool.request_raw("GET", "/healthz"),
                timeout=self.config.health_timeout_s,
            )
            doc = json.loads(body.decode("utf-8"))
            alive = status == 200 and doc.get("status") == "ok"
            # Pre-readiness servers (and anything that predates the
            # ready flag) count as ready once alive.
            ready = bool(doc.get("ready", True))
        except _FORWARD_ERRORS + (ValueError,) as e:
            self._note_failure(replica, f"healthz: {type(e).__name__}: {e}")
            return
        if not alive:
            self._note_failure(replica, f"healthz: status {status}, {doc.get('status')}")
            return
        replica.ready = ready
        replica.last_error = None
        replica.consecutive_failures = 0
        if ready:
            replica.consecutive_successes += 1
            if (
                not replica.healthy
                and replica.consecutive_successes >= self.config.readmit_after
            ):
                replica.healthy = True
                self._metrics.counter(
                    "route.readmissions", replica=replica.address
                ).inc()
                logger.info("re-admitted replica %s", replica.address)
        else:
            # Alive but cold (worker pool still hydrating): not a
            # failure, but not routable either, and not progress toward
            # re-admission.
            replica.consecutive_successes = 0

    def _note_failure(self, replica: Replica, error: str) -> None:
        replica.consecutive_successes = 0
        replica.consecutive_failures += 1
        replica.last_error = error
        if replica.healthy and replica.consecutive_failures >= self.config.eject_after:
            replica.healthy = False
            replica.ready = False
            replica.ejections += 1
            self._metrics.counter("route.ejections", replica=replica.address).inc()
            logger.warning(
                "ejected replica %s after %d consecutive failures (%s)",
                replica.address,
                replica.consecutive_failures,
                error,
            )
        self._refresh_fleet_gauges()

    def _refresh_fleet_gauges(self) -> None:
        self._metrics.gauge("route.replicas_total").set(len(self._replicas))
        self._metrics.gauge("route.replicas_routable").set(
            sum(1 for r in self._replicas.values() if r.routable)
        )

    # -- routing ---------------------------------------------------------
    async def _handle_compute(self, path: str, body: bytes, request_id: str):
        self._admitted += 1
        try:
            return await self._forward_compute(path, body, request_id)
        finally:
            self._admitted -= 1

    async def _forward_compute(self, path: str, body: bytes, request_id: str):
        """Pick the shard, forward the raw request, fail over on error.

        Returns ``(status, relayed body, extra_headers, flight info)``.
        The request is validated *here* so malformed requests get their
        400/422 from the router without burning a replica round trip —
        and so the shard key is the same canonical key the replica's
        response cache will use.  A replica whose response breaks the
        HTTP framing counts as failed, like one that drops the
        connection.
        """
        if self._draining:
            raise ProtocolError("router is draining", code="shutting-down", status=503)
        request = decode_partition_request(
            body, force_simulate=(path == "/v1/simulate")
        )
        shard_key = repr(request.canonical_key)
        order = rendezvous_order(shard_key, list(self._replicas))
        candidates = [a for a in order if self._replicas[a].routable]
        if not candidates:
            raise ProtocolError(
                "no healthy replicas available", code="no-replicas", status=503
            )
        fwd_headers = {
            "Content-Type": "application/json",
            "X-Repro-Request-Id": request_id,
        }
        attempts = 0
        last_error = "?"
        for address in candidates:
            replica = self._replicas[address]
            attempts += 1
            t0 = time.perf_counter()
            try:
                status, rheaders, rbody = await asyncio.wait_for(
                    replica.pool.request_raw("POST", path, body, fwd_headers),
                    timeout=self.config.forward_timeout_s,
                )
            except _FORWARD_ERRORS as e:
                forward_ms = (time.perf_counter() - t0) * 1000.0
                last_error = f"{type(e).__name__}: {e}"
                self._metrics.counter("route.forward_errors", replica=address).inc()
                self._note_failure(replica, f"forward: {last_error}")
                logger.warning(
                    "forward to %s failed after %.1f ms (%s); "
                    "trying next replica in rendezvous order",
                    address,
                    forward_ms,
                    last_error,
                )
                continue
            forward_ms = (time.perf_counter() - t0) * 1000.0
            replica.consecutive_failures = 0
            extra = {
                header: rheaders[name]
                for name, header in _PASSTHROUGH_HEADERS.items()
                if name in rheaders
            }
            extra["X-Repro-Replica"] = address
            if attempts > 1:
                self._metrics.counter("route.failovers").inc()
            route_span = {
                "name": "serve.route",
                "duration_s": round(forward_ms / 1000.0, 9),
                "attrs": {"replica": address, "attempts": attempts},
            }
            relayed = Body(
                rbody,
                rheaders.get("content-type", "application/json"),
                server="repro-route",
            )
            return status, relayed, extra, {"replica": address, "route_span": route_span}
        raise ProtocolError(
            f"all {attempts} routable replica(s) failed this request "
            f"(last: {last_error})",
            code="no-replicas",
            status=503,
        )

    def _flight_details(self, record, status, cache, info, total_ms) -> dict:
        """The replica that answered, and the ``serve.route`` hop as the
        trace, under which ``/debug/requests/<id>`` grafts the replica's
        own trace."""
        details = {"replica": info.get("replica")}
        if info.get("route_span") is not None:
            trace = stitch_trace(
                record.request_id, record.endpoint,
                total_ms=total_ms, status=status, cache=cache,
            )
            trace["attrs"]["router"] = True
            trace["children"] = [info["route_span"]]
            details["trace"] = trace
        return details

    # -- GET endpoints ---------------------------------------------------
    async def _debug_request(self, request_id: str) -> dict:
        """The router's record, with the replica's stitched trace grafted
        under its ``serve.route`` span."""
        out = await super()._debug_request(request_id)
        record = out.get("record") or {}
        trace = out.get("trace")
        replica_address = record.get("replica")
        if trace is not None and replica_address in self._replicas:
            # Deep-copy before grafting: the stored trace must stay
            # router-only (the replica's retention is its own business).
            trace = json.loads(json.dumps(trace))
            replica_doc = await self._fetch_replica_json(
                self._replicas[replica_address], f"/debug/requests/{request_id}"
            )
            replica_trace = (replica_doc or {}).get("trace")
            if replica_trace is not None:
                for child in trace.get("children", []):
                    if child.get("name") == "serve.route":
                        child["children"] = [replica_trace]
                        break
            out["trace"] = trace
            if replica_doc and replica_doc.get("record"):
                out["replica_record"] = replica_doc["record"]
        return out

    def _healthz(self) -> dict:
        routable = sum(1 for r in self._replicas.values() if r.routable)
        return {
            "status": "draining" if self._draining else "ok",
            "ready": routable > 0 and not self._draining,
            "router": True,
            "version": __version__,
            "uptime_s": self._uptime_s(),
            "inflight": self._admitted,
            "replicas_total": len(self._replicas),
            "replicas_routable": routable,
            "replicas": [r.to_dict() for r in self._replicas.values()],
        }

    async def _fetch_replica_json(self, replica: Replica, path: str) -> dict | None:
        try:
            status, _headers, body = await asyncio.wait_for(
                replica.pool.request_raw("GET", path),
                timeout=max(self.config.health_timeout_s, 10.0),
            )
            if status != 200:
                return None
            return json.loads(body.decode("utf-8"))
        except _FORWARD_ERRORS + (ValueError,):
            return None

    async def _replica_dumps(self) -> list[tuple[str, dict]]:
        """Every replica's ``/metrics`` JSON dump (unreachable → skipped)."""
        replicas = list(self._replicas.values())
        docs = await asyncio.gather(
            *(self._fetch_replica_json(r, "/metrics") for r in replicas)
        )
        return [(r.address, doc) for r, doc in zip(replicas, docs) if doc]

    async def _metric_entries(self, dumps=None) -> list[dict]:
        """Router ``route.*`` entries + replica entries labeled ``replica=``.

        The router's registry is filtered to its own ``route.*`` names so
        the merge is well-defined even when router and replicas share a
        process (the embedded test harness); each replica series gains a
        ``replica="host:port"`` label so same-named series from different
        replicas stay distinct under one TYPE header.
        """
        if dumps is None:
            dumps = await self._replica_dumps()
        entries = [
            e for e in self._metrics.snapshot() if e.get("name", "").startswith("route.")
        ]
        for address, dump in dumps:
            for entry in dump.get("metrics", []):
                entry = dict(entry)
                labels = dict(entry.get("labels") or {})
                labels["replica"] = address
                entry["labels"] = labels
                entries.append(entry)
        return entries

    async def _metrics_json(self) -> dict:
        dumps = await self._replica_dumps()
        caches: dict = {}
        servers = {}
        for address, dump in dumps:
            merge_numeric(caches, dump.get("caches", {}))
            servers[address] = dump.get("server", {})
        health = self._healthz()
        server = {
            "status": health["status"],
            "ready": health["ready"],
            "router": True,
            "uptime_s": health["uptime_s"],
            "inflight": sum(s.get("inflight", 0) for s in servers.values()),
            "workers": sum(s.get("workers", 0) for s in servers.values()),
            "queue_depth": sum(s.get("queue_depth", 0) for s in servers.values()),
            "replicas_total": health["replicas_total"],
            "replicas_routable": health["replicas_routable"],
        }
        return {
            "schema": "repro.serve-metrics",
            "version": 1,
            "generated_by": f"repro {__version__} (router)",
            "server": server,
            "metrics": await self._metric_entries(dumps),
            "caches": caches,
            # Every replica; ``server`` is null for one that could not
            # be scraped.
            "replicas": [
                dict(r.to_dict(), server=servers.get(r.address))
                for r in self._replicas.values()
            ],
            "slo": {
                "p99_ms": self.config.slo_p99_ms,
                "error_rate": self.config.slo_error_rate,
            },
        }


class EmbeddedRouter(EmbeddedService):
    """A :class:`RouterServer` on a background thread (tests, embedding)."""

    service_class = RouterServer


def build_route_parser() -> argparse.ArgumentParser:
    p = service_parser(
        "repro route",
        "Consistent-hash front tier over N repro serve replicas: "
        "shard-affine routing by canonical request key, health-tracked "
        "failover, merged /metrics and /debug.",
        port=8790,
    )
    p.add_argument("--replicas", action="append", default=[], metavar="HOST:PORT",
                   help="backend replica address (repeatable, or one "
                   "comma-separated list)")
    p.add_argument("--pool-size", type=int, default=8, metavar="N",
                   help="max keep-alive connections per replica")
    p.add_argument("--health-interval-s", type=float, default=0.5, metavar="S",
                   help="seconds between /healthz probe rounds")
    p.add_argument("--health-timeout-s", type=float, default=2.0, metavar="S")
    p.add_argument("--eject-after", type=int, default=2, metavar="N",
                   help="consecutive probe/forward failures before a "
                   "replica is ejected")
    p.add_argument("--readmit-after", type=int, default=2, metavar="N",
                   help="consecutive ready probes before an ejected "
                   "replica is re-admitted")
    p.add_argument("--forward-timeout-s", type=float, default=120.0, metavar="S",
                   help="per-forward ceiling before failing over")
    return p


def route_main(argv: list[str] | None = None, *, out=None) -> int:
    """Entry point for ``repro route``."""
    parser = build_route_parser()
    args = parser.parse_args(argv)
    addresses: list[str] = []
    for chunk in args.replicas:
        addresses.extend(a for a in chunk.split(",") if a.strip())
    if not addresses:
        parser.error("at least one --replicas HOST:PORT is required")
    if args.pool_size < 1:
        parser.error(f"--pool-size must be >= 1, got {args.pool_size}")
    if args.log_level:
        configure_logging(args.log_level)
    out = out or sys.stdout
    try:
        config = RouterConfig(
            host=args.host,
            port=args.port,
            replicas=tuple(addresses),
            pool_size=args.pool_size,
            health_interval_s=args.health_interval_s,
            health_timeout_s=args.health_timeout_s,
            eject_after=args.eject_after,
            readmit_after=args.readmit_after,
            forward_timeout_s=args.forward_timeout_s,
            port_file=args.port_file,
            flight_capacity=args.flight_capacity,
            slo_p99_ms=args.slo_p99_ms,
            slo_error_rate=args.slo_error_rate,
        )
    except ValueError as e:
        parser.error(str(e))

    return run_service(
        RouterServer(config),
        out=out,
        banner=f"across {len(config.replicas)} replica(s)",
    )
