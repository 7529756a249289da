"""The blocking client for the partition service, and the router's pool.

:class:`ServeClient` wraps a keep-alive :class:`http.client.HTTPConnection`
for scripts, tests, and the load generator.  It raises
:class:`ServeError` for any non-200 response, carrying the HTTP status
and the decoded typed error payload.  The functions after it
(:func:`counter_total`, :func:`latency`, :func:`shard_stats`, ...) read
the ``/metrics`` dump it returns, for ``repro loadgen``, ``repro top``
and the benchmarks.

The client treats 429 (admission overload) as a retryable condition:
it honors the server's ``Retry-After`` hint with capped exponential
backoff and *deterministic* jitter (seeded per client, so a run is
reproducible), raising only once ``max_retries_429`` attempts are
exhausted.  ``retries_429`` counts the retries a client performed.

:class:`AsyncConnectionPool` is the router's building block: a bounded
keep-alive pool of raw HTTP/1.1 connections to one replica, exposing
byte-level request/response passthrough so the router never re-encodes
a replica's response body.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import time

from .http import encode_request, read_response

__all__ = [
    "ServeError",
    "ServeClient",
    "AsyncConnectionPool",
    "backoff_delay_s",
    "cache_stats",
    "counter_total",
    "gauge",
    "hit_rate",
    "is_router",
    "latency",
    "latency_rows",
    "shard_stats",
]


class ServeError(Exception):
    """A non-200 response from the service."""

    def __init__(self, status: int, payload: dict | None = None):
        err = (payload or {}).get("error", {})
        self.status = status
        self.code = err.get("code", "unknown")
        self.payload = payload or {}
        self.retry_after: float | None = None
        super().__init__(
            f"HTTP {status} [{self.code}]: {err.get('message', 'no error payload')}"
        )


def backoff_delay_s(
    attempt: int,
    retry_after: float | None,
    *,
    base_s: float = 0.05,
    cap_s: float = 2.0,
    rng: random.Random | None = None,
) -> float:
    """Backoff before retry number ``attempt`` (0-based) of a 429.

    Exponential from ``base_s``, never below the server's ``Retry-After``
    hint, capped at ``cap_s``; ``rng`` adds up to 10% deterministic
    jitter (callers seed it, so a retry schedule is reproducible).
    """
    delay = base_s * (2.0 ** attempt)
    if retry_after is not None and retry_after > 0:
        delay = max(delay, retry_after)
    delay = min(delay, cap_s)
    if rng is not None:
        delay *= 1.0 + 0.1 * rng.random()
    return delay


def _request_body(source, processors, **options) -> dict:
    body = {"source": source, "processors": processors}
    body.update({k: v for k, v in options.items() if v is not None})
    return body


class ServeClient:
    """Blocking keep-alive client.

    Keywords other than ``timeout`` set the 429 retry policy
    (``max_retries_429``, ``backoff_base_s``, ``backoff_cap_s``,
    ``backoff_seed``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        timeout: float = 60.0,
        max_retries_429: int = 4,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        backoff_seed: int = 0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries_429 = max_retries_429
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._backoff_rng = random.Random(backoff_seed)
        self._conn: http.client.HTTPConnection | None = None
        #: Cache disposition of the last compute call (miss/hit/coalesced).
        self.last_cache_status: str | None = None
        #: Request id the server echoed (or minted) for the last call.
        self.last_request_id: str | None = None
        #: 429-overload retries this client has performed.
        self.retries_429 = 0

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        request_id: str | None = None,
        accept: str | None = None,
        raw_body: bool = False,
    ) -> dict | str:
        """One logical request (with transparent 429 retries).

        ``request_id`` travels as the ``X-Repro-Request-Id`` header
        (never in the body — the request schema is strict);
        ``accept``/``raw_body`` fetch non-JSON responses such as the
        Prometheus ``/metrics`` exposition."""
        attempt = 0
        while True:
            try:
                return self._round_trip(
                    method, path, payload,
                    request_id=request_id, accept=accept, raw_body=raw_body,
                )
            except ServeError as e:
                time.sleep(self._retry_delay(e, attempt))
                attempt += 1

    def _retry_delay(self, error: "ServeError", attempt: int) -> float:
        """Backoff before retry ``attempt`` of ``error``; re-raises it
        unless it is a 429 with retries left."""
        if error.status != 429 or attempt >= self.max_retries_429:
            raise error
        self.retries_429 += 1
        return backoff_delay_s(
            attempt, error.retry_after,
            base_s=self.backoff_base_s,
            cap_s=self.backoff_cap_s,
            rng=self._backoff_rng,
        )

    def _round_trip(
        self,
        method: str,
        path: str,
        payload: dict | None,
        *,
        request_id: str | None,
        accept: str | None,
        raw_body: bool,
    ) -> dict | str:
        conn = self._connection()
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            headers["X-Repro-Request-Id"] = request_id
        if accept is not None:
            headers["Accept"] = accept
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            # A dropped keep-alive connection is retried once on a fresh
            # socket; a genuinely dead server fails the retry.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        rheaders = {name.lower(): value for name, value in response.getheaders()}
        return self._decode(response.status, rheaders, raw, raw_body=raw_body)

    def _decode(
        self, status: int, headers: dict[str, str], raw: bytes, *, raw_body: bool = False
    ) -> dict | str:
        """Response → decoded JSON (or text with ``raw_body``); a non-200
        raises :class:`ServeError`.  ``headers`` keys are lower-case."""
        self.last_cache_status = headers.get("x-repro-cache")
        self.last_request_id = headers.get("x-repro-request-id")
        if raw_body and status == 200:
            return raw.decode("utf-8")
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except json.JSONDecodeError as e:
            raise ServeError(status, {"error": {
                "code": "bad-response", "message": f"undecodable body: {e}"}}) from None
        if status != 200:
            err = ServeError(status, decoded)
            try:
                err.retry_after = float(headers["retry-after"])
            except (KeyError, ValueError):
                pass
            raise err
        return decoded

    # -- endpoints -------------------------------------------------------
    def partition(
        self, source: str, processors: int, *, request_id: str | None = None, **options
    ) -> dict:
        """``POST /v1/partition``; options mirror the request schema
        (``bindings``, ``method``, ``simulate``, ``sweeps``, ``engine``,
        ``label``, ``deadline_ms``).  ``request_id`` tags the request for
        end-to-end tracing (``/debug/requests/<id>``)."""
        return self.request(
            "POST", "/v1/partition", _request_body(source, processors, **options),
            request_id=request_id,
        )

    def simulate(
        self, source: str, processors: int, *, request_id: str | None = None, **options
    ) -> dict:
        """``POST /v1/simulate`` (partition + machine-simulator validation)."""
        return self.request(
            "POST", "/v1/simulate", _request_body(source, processors, **options),
            request_id=request_id,
        )

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")

    def metrics_text(self) -> str:
        """``GET /metrics`` in Prometheus text exposition format."""
        return self.request(
            "GET", "/metrics", accept="text/plain", raw_body=True
        )

    def debug_requests(self) -> dict:
        """``GET /debug/requests`` — the flight recorder's recent view."""
        return self.request("GET", "/debug/requests")

    def debug_request(self, request_id: str) -> dict:
        """``GET /debug/requests/<id>`` — record + stitched trace."""
        return self.request("GET", f"/debug/requests/{request_id}")

    def debug_inflight(self) -> dict:
        """``GET /debug/inflight`` — requests currently being served."""
        return self.request("GET", "/debug/inflight")


# -- reading a /metrics dump ------------------------------------------------
# The one place that knows the shape of the JSON ServeClient.metrics()
# returns.  A router's dump (``server.router``) holds its own ``route.*``
# series, every replica's series labelled ``replica="host:port"``, and
# the replica roster.


def _series(dump: dict | None, *names: str):
    for entry in (dump or {}).get("metrics", []):
        if entry.get("name") in names:
            yield entry.get("labels") or {}, entry


def is_router(dump: dict | None) -> bool:
    return bool((dump or {}).get("server", {}).get("router"))


def counter_total(
    dump: dict | None,
    name: str,
    *,
    replica: str | None = None,
    endpoint: str | None = None,
):
    """The ``name`` counter summed over its series (with ``replica``:
    over that replica's series in a router's dump; with ``endpoint``:
    over the series of that endpoint)."""
    return sum(
        entry.get("value", 0)
        for labels, entry in _series(dump, name)
        if entry.get("type") == "counter"
        and replica in (None, labels.get("replica"))
        and endpoint in (None, labels.get("endpoint"))
    )


def gauge(dump: dict | None, name: str, default=None):
    return next(
        (e.get("value") for _, e in _series(dump, name) if e.get("type") == "gauge"),
        default,
    )


def latency(dump: dict | None, *, replica: str | None = None) -> dict | None:
    """The ``/v1/partition`` latency summary (count, mean, p50, p95, p99,
    max), ``None`` without samples.

    Without ``replica``: the target's own histogram — a router's
    ``route.latency_ms`` or a server's ``serve.latency_ms``, the series
    with no ``replica`` label.  With it: that replica's
    ``serve.latency_ms`` in a router's dump.
    """
    service = "route" if replica is None and is_router(dump) else "serve"
    for labels, entry in _series(dump, f"{service}.latency_ms"):
        if (
            labels.get("endpoint") == "/v1/partition"
            and labels.get("replica") == replica
            and entry.get("count")
        ):
            return {k: entry.get(k) for k in ("count", "mean", "p50", "p95", "p99", "max")}
    return None


def latency_rows(dump: dict | None) -> list[tuple[str, dict]]:
    """``(endpoint, histogram)`` of every endpoint with samples, sorted;
    a replica's rows in a router's dump read ``endpoint @host:port``."""
    rows = []
    for labels, entry in _series(dump, "serve.latency_ms", "route.latency_ms"):
        if entry.get("count"):
            replica = f" @{labels['replica']}" if labels.get("replica") else ""
            rows.append((labels.get("endpoint", "?") + replica, entry))
    return sorted(rows, key=lambda row: row[0])


def cache_stats(dump: dict | None, name: str) -> dict | None:
    """One cache's counters (``lattice_cache``, ...), summed
    over the replicas in a router's dump."""
    return (dump or {}).get("caches", {}).get(name)


def hit_rate(hits, misses) -> float | None:
    return hits / (hits + misses) if hits + misses else None


def shard_stats(dump: dict | None) -> list[dict]:
    """Each replica in a router's dump (``[]`` for a server's): health,
    partition requests served (``/v1/partition`` only, not the router's
    ``/healthz`` probes or ``/metrics`` fan-out), response-cache hits and
    its ``/v1/partition`` latency, cumulative since it started.  One the
    router could not scrape reads ``reachable: false``."""
    shards = []
    for replica in (dump or {}).get("replicas", []) if is_router(dump) else []:
        address = replica.get("address")
        shard = {k: replica.get(k) for k in ("healthy", "ready", "ejections")}
        shard.update(replica=address, reachable=replica.get("server") is not None)
        if shard["reachable"]:
            hits, misses = (
                counter_total(dump, f"serve.response_cache.{k}", replica=address)
                for k in ("hits", "misses")
            )
            shard["requests"] = counter_total(
                dump, "serve.requests", replica=address, endpoint="/v1/partition"
            )
            shard["response_cache"] = {
                "hits": hits, "misses": misses, "hit_rate": hit_rate(hits, misses)
            }
            shard["latency_ms"] = latency(dump, replica=address)
        shards.append(shard)
    return shards


class AsyncConnectionPool:
    """Bounded keep-alive connection pool to one HTTP/1.1 peer.

    At most ``size`` connections exist at any moment (in use + idle);
    excess concurrent requests wait on the internal semaphore.  A
    connection that completes a round trip cleanly returns to the idle
    list for reuse; any transport error closes it, so the pool never
    reuses a stream in an unknown framing state.

    :meth:`request_raw` is byte-level passthrough — the response body is
    returned exactly as the peer framed it, which the router relies on
    to keep replica responses byte-identical through the extra hop.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        size: int = 8,
        connect_timeout_s: float = 5.0,
        limit: int = 1 << 22,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.host = host
        self.port = port
        self.size = size
        self.connect_timeout_s = connect_timeout_s
        self._limit = limit
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._sem = asyncio.Semaphore(size)
        self._closed = False
        #: Connections opened over the pool's lifetime (reuse telemetry).
        self.connects = 0

    async def _checkout(self):
        while self._idle:
            reader, writer = self._idle.pop()
            if writer.is_closing():
                _close_writer(writer)
                continue
            return reader, writer
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port, limit=self._limit),
            timeout=self.connect_timeout_s,
        )
        self.connects += 1
        return reader, writer

    async def request_raw(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One round trip → ``(status, lowercase headers, raw body)``.

        Raises :class:`ServeError` (status 0) if the peer closed before
        answering and :class:`~repro.serve.http.FramingError` if the
        response breaks the HTTP framing."""
        if self._closed:
            raise ConnectionError("pool is closed")
        async with self._sem:
            reader, writer = await self._checkout()
            try:
                writer.write(
                    encode_request(method, path, self.host, self.port, body, headers)
                )
                await writer.drain()
                response = await read_response(reader)
                if response is None:
                    raise ServeError(0, {"error": {
                        "code": "connection-closed",
                        "message": "server closed the connection"}})
            except BaseException:
                _close_writer(writer)
                raise
            status, rheaders, rbody = response
            if rheaders.get("connection", "").lower() == "close" or self._closed:
                _close_writer(writer)
            else:
                self._idle.append((reader, writer))
            return status, rheaders, rbody

    async def close(self) -> None:
        self._closed = True
        while self._idle:
            _, writer = self._idle.pop()
            _close_writer(writer)


def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except Exception:  # pragma: no cover - teardown best effort
        pass
