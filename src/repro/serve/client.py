"""The blocking client for the partition service.

:class:`ServeClient` wraps a keep-alive :class:`http.client.HTTPConnection`
for scripts, tests, and the load generator.  It raises
:class:`ServeError` for any non-200 response, carrying the HTTP status
and the decoded typed error payload.  The functions after it
(:func:`counter_total`, :func:`latency`, :func:`cache_stats`, ...) read
the ``/metrics`` dump it returns, for ``repro loadgen``, ``repro top``
and the benchmarks.

The client treats 429 (admission overload) as a retryable condition:
it honors the server's ``Retry-After`` hint with capped exponential
backoff and *deterministic* jitter (seeded per client, so a run is
reproducible), raising only once ``max_retries_429`` attempts are
exhausted.  ``retries_429`` counts the retries a client performed.
"""

from __future__ import annotations

import http.client
import json
import random
import time

__all__ = [
    "ServeError",
    "ServeClient",
    "backoff_delay_s",
    "cache_stats",
    "counter_total",
    "gauge",
    "hit_rate",
    "latency",
    "latency_rows",
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
    ) -> dict:
        """One logical request (with transparent 429 retries).

        ``request_id`` travels as the ``X-Repro-Request-Id`` header
        (never in the body — the request schema is strict)."""
        attempt = 0
        while True:
            try:
                return self._round_trip(method, path, payload, request_id=request_id)
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
    ) -> dict:
        conn = self._connection()
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            headers["X-Repro-Request-Id"] = request_id
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
        return self._decode(response.status, rheaders, raw)

    def _decode(self, status: int, headers: dict[str, str], raw: bytes) -> dict:
        """Response → decoded JSON; a non-200 raises :class:`ServeError`.
        ``headers`` keys are lower-case."""
        self.last_cache_status = headers.get("x-repro-cache")
        self.last_request_id = headers.get("x-repro-request-id")
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
# returns.


def _series(dump: dict | None, name: str):
    for entry in (dump or {}).get("metrics", []):
        if entry.get("name") == name:
            yield entry.get("labels") or {}, entry


def counter_total(dump: dict | None, name: str):
    """The ``name`` counter summed over its series."""
    return sum(
        entry.get("value", 0)
        for _, entry in _series(dump, name)
        if entry.get("type") == "counter"
    )


def gauge(dump: dict | None, name: str, default=None):
    return next(
        (e.get("value") for _, e in _series(dump, name) if e.get("type") == "gauge"),
        default,
    )


def latency(dump: dict | None) -> dict | None:
    """The server's ``/v1/partition`` latency summary (count, mean, p50,
    p95, p99, max) from ``serve.latency_ms``, ``None`` without samples."""
    for labels, entry in _series(dump, "serve.latency_ms"):
        if labels.get("endpoint") == "/v1/partition" and entry.get("count"):
            return {k: entry.get(k) for k in ("count", "mean", "p50", "p95", "p99", "max")}
    return None


def latency_rows(dump: dict | None) -> list[tuple[str, dict]]:
    """``(endpoint, histogram)`` of every endpoint with samples, sorted."""
    rows = [
        (labels.get("endpoint", "?"), entry)
        for labels, entry in _series(dump, "serve.latency_ms")
        if entry.get("count")
    ]
    return sorted(rows, key=lambda row: row[0])


def cache_stats(dump: dict | None, name: str) -> dict | None:
    """One cache's counters (``lattice_cache``, ...), summed over the
    server's compute workers."""
    return (dump or {}).get("caches", {}).get(name)


def hit_rate(hits, misses) -> float | None:
    return hits / (hits + misses) if hits + misses else None
