"""The HTTP/1.1 subset ``repro serve`` speaks.

The stdlib has no asyncio HTTP server, and the service needs only a
deliberately minimal subset of HTTP/1.1 over ``asyncio`` streams:
keep-alive connections and ``Content-Length`` framing (a chunked request
body is refused with 400).  Everything below the endpoints lives here:

* :func:`read_request` parses a request; :func:`encode_response` frames
  the answer.
* Caps (from :mod:`~repro.serve.protocol`): a request line longer than
  ``MAX_LINE_BYTES`` (64 KiB, the listener's stream limit) is answered
  414, a longer header line or more than ``MAX_HEADER_LINES`` (100)
  header lines 431, a body over ``MAX_BODY_BYTES`` (1 MiB) 413.  Every
  such refusal carries the ``invalid-request`` error payload and
  ``Connection: close``.
* :class:`HttpService` owns the listener, the connection loop, the one
  dispatcher (endpoint naming, request ids, 404/405, typed errors,
  ``serve.requests`` / ``.responses`` / ``.latency_ms`` metrics, flight
  records), the ``/debug`` and ``/metrics`` endpoints, and the
  graceful-drain lifecycle.  :func:`merge_numeric` sums the compute
  workers' ``/metrics`` ``caches`` sections.
  :class:`~repro.serve.server.PartitionServer` supplies the handlers on
  top of it; :class:`EmbeddedService` runs it on a background thread
  and :func:`run_service` runs it as a CLI until SIGTERM/SIGINT.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import threading
import time
import uuid
from dataclasses import dataclass
from typing import NamedTuple

from .. import __version__
from ..obs import FlightRecorder, get_logger, get_registry, prometheus_text_from_snapshot
from ..obs.export import PROMETHEUS_CONTENT_TYPE
from .protocol import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    ProtocolError,
    error_payload,
    validate_request_id,
)

__all__ = [
    "Body",
    "EmbeddedService",
    "FramingError",
    "HttpService",
    "Request",
    "encode_response",
    "merge_numeric",
    "read_request",
    "run_service",
    "service_parser",
]

logger = get_logger("serve.http")

POST_ROUTES = ("/v1/partition", "/v1/simulate")
GET_ROUTES = ("/healthz", "/metrics", "/debug/requests", "/debug/inflight")
DEBUG_REQUEST_PREFIX = "/debug/requests/"

#: Seconds an idle keep-alive connection is held open.
IDLE_TIMEOUT_S = 60.0

#: Seconds shutdown waits, after the drain, for connections still
#: answering a request; any left then are cancelled.
CLOSE_TIMEOUT_S = 10.0

STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    414: "URI Too Long",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class FramingError(Exception):
    """A request outside the HTTP/1.1 subset this module speaks;
    ``status`` is what the server answers it with."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class Request(NamedTuple):
    method: str
    path: str  # query string stripped
    headers: dict[str, str]  # lower-cased names
    body: bytes


@dataclass(frozen=True)
class Body:
    """A response body sent as-is rather than encoded as JSON."""

    data: bytes
    content_type: str


# ----------------------------------------------------------------------
# Framing


async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # the line outgrew the stream limit
        raise FramingError(f"{what} too long", status) from None


async def _read_head(reader: asyncio.StreamReader):
    """Start line and header block → ``(start_line, headers)``.

    ``None`` on a clean EOF before the start line (a keep-alive
    connection the peer closed).
    """
    start = await _read_line(reader, 414, "start line")
    if not start:
        return None
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        raw = await _read_line(reader, 431, "header line")
        if raw in (b"\r\n", b"\n"):
            return start.decode("latin-1").rstrip("\r\n"), headers
        if not raw:
            raise FramingError("truncated headers")
        name, colon, value = raw.decode("latin-1").partition(":")
        if not colon:
            raise FramingError(f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    raise FramingError(f"more than {MAX_HEADER_LINES} header lines", 431)


def _content_length(headers: dict[str, str]) -> int | None:
    length = headers.get("content-length")
    if length is None:
        return None
    try:
        n = int(length)
    except ValueError:
        raise FramingError("malformed Content-Length") from None
    if n < 0:
        raise FramingError("negative Content-Length")
    return n


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """One request, or ``None`` on a clean EOF; :class:`FramingError`
    carries the 4xx status for anything outside the subset."""
    head = await _read_head(reader)
    if head is None:
        return None
    start, headers = head
    try:
        method, target, _version = start.split(" ", 2)
    except ValueError:
        raise FramingError("malformed request line") from None
    n = _content_length(headers)
    if n is None and headers.get("transfer-encoding"):
        raise FramingError("chunked request bodies are not supported")
    if n is not None and n > MAX_BODY_BYTES:
        raise FramingError(f"request body exceeds {MAX_BODY_BYTES} bytes", 413)
    body = await reader.readexactly(n) if n else b""
    return Request(method, target.split("?", 1)[0], headers, body)


def encode_response(
    status: int, payload, *, keep_alive: bool, headers: dict[str, str] | None = None
) -> bytes:
    """``payload`` is a :class:`Body` or a JSON-serialisable object."""
    if isinstance(payload, Body):
        body, content_type = payload.data, payload.content_type
    else:
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Server: repro-serve/{__version__}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def merge_numeric(into: dict, src: dict) -> dict:
    """Recursively sum numeric leaves of ``src`` into ``into``."""
    for key, value in src.items():
        if isinstance(value, dict):
            into[key] = merge_numeric(
                into.get(key) if isinstance(into.get(key), dict) else {}, value
            )
        elif isinstance(value, bool):
            into.setdefault(key, value)
        elif isinstance(value, (int, float)):
            base = into.get(key, 0)
            into[key] = (base if isinstance(base, (int, float)) else 0) + value
        else:
            into.setdefault(key, value)
    return into


# ----------------------------------------------------------------------
# The service core


class HttpService:
    """Listener, connection loop, dispatcher and lifecycle of one service.

    :attr:`name` (``"serve"``) is the metric prefix and CLI tag.  A
    subclass supplies the handlers:

    * ``async _handle_compute(path, body, request_id)`` →
      ``(status, payload, headers, info)`` for the POST routes;
    * ``_flight_details(record, status, cache, info, total_ms)`` → the
      service's own fields (``trace``, worker timings) of
      the compute request's flight record;
    * ``_healthz()``, ``async _metric_entries()`` (snapshot entries for
      the Prometheus scrape) and ``async _metrics_json()``;
    * optionally ``async _setup()`` (before the listener binds),
      ``_on_listening()`` and ``async _drain()`` (after it closes).

    ``self._admitted`` counts the compute requests in flight.  A
    ``ProtocolError`` raised by a compute handler may carry a
    ``compute_meta`` attribute, which becomes ``info``.
    """

    name = "serve"

    def __init__(self, config):
        self.config = config
        self.port: int | None = None
        self.started_at: float | None = None
        self._server: asyncio.base_events.Server | None = None
        self._metrics = get_registry()
        self._flight = FlightRecorder(max(config.flight_capacity, 1))
        self._admitted = 0
        self._requests_served = 0
        self._shutdown_event: asyncio.Event | None = None
        self._draining = False
        self._tasks: list[asyncio.Task] = []
        self._connections: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()  # waiting for a request

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Run the setup hook, bind the listener, write the port file."""
        await self._setup()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        self._on_listening()
        if self.config.port_file:
            with open(self.config.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{self.port}\n")

    async def _setup(self) -> None:
        pass

    def _on_listening(self) -> None:
        pass

    async def _drain(self) -> None:
        pass

    def _spawn(self, coro) -> None:
        """A background task that shutdown cancels."""
        self._tasks.append(asyncio.create_task(coro))

    def signal_shutdown(self) -> None:
        """Begin graceful drain (call from within the event loop)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def serve_until_shutdown(self) -> None:
        assert self._shutdown_event is not None, "start() first"
        await self._shutdown_event.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop background tasks and the listener, then drain.

        Idle keep-alive connections are closed as the listener closes;
        a connection answering a request finishes it (with
        ``Connection: close``) and is awaited after the drain, so no
        connection handler is left for the event loop to cancel.
        """
        if self._server is None:
            return
        self._draining = True
        for task in self._tasks:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self._server.close()
        for writer in self._idle:
            writer.close()  # its pending read sees EOF; the handler returns
        await self._server.wait_closed()
        self._server = None
        await self._drain()
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
        self._metrics.counter(f"{self.name}.requests", endpoint=endpoint).inc()
        t0 = time.perf_counter()
        extra: dict[str, str] = {}
        record = info = error_code = None
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
                status, payload, extra_c, info = await self._handle_compute(
                    path, request.body, request_id
                )
                extra.update(extra_c)
            else:
                status, payload = 200, await self._handle_get(path, headers)
        except ProtocolError as e:
            status, payload, error_code = e.status, e.to_payload(), e.code
            info = getattr(e, "compute_meta", None)
            if e.status == 429:
                extra.setdefault("Retry-After", "1")
        except Exception as e:  # pragma: no cover - dispatch safety net
            logger.exception("unhandled %s error serving %s %s", self.name, method, path)
            status, error_code = 500, "internal-error"
            payload = error_payload("internal-error", f"{type(e).__name__}: {e}")
        total_ms = (time.perf_counter() - t0) * 1000.0
        if record is not None:
            cache = extra.get("X-Repro-Cache")
            self._flight.finish(
                record, status=status, cache=cache,
                total_ms=round(total_ms, 3), error_code=error_code,
                **self._flight_details(record, status, cache, info or {}, total_ms),
            )
        self._metrics.counter(
            f"{self.name}.responses", endpoint=endpoint, status=str(status)
        ).inc()
        self._metrics.latency_histogram(
            f"{self.name}.latency_ms", endpoint=endpoint
        ).observe(total_ms)
        return status, payload, extra

    # -- shared GET endpoints --------------------------------------------
    def _uptime_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return round(time.monotonic() - self.started_at, 3)

    async def _handle_get(self, path: str, headers: dict[str, str]):
        if path == "/healthz":
            return self._healthz()
        if path == "/metrics":
            accept = headers.get("accept", "")
            if "text/plain" in accept or "openmetrics" in accept:
                text = prometheus_text_from_snapshot(await self._metric_entries())
                return Body(text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
            return await self._metrics_json()
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
        return await self._debug_request(path[len(DEBUG_REQUEST_PREFIX):])

    async def _debug_request(self, request_id: str) -> dict:
        found = self._flight.get(request_id)
        if found is None:
            raise ProtocolError(
                f"no retained request {request_id!r} (records and traces "
                "are bounded rings; it may have been evicted)",
                code="not-found",
                status=404,
            )
        return dict({"schema": "repro.serve-debug-request", "version": 1}, **found)


# ----------------------------------------------------------------------
# Embedding and CLI


class EmbeddedService:
    """An :class:`HttpService` on a background thread.

    Subclasses name the service in :attr:`service_class`.  For tests and
    in-process embedding: ``start()`` returns once the port is bound;
    ``stop()`` runs the full graceful drain.  Usable as a context manager.
    """

    service_class: type = HttpService

    def __init__(self, config=None):
        self.server = self.service_class(config)
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    def start(self):
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{self.server.name}", daemon=True
        )
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


def service_parser(prog: str, description: str, *, port: int) -> argparse.ArgumentParser:
    """A CLI parser holding the listener, SLO, flight-recorder and
    logging flags."""
    p = argparse.ArgumentParser(prog=prog, description=description)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=port,
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
    return p


def run_service(service: HttpService, *, out, banner: str) -> int:
    """Serve until SIGTERM/SIGINT, then drain; the CLI entry of the
    service.  Returns the process exit code."""
    config = service.config

    async def run() -> None:
        await service.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, service.signal_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(
            f"{service.name}: listening on http://{config.host}:{service.port} {banner}",
            file=out,
            flush=True,
        )
        await service.serve_until_shutdown()
        print(f"{service.name}: drained, bye", file=out, flush=True)

    try:
        asyncio.run(run())
    except OSError as e:
        print(f"error: cannot listen on {config.host}:{config.port}: {e}", file=out)
        return 1
    return 0
