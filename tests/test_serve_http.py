"""The shared HTTP core (:mod:`repro.serve.http`) under bad input.

Both services read requests through the same reader, so a replica and a
router in front of it must refuse the same malformed bytes with the same
status and typed error code — and never let a framing problem escape as
an unhandled exception in the connection callback.  On the other side of
the wire, the router must treat a replica response that is not HTTP as a
failed forward and fail over to the next replica in rendezvous order.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import socketserver
import threading
import time

import pytest

from repro.obs import get_registry
from repro.serve import (
    EmbeddedRouter,
    EmbeddedServer,
    RouterConfig,
    ServeClient,
    ServeConfig,
)
from repro.serve.http import FramingError, read_response
from repro.serve.protocol import MAX_BODY_BYTES, MAX_HEADER_LINES, MAX_LINE_BYTES

SIZED_SOURCE = "Doall (i, 1, N)\n  A[i] = B[i]\nEndDoall\n"


def _wait_ready(port: int, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with ServeClient("127.0.0.1", port, timeout=5.0) as c:
            if c.healthz().get("ready"):
                return
        time.sleep(0.05)
    pytest.fail(f"port {port} never became ready")


def _send_raw(port: int, data: bytes) -> tuple[int, dict, dict]:
    """Send raw bytes, read until the server closes → (status, headers, JSON)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(data)
        raw = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split(" ")[1]), headers, json.loads(body)


def _get(path: str, extra: bytes = b"") -> bytes:
    return b"GET " + path.encode() + b" HTTP/1.1\r\nHost: x\r\nConnection: close\r\n" + extra + b"\r\n"


def _post(path: str, body: bytes) -> bytes:
    return (
        b"POST " + path.encode() + b" HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        + b"Content-Length: %d\r\n\r\n" % len(body) + body
    )


#: (id, raw request, expected status, expected error code).
BAD_HTTP = [
    ("malformed-request-line", b"GARBAGE\r\n\r\n", 400, "invalid-request"),
    (
        "non-numeric-content-length",
        b"POST /v1/partition HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n",
        400, "invalid-request",
    ),
    (
        "negative-content-length",
        b"POST /v1/partition HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
        400, "invalid-request",
    ),
    (
        "chunked",
        b"POST /v1/partition HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
        400, "invalid-request",
    ),
    (
        "body-too-large",
        b"POST /v1/partition HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
        % (MAX_BODY_BYTES + 1),
        413, "invalid-request",
    ),
    (
        "request-line-too-long",
        b"GET /" + b"a" * (MAX_LINE_BYTES + 4096) + b" HTTP/1.1\r\n\r\n",
        414, "invalid-request",
    ),
    (
        "header-line-too-long",
        b"GET /healthz HTTP/1.1\r\nX-A: " + b"a" * 70_000 + b"\r\n\r\n",
        431, "invalid-request",
    ),
    (
        "too-many-header-lines",
        _get("/healthz", b"X-N: 1\r\n" * (MAX_HEADER_LINES + 1)),
        431, "invalid-request",
    ),
    ("non-json-body", _post("/v1/partition", b"{not json"), 400, "invalid-request"),
    ("unknown-path", _get("/nope"), 404, "not-found"),
    ("wrong-method", _post("/healthz", b""), 405, "method-not-allowed"),
]


@pytest.fixture(scope="module")
def replica_and_router():
    replica = EmbeddedServer(ServeConfig(port=0, workers=1)).start()
    router = None
    try:
        _wait_ready(replica.port)
        router = EmbeddedRouter(
            RouterConfig(port=0, replicas=(f"127.0.0.1:{replica.port}",))
        ).start()
        yield replica, router
    finally:
        if router is not None:
            router.stop()
        replica.stop()


@pytest.mark.parametrize(
    "raw, status, code", [row[1:] for row in BAD_HTTP], ids=[row[0] for row in BAD_HTTP]
)
def test_bad_http_answered_alike(replica_and_router, caplog, raw, status, code):
    replica, router = replica_and_router
    caplog.set_level(logging.ERROR)
    answers = [_send_raw(port, raw) for port in (replica.port, router.port)]
    for got_status, headers, payload in answers:
        assert (got_status, payload["error"]["code"]) == (status, code)
        if status in (400, 413, 414, 431):
            assert headers["connection"] == "close"
    assert answers[0][2] == answers[1][2]  # same typed payload, word for word
    unhandled = [r for r in caplog.records if "Unhandled exception" in r.getMessage()]
    assert not unhandled, unhandled


def test_header_line_cap_is_inclusive(replica_and_router):
    """Exactly MAX_HEADER_LINES header lines is still a valid request."""
    replica, _router = replica_and_router
    extra = b"".join(b"X-N%d: 1\r\n" % i for i in range(MAX_HEADER_LINES - 2))
    status, _headers, payload = _send_raw(replica.port, _get("/healthz", extra))
    assert status == 200 and payload["status"] == "ok"


def _parse_response(data: bytes, limit: int = 1024):
    async def go():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        return await read_response(reader)

    return asyncio.run(go())


class TestResponseReader:
    def test_well_formed(self):
        status, headers, body = _parse_response(
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n"
            b"Content-Length: 2\r\n\r\n{}"
        )
        assert (status, headers["retry-after"], body) == (429, "1", b"{}")

    def test_closed_before_status_line(self):
        assert _parse_response(b"") is None

    @pytest.mark.parametrize(
        "data",
        [
            b"garbage\r\n\r\n",
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 4096 + b"\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n",  # headers cut off
        ],
    )
    def test_malformed_raises_framing_error(self, data):
        with pytest.raises(FramingError):
            _parse_response(data)


class _GarbageHandler(socketserver.StreamRequestHandler):
    """A replica that probes healthy but answers compute with non-HTTP."""

    def handle(self):
        while True:
            start = self.rfile.readline()
            if not start:
                return
            length = 0
            while True:
                line = self.rfile.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            self.rfile.read(length)
            if start.startswith(b"GET /healthz"):
                body = json.dumps({"status": "ok", "ready": True}).encode()
                self.wfile.write(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body
                )
            else:
                self.wfile.write(b"garbage\r\n\r\n")
                return


def test_router_fails_over_on_malformed_replica_response():
    fake = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _GarbageHandler)
    fake.daemon_threads = True
    threading.Thread(target=fake.serve_forever, daemon=True).start()
    fake_address = f"127.0.0.1:{fake.server_address[1]}"
    real = EmbeddedServer(ServeConfig(port=0, workers=1)).start()
    router = None
    registry = get_registry()
    failovers_before = registry.total("route.failovers")
    errors_before = registry.by_label("route.forward_errors", "replica").get(fake_address, 0)
    try:
        _wait_ready(real.port)
        real_address = f"127.0.0.1:{real.port}"
        router = EmbeddedRouter(
            RouterConfig(port=0, replicas=(fake_address, real_address))
        ).start()
        _wait_ready(router.port)
        with ServeClient("127.0.0.1", router.port) as c:
            for p in range(2, 18):  # 16 distinct keys, about half owned by the fake
                report = c.partition(SIZED_SOURCE, p, bindings={"N": 64}, label="failover")
                assert report["schema"] == "repro.run-report"
        assert registry.total("route.failovers") > failovers_before
        errors = registry.by_label("route.forward_errors", "replica").get(fake_address, 0)
        assert errors > errors_before
    finally:
        if router is not None:
            router.stop()
        real.stop()
        fake.shutdown()
        fake.server_close()
