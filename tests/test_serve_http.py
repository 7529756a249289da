"""The service under bad input (framing in :mod:`repro.serve.http`).

The server must refuse malformed bytes with the right status and typed
error code — and never let a framing problem escape as an unhandled
exception in the connection callback.
"""

from __future__ import annotations

import json
import logging
import socket
import time

import pytest

from repro.serve import EmbeddedServer, ServeClient, ServeConfig
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
def server():
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        _wait_ready(emb.port)
        yield emb


@pytest.mark.parametrize(
    "raw, status, code", [row[1:] for row in BAD_HTTP], ids=[row[0] for row in BAD_HTTP]
)
def test_bad_http_answered_alike(server, caplog, raw, status, code):
    caplog.set_level(logging.ERROR)
    got_status, headers, payload = _send_raw(server.port, raw)
    assert (got_status, payload["error"]["code"]) == (status, code)
    if status in (400, 413, 414, 431):
        assert headers["connection"] == "close"
    unhandled = [r for r in caplog.records if "Unhandled exception" in r.getMessage()]
    assert not unhandled, unhandled


def test_metrics_is_json_whatever_accept_says(server):
    """``/metrics`` has one encoding: a client asking for text gets the
    JSON dump."""
    status, headers, payload = _send_raw(
        server.port, _get("/metrics", b"Accept: text/plain\r\n")
    )
    assert status == 200
    assert headers["content-type"] == "application/json"
    assert payload["schema"] == "repro.serve-metrics"


def test_header_line_cap_is_inclusive(server):
    """Exactly MAX_HEADER_LINES header lines is still a valid request."""
    extra = b"".join(b"X-N%d: 1\r\n" % i for i in range(MAX_HEADER_LINES - 2))
    status, _headers, payload = _send_raw(server.port, _get("/healthz", extra))
    assert status == 200 and payload["status"] == "ok"


def test_stop_with_idle_keepalive_connection_is_quiet(caplog, capfd):
    """Stopping a server that still holds an idle keep-alive connection
    ends that connection without a traceback: the connection handlers
    finish before the event loop closes, so none is cancelled from under
    the stream protocol's done-callback."""
    caplog.set_level(logging.DEBUG)
    server = EmbeddedServer(ServeConfig(port=0, workers=1)).start()
    client = ServeClient("127.0.0.1", server.port)
    try:
        _wait_ready(server.port)
        assert client.healthz()["status"] == "ok"
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 30
    finally:
        client.close()
        server.stop()
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR or r.exc_info]
    assert not errors, [r.getMessage() for r in errors]
    captured = capfd.readouterr()
    assert "Traceback" not in captured.err + captured.out
    assert "CancelledError" not in captured.err + captured.out
