"""The HTTP/1.1 subset ``repro serve`` speaks: framing only.

The stdlib has no asyncio HTTP server, and the service needs only a
deliberately minimal subset of HTTP/1.1 over ``asyncio`` streams:
keep-alive connections and ``Content-Length`` framing (a chunked request
body is refused with 400).

* :func:`read_request` parses a request; :func:`encode_response` frames
  a JSON answer.
* Caps (from :mod:`~repro.serve.protocol`): a request line longer than
  ``MAX_LINE_BYTES`` (64 KiB, the listener's stream limit) is answered
  414, a longer header line or more than ``MAX_HEADER_LINES`` (100)
  header lines 431, a body over ``MAX_BODY_BYTES`` (1 MiB) 413.  Every
  such refusal carries the ``invalid-request`` error payload and
  ``Connection: close``.

The listener, the connection loop and the endpoints are
:class:`~repro.serve.server.PartitionServer`'s.
"""

from __future__ import annotations

import asyncio
import json
from typing import NamedTuple

from .. import __version__
from .protocol import MAX_BODY_BYTES, MAX_HEADER_LINES

__all__ = [
    "FramingError",
    "Request",
    "encode_response",
    "read_request",
]

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
    """A JSON response: ``payload`` is any JSON-serialisable object."""
    body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
    lines = [
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Server: repro-serve/{__version__}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
