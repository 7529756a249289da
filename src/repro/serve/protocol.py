"""Wire protocol of the partition service.

The service speaks JSON over HTTP/1.1.  This module owns everything
about the *shape* of that conversation — request schemas, validation
with typed error payloads, and the canonical request key that request
coalescing and the response cache share — and deliberately knows nothing
about sockets or event loops, so the client, the server, and the tests
all validate against the same code.

Error payloads have a single stable shape::

    {"error": {"code": "<kebab-case>", "message": "...", "field": "..."}}

``code`` is machine-matchable (``invalid-request``, ``pipeline-error``,
``overloaded``, ``deadline-exceeded``, ``worker-died``,
``internal-error``, ``not-found``, ``method-not-allowed``,
``shutting-down``); ``field`` names the offending request field when one
exists.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_LINE_BYTES",
    "MAX_HEADER_LINES",
    "MAX_DEADLINE_MS",
    "METHODS",
    "ENGINES",
    "PROGRAMS",
    "STRATEGIES",
    "ProtocolError",
    "PartitionRequest",
    "decode_partition_request",
    "validate_partition_request",
    "validate_request_id",
    "error_payload",
]

#: Largest accepted request body.  Doall sources are a few hundred bytes;
#: a megabyte leaves two orders of magnitude of headroom while bounding
#: what a client can make the server buffer.
MAX_BODY_BYTES = 1 << 20

#: Longest request or header line (the listener's stream limit).  A
#: longer request line is refused with 414, a longer header line with 431.
MAX_LINE_BYTES = 1 << 16

#: Most header lines one request may carry; one more is refused with 431.
MAX_HEADER_LINES = 100

#: Longest deadline, per request or the server's default: one day.
MAX_DEADLINE_MS = 24 * 3600 * 1000

METHODS = ("rectangular", "parallelepiped", "auto")
ENGINES = ("auto", "fast", "exact")
PROGRAMS = ("doall", "flow")
STRATEGIES = ("co", "independent")

_ALLOWED_FIELDS = {
    "source",
    "processors",
    "bindings",
    "method",
    "simulate",
    "sweeps",
    "engine",
    "program",
    "strategy",
    "label",
    "deadline_ms",
}

#: Hard ceilings on request size knobs: the service refuses work that a
#: single request could use to monopolise the machine, rather than
#: letting the admission queue back up behind it.
MAX_PROCESSORS = 4096
MAX_SWEEPS = 64
MAX_SOURCE_BYTES = 64 * 1024


class ProtocolError(Exception):
    """A request the service refuses, with its HTTP status and error code."""

    def __init__(
        self,
        message: str,
        *,
        code: str = "invalid-request",
        status: int = 422,
        field: str | None = None,
    ):
        super().__init__(message)
        self.code = code
        self.status = status
        self.field = field

    def to_payload(self) -> dict:
        return error_payload(self.code, str(self), field=self.field)


def error_payload(code: str, message: str, *, field: str | None = None) -> dict:
    err: dict = {"code": code, "message": message}
    if field is not None:
        err["field"] = field
    return {"error": err}


@dataclass(frozen=True)
class PartitionRequest:
    """A validated, normalised ``/v1/partition`` (or ``/v1/simulate``) request.

    ``bindings`` is a sorted tuple of pairs so the whole request is
    hashable; :attr:`canonical_key` identifies requests that must produce
    byte-identical responses — it is the coalescing and response-cache
    key, and deliberately excludes ``deadline_ms`` (a delivery concern,
    not a compute input).
    """

    source: str
    processors: int
    bindings: tuple[tuple[str, int], ...] = ()
    method: str = "rectangular"
    simulate: bool = False
    sweeps: int = 1
    engine: str = "auto"
    program: str = "doall"
    strategy: str = "co"
    label: str | None = None
    deadline_ms: int | None = None

    @property
    def canonical_key(self) -> tuple:
        return (
            self.source,
            self.processors,
            self.bindings,
            self.method,
            self.simulate,
            self.sweeps,
            self.engine,
            self.program,
            self.strategy,
            self.label,
        )

    def to_dict(self) -> dict:
        out: dict = {
            "source": self.source,
            "processors": self.processors,
            "bindings": dict(self.bindings),
            "method": self.method,
            "simulate": self.simulate,
            "sweeps": self.sweeps,
            "engine": self.engine,
            "program": self.program,
            "strategy": self.strategy,
        }
        if self.label is not None:
            out["label"] = self.label
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        return out


#: Caller-supplied request ids (``X-Repro-Request-Id``): tight charset so
#: ids are safe to echo in headers, URLs (``/debug/requests/<id>``) and
#: logs without quoting, bounded so a hostile client cannot bloat the
#: flight recorder.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def validate_request_id(value: str | None) -> str | None:
    """Validate an inbound request id header (``None`` passes through).

    Raises :class:`ProtocolError` (status 400) on a malformed id rather
    than silently minting a replacement — a caller that sets the header
    wants correlation, and a silently changed id would break it.
    """
    if value is None:
        return None
    if not _REQUEST_ID_RE.match(value):
        raise ProtocolError(
            "X-Repro-Request-Id must be 1-128 characters of [A-Za-z0-9._-]",
            code="invalid-request",
            status=400,
        )
    return value


def _require(condition: bool, message: str, *, field: str | None = None) -> None:
    if not condition:
        raise ProtocolError(message, field=field)


def _int_field(payload: dict, name: str, *, lo: int, hi: int, default=None):
    value = payload.get(name, default)
    if value is default and name not in payload:
        return default
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name!r} must be an integer",
        field=name,
    )
    _require(lo <= value <= hi, f"{name!r} must be in [{lo}, {hi}], got {value}", field=name)
    return value


def decode_partition_request(
    body: bytes, *, force_simulate: bool = False
) -> PartitionRequest:
    """Decode a raw request body and validate it: 400 if it is not JSON,
    422 (from :func:`validate_partition_request`) if the JSON is wrong."""
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ProtocolError(
            f"request body is not valid JSON: {e}",
            code="invalid-request",
            status=400,
        ) from None
    return validate_partition_request(decoded, force_simulate=force_simulate)


def validate_partition_request(
    payload, *, force_simulate: bool = False
) -> PartitionRequest:
    """Validate a decoded JSON body into a :class:`PartitionRequest`.

    Raises :class:`ProtocolError` (status 422) naming the offending
    field; unknown fields are rejected so typos fail loudly instead of
    being silently ignored.  ``force_simulate`` is the ``/v1/simulate``
    route: ``simulate`` defaults to true and may not be disabled.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = sorted(set(payload) - _ALLOWED_FIELDS)
    _require(
        not unknown,
        f"unknown request field(s): {', '.join(unknown)} "
        f"(allowed: {', '.join(sorted(_ALLOWED_FIELDS))})",
        field=unknown[0] if unknown else None,
    )

    source = payload.get("source")
    _require(isinstance(source, str), "'source' (Doall program text) is required", field="source")
    _require(source.strip() != "", "'source' must not be empty", field="source")
    _require(
        len(source.encode("utf-8", "replace")) <= MAX_SOURCE_BYTES,
        f"'source' exceeds {MAX_SOURCE_BYTES} bytes",
        field="source",
    )

    processors = _int_field(payload, "processors", lo=1, hi=MAX_PROCESSORS)
    _require(processors is not None, "'processors' is required", field="processors")

    bindings_raw = payload.get("bindings", {})
    _require(
        isinstance(bindings_raw, dict),
        "'bindings' must be an object of NAME -> integer",
        field="bindings",
    )
    bindings = []
    for name, value in bindings_raw.items():
        _require(
            isinstance(name, str) and name.strip() != "",
            "'bindings' keys must be non-empty strings",
            field="bindings",
        )
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            f"binding {name!r} must be an integer, got {value!r}",
            field="bindings",
        )
        bindings.append((name, value))
    bindings.sort()

    method = payload.get("method", "rectangular")
    _require(
        method in METHODS,
        f"'method' must be one of {', '.join(METHODS)}; got {method!r}",
        field="method",
    )

    simulate = payload.get("simulate", True if force_simulate else False)
    _require(isinstance(simulate, bool), "'simulate' must be a boolean", field="simulate")
    if force_simulate:
        _require(simulate, "'simulate' cannot be false on /v1/simulate", field="simulate")

    sweeps = _int_field(payload, "sweeps", lo=1, hi=MAX_SWEEPS, default=1)

    engine = payload.get("engine", "auto")
    _require(
        engine in ENGINES,
        f"'engine' must be one of {', '.join(ENGINES)}; got {engine!r}",
        field="engine",
    )

    program = payload.get("program", "doall")
    _require(
        program in PROGRAMS,
        f"'program' must be one of {', '.join(PROGRAMS)}; got {program!r}",
        field="program",
    )

    strategy = payload.get("strategy", "co")
    _require(
        strategy in STRATEGIES,
        f"'strategy' must be one of {', '.join(STRATEGIES)}; got {strategy!r}",
        field="strategy",
    )
    _require(
        program == "flow" or "strategy" not in payload,
        "'strategy' only applies to flow programs (set \"program\": \"flow\")",
        field="strategy",
    )

    label = payload.get("label")
    if label is not None:
        _require(isinstance(label, str), "'label' must be a string", field="label")

    deadline_ms = _int_field(payload, "deadline_ms", lo=1, hi=MAX_DEADLINE_MS, default=None)

    return PartitionRequest(
        source=source,
        processors=processors,
        bindings=tuple(bindings),
        method=method,
        simulate=simulate,
        sweeps=sweeps,
        engine=engine,
        program=program,
        strategy=strategy,
        label=label,
        deadline_ms=deadline_ms,
    )
