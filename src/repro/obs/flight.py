"""Per-request flight recorder for the partition service.

A :class:`FlightRecorder` keeps a bounded in-memory record of recent
requests — one :class:`FlightRecord` per request (id, endpoint, status,
queue/compute/total latency breakdown, cache disposition, worker pid) in
a fixed-capacity ring — plus a bounded store of *full stitched traces*
for a subset of requests worth keeping whole: the slowest K and the most
recent K errors are pinned so the interesting exemplars survive even
when traffic is heavy.  ``GET /debug/requests``, ``/debug/requests/<id>``
and ``/debug/inflight`` in :mod:`repro.serve.server` are thin views over
this object.

:func:`stitch_trace` joins the server-side timing of one request with
the span trees shipped back from a pool worker into a single
Dapper-style tree rooted at a synthetic ``request`` span, and
:func:`format_span_tree` pretty-prints any such tree (``repro trace
show``).
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

__all__ = [
    "FlightRecord",
    "FlightRecorder",
    "stitch_trace",
    "format_span_tree",
]


@dataclass
class FlightRecord:
    """What the recorder remembers about one request."""

    request_id: str
    endpoint: str
    ts: float  # wall-clock start (unix seconds)
    status: int | None = None
    cache: str | None = None  # miss | hit | coalesced
    queue_ms: float | None = None
    compute_ms: float | None = None
    total_ms: float | None = None
    worker_pid: int | None = None
    error_code: str | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "request_id": self.request_id,
            "endpoint": self.endpoint,
            "ts": round(self.ts, 3),
        }
        for key in ("status", "cache", "worker_pid", "error_code"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        for key in ("queue_ms", "compute_ms", "total_ms"):
            value = getattr(self, key)
            if value is not None:
                out[key] = round(value, 3)
        return out


class FlightRecorder:
    """Bounded ring of per-request records with pinned trace exemplars.

    ``capacity`` bounds the record ring; ``trace_capacity`` bounds the
    stitched-trace store (must exceed ``slowest + errors`` so pinning
    never starves eviction); the slowest ``slowest`` requests and the
    ``errors`` most recent errored requests keep their traces pinned.
    """

    def __init__(
        self,
        capacity: int = 512,
        *,
        trace_capacity: int = 64,
        slowest: int = 8,
        errors: int = 8,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if trace_capacity < slowest + errors + 1:
            raise ValueError(
                f"trace_capacity={trace_capacity} must exceed "
                f"slowest+errors={slowest + errors}"
            )
        self._lock = threading.Lock()
        self._records: deque[FlightRecord] = deque(maxlen=capacity)
        self._inflight: dict[str, FlightRecord] = {}
        self._traces: OrderedDict[str, dict] = OrderedDict()
        self._trace_capacity = trace_capacity
        # Min-heap of (total_ms, request_id): the root is the *fastest*
        # of the pinned-slowest set, evicted first when a slower one lands.
        self._slowest_k = slowest
        self._slowest: list[tuple[float, str]] = []
        self._errors: deque[str] = deque(maxlen=errors)

    # -- lifecycle -------------------------------------------------------
    def begin(self, request_id: str, endpoint: str) -> FlightRecord:
        record = FlightRecord(request_id=request_id, endpoint=endpoint, ts=time.time())
        with self._lock:
            self._inflight[request_id] = record
        return record

    def finish(
        self,
        record: FlightRecord,
        *,
        status: int,
        cache: str | None = None,
        queue_ms: float | None = None,
        compute_ms: float | None = None,
        total_ms: float | None = None,
        worker_pid: int | None = None,
        error_code: str | None = None,
        trace: dict | None = None,
    ) -> None:
        record.status = status
        record.cache = cache
        record.queue_ms = queue_ms
        record.compute_ms = compute_ms
        record.total_ms = total_ms
        record.worker_pid = worker_pid
        record.error_code = error_code
        with self._lock:
            self._inflight.pop(record.request_id, None)
            self._records.append(record)
            if trace is not None:
                self._store_trace(record, trace)

    def _store_trace(self, record: FlightRecord, trace: dict) -> None:
        rid = record.request_id
        self._traces[rid] = trace
        self._traces.move_to_end(rid)
        if record.error_code is not None:
            self._errors.append(rid)
        total = record.total_ms or 0.0
        if len(self._slowest) < self._slowest_k:
            heapq.heappush(self._slowest, (total, rid))
        elif self._slowest and total > self._slowest[0][0]:
            heapq.heappushpop(self._slowest, (total, rid))
        pinned = {rid for _, rid in self._slowest} | set(self._errors)
        while len(self._traces) > self._trace_capacity:
            for victim in self._traces:  # oldest-first
                if victim not in pinned:
                    del self._traces[victim]
                    break
            else:  # everything pinned (capacity check makes this unreachable)
                self._traces.popitem(last=False)

    # -- views -----------------------------------------------------------
    def recent(self, n: int = 50) -> list[dict]:
        """The most recent completed requests, newest first."""
        with self._lock:
            records = list(self._records)[-n:]
        return [r.to_dict() for r in reversed(records)]

    def get(self, request_id: str) -> dict | None:
        """Record + stitched trace for one request id, if still retained."""
        with self._lock:
            record = next(
                (r for r in reversed(self._records) if r.request_id == request_id),
                None,
            )
            trace = self._traces.get(request_id)
        if record is None and trace is None:
            return None
        out: dict = {"record": record.to_dict() if record else None}
        if trace is not None:
            out["trace"] = trace
        return out

    def inflight(self) -> list[dict]:
        """Requests currently being served, oldest first."""
        now = time.time()
        with self._lock:
            records = sorted(self._inflight.values(), key=lambda r: r.ts)
        return [
            dict(r.to_dict(), age_ms=round((now - r.ts) * 1000, 3)) for r in records
        ]

    def slowest(self) -> list[dict]:
        """The pinned slowest requests, slowest first."""
        with self._lock:
            pinned = sorted(self._slowest, reverse=True)
            by_id = {r.request_id: r for r in self._records}
        return [by_id[rid].to_dict() for _, rid in pinned if rid in by_id]

    def burn_rates(
        self,
        *,
        slo_p99_ms: float,
        slo_error_rate: float,
        window_s: float = 300.0,
    ) -> dict:
        """SLO burn rates over the trailing window.

        ``error_burn`` is observed 5xx rate over the error budget;
        ``latency_burn`` is the fraction of requests slower than the p99
        target over the 1% that the SLO allows.  1.0 = burning budget
        exactly as fast as allowed; >1 = on track to blow the SLO.
        """
        cutoff = time.time() - window_s
        with self._lock:
            window = [r for r in self._records if r.ts >= cutoff]
        n = len(window)
        errors = sum(1 for r in window if (r.status or 0) >= 500)
        slow = sum(1 for r in window if (r.total_ms or 0.0) > slo_p99_ms)
        error_rate = errors / n if n else 0.0
        slow_fraction = slow / n if n else 0.0
        return {
            "window_s": window_s,
            "window_requests": n,
            "error_rate": round(error_rate, 6),
            "error_burn": round(error_rate / slo_error_rate, 4) if slo_error_rate else 0.0,
            "slow_fraction": round(slow_fraction, 6),
            "latency_burn": round(slow_fraction / 0.01, 4),
        }


def stitch_trace(
    request_id: str,
    endpoint: str,
    *,
    total_ms: float,
    status: int,
    cache: str | None = None,
    queue_ms: float | None = None,
    compute_ms: float | None = None,
    worker_pid: int | None = None,
    worker_spans: list[dict] | None = None,
) -> dict:
    """Join server-side timing and worker span trees into one tree.

    The result is a plain span dict (the same shape
    :meth:`repro.obs.tracing.Span.to_dict` produces) rooted at a
    synthetic ``request`` span, with ``serve.queue`` and
    ``serve.compute`` children; the worker's own root spans (recorded in
    a different process) hang under ``serve.compute``.
    """
    attrs: dict = {"request_id": request_id, "endpoint": endpoint, "status": status}
    if cache is not None:
        attrs["cache"] = cache
    root: dict = {
        "name": "request",
        "duration_s": round(total_ms / 1000.0, 9),
        "attrs": attrs,
    }
    children: list[dict] = []
    if queue_ms is not None:
        children.append(
            {"name": "serve.queue", "duration_s": round(queue_ms / 1000.0, 9)}
        )
    if compute_ms is not None or worker_spans:
        compute: dict = {
            "name": "serve.compute",
            "duration_s": round((compute_ms or 0.0) / 1000.0, 9),
        }
        if worker_pid is not None:
            compute["attrs"] = {"worker_pid": worker_pid}
        if worker_spans:
            compute["children"] = list(worker_spans)
        children.append(compute)
    if children:
        root["children"] = children
    return root


def _format_one(node: dict, prefix: str, is_last: bool, lines: list[str]) -> None:
    connector = "" if prefix == "" and is_last and not lines else (
        "└─ " if is_last else "├─ "
    )
    duration_ms = node.get("duration_s", 0.0) * 1000.0
    attrs = dict(node.get("attrs", {}))
    calls = attrs.pop("calls", None)
    parts = [f"{node.get('name', '?')}", f"{duration_ms:.3f} ms"]
    if calls is not None:
        parts.append(f"×{calls}")
    if attrs:
        parts.append(" ".join(f"{k}={v}" for k, v in sorted(attrs.items())))
    lines.append(f"{prefix}{connector}{'  '.join(parts)}")
    children = node.get("children", [])
    child_prefix = prefix + ("" if connector == "" else ("   " if is_last else "│  "))
    for i, child in enumerate(children):
        _format_one(child, child_prefix, i == len(children) - 1, lines)


def format_span_tree(tree) -> str:
    """Render a span dict (or list of them) as an indented text tree."""
    roots = tree if isinstance(tree, list) else [tree]
    lines: list[str] = []
    for i, root in enumerate(roots):
        _format_one(root, "", i == len(roots) - 1, lines)
    return "\n".join(lines)
