"""``repro top`` and ``repro trace`` — terminal views of a running server.

``python -m repro top`` polls a ``repro serve`` instance's ``/metrics``
and ``/debug`` endpoints and redraws a compact dashboard: throughput,
latency quantiles (from the server's own bounded-bucket histogram),
admission-queue depth, cache hit rates, SLO burn rates, worker health,
requests in flight, and the current slowest requests.  ``--once`` prints
a single frame and exits (used by the CI smoke job); otherwise it
redraws every ``--interval`` seconds until interrupted.

``python -m repro trace show <file|id>`` pretty-prints a stitched span
tree — from a JSON file (a run report with ``spans``, a
``/debug/requests/<id>`` payload, or a bare span tree), or fetched live
from a server by request id.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .obs.flight import format_span_tree
from .serve.client import (
    ServeClient,
    ServeError,
    cache_stats,
    counter_total,
    gauge,
    hit_rate,
    latency_rows,
)

__all__ = ["top_main", "trace_main", "render_dashboard"]

_CLEAR = "\x1b[2J\x1b[H"


def _fmt_ms(value) -> str:
    return f"{value:8.1f}" if isinstance(value, (int, float)) else f"{'-':>8}"


def render_dashboard(
    dump: dict,
    debug: dict,
    inflight: dict,
    *,
    prev_requests: int | None = None,
    elapsed_s: float | None = None,
) -> str:
    """One dashboard frame from the raw endpoint payloads (pure)."""
    server = dump.get("server", {})
    lines: list[str] = []
    requests_total = counter_total(dump, "serve.requests")
    throughput = ""
    if prev_requests is not None and elapsed_s and elapsed_s > 0:
        throughput = f"  {max(requests_total - prev_requests, 0) / elapsed_s:8.1f} req/s"
    lines.append(
        f"repro top — {server.get('status', '?')}  "
        f"uptime {server.get('uptime_s', 0):.0f}s  "
        f"workers {server.get('workers', '?')}  "
        f"requests {requests_total}{throughput}"
    )
    lines.append(
        f"queue: {server.get('inflight', 0)}/{server.get('queue_depth', '?')} admitted"
        f"  rejected(429) {counter_total(dump, 'serve.rejected')}"
        f"  deadline(504) {counter_total(dump, 'serve.deadline_exceeded')}"
        f"  worker deaths {counter_total(dump, 'serve.worker_deaths')}"
    )
    hits = counter_total(dump, "serve.response_cache.hits")
    misses = counter_total(dump, "serve.response_cache.misses")
    coalesced = counter_total(dump, "serve.coalesced")
    response_rate = (hit_rate(hits, misses) or 0.0) * 100
    lattice = cache_stats(dump, "lattice_cache") or {}
    lattice_rate = (hit_rate(lattice.get("hits", 0), lattice.get("misses", 0)) or 0.0) * 100
    lines.append(
        f"caches: response {hits}/{hits + misses} hits ({response_rate:.0f}%)"
        f"  coalesced {coalesced}"
        f"  lattice {lattice.get('entries', '?')} entries"
        f" ({lattice_rate:.0f}% hit)"
    )
    error_burn = gauge(dump, "serve.slo.error_burn")
    latency_burn = gauge(dump, "serve.slo.latency_burn")
    if error_burn is not None or latency_burn is not None:
        slo = dump.get("slo", {})
        lines.append(
            f"slo: error burn {error_burn if error_burn is not None else '-'}×"
            f"  latency burn {latency_burn if latency_burn is not None else '-'}×"
            f"  (targets: p99 {slo.get('p99_ms', '?')} ms, "
            f"errors {slo.get('error_rate', '?')})"
        )
    lat = latency_rows(dump)
    if lat:
        lines.append("")
        lines.append(f"{'endpoint':<24}{'count':>8}{'p50':>9}{'p95':>9}{'p99':>9}{'max':>9}")
        for endpoint, e in lat:
            lines.append(
                f"{endpoint:<24}{e['count']:>8}"
                f"{_fmt_ms(e.get('p50'))}{_fmt_ms(e.get('p95'))}"
                f"{_fmt_ms(e.get('p99'))}{_fmt_ms(e.get('max'))}"
            )
    current = inflight.get("inflight", [])
    if current:
        lines.append("")
        lines.append(f"in flight ({len(current)}):")
        for r in current[:8]:
            lines.append(
                f"  {r.get('request_id', '?'):<20} {r.get('endpoint', '?'):<16}"
                f" {r.get('age_ms', 0):>9.1f} ms"
            )
    slowest = debug.get("slowest", [])
    if slowest:
        lines.append("")
        lines.append("slowest requests (pinned exemplars):")
        for r in slowest[:8]:
            lines.append(
                f"  {r.get('request_id', '?'):<20} {r.get('endpoint', '?'):<16}"
                f" {r.get('total_ms', 0):>9.1f} ms"
                f"  cache={r.get('cache', '-')}"
                f"  status={r.get('status', '-')}"
            )
    errored = [r for r in debug.get("requests", []) if r.get("error_code")]
    if errored:
        lines.append("")
        lines.append("recent errors:")
        for r in errored[:5]:
            lines.append(
                f"  {r.get('request_id', '?'):<20} {r.get('endpoint', '?'):<16}"
                f" status={r.get('status', '?')} [{r.get('error_code')}]"
            )
    return "\n".join(lines)


def build_top_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro top",
        description="Live terminal dashboard over a running repro serve "
        "instance (/metrics + /debug/requests + /debug/inflight).",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="seconds between redraws")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (no screen clearing)")
    return p


def top_main(argv: list[str] | None = None, *, out=None) -> int:
    """Entry point for ``repro top``."""
    parser = build_top_parser()
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error(f"--interval must be > 0, got {args.interval}")
    out = out or sys.stdout
    prev_requests: int | None = None
    prev_t: float | None = None
    try:
        while True:
            try:
                with ServeClient(args.host, args.port, timeout=10.0) as client:
                    dump = client.metrics()
                    debug = client.debug_requests()
                    inflight = client.debug_inflight()
            except (ServeError, OSError) as e:
                print(f"top: cannot reach {args.host}:{args.port}: {e}", file=out)
                return 1
            now = time.perf_counter()
            frame = render_dashboard(
                dump,
                debug,
                inflight,
                prev_requests=prev_requests,
                elapsed_s=(now - prev_t) if prev_t is not None else None,
            )
            prev_requests = counter_total(dump, "serve.requests")
            prev_t = now
            if args.once:
                print(frame, file=out)
                return 0
            print(f"{_CLEAR}{frame}", file=out, flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _extract_tree(payload):
    """Find the span tree inside any of the shapes we write to disk."""
    if isinstance(payload, list):
        return payload
    if isinstance(payload, dict):
        if "trace" in payload and isinstance(payload["trace"], (dict, list)):
            return payload["trace"]  # /debug/requests/<id> payload
        if "spans" in payload and isinstance(payload["spans"], list):
            return payload["spans"]  # repro.run-report document
        if "name" in payload:
            return payload  # bare span tree
    return None


def build_trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro trace",
        description="Pretty-print a stitched span tree from a JSON file "
        "or a running server's flight recorder.",
    )
    p.add_argument("action", choices=["show"])
    p.add_argument("target", metavar="FILE|REQUEST_ID",
                   help="a JSON file (run report, /debug payload, or span "
                   "tree) or a request id to fetch from --host/--port")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    return p


def trace_main(argv: list[str] | None = None, *, out=None) -> int:
    """Entry point for ``repro trace``."""
    parser = build_trace_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    import os

    if os.path.exists(args.target):
        try:
            with open(args.target, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print(f"trace: cannot read {args.target!r}: {e}", file=out)
            return 1
    else:
        try:
            with ServeClient(args.host, args.port, timeout=10.0) as client:
                payload = client.debug_request(args.target)
        except ServeError as e:
            print(f"trace: server has no request {args.target!r}: {e}", file=out)
            return 1
        except OSError as e:
            print(
                f"trace: {args.target!r} is not a file and "
                f"{args.host}:{args.port} is unreachable: {e}",
                file=out,
            )
            return 1
        record = payload.get("record")
        if record:
            print(
                f"request {record.get('request_id')}  "
                f"endpoint {record.get('endpoint')}  "
                f"status {record.get('status')}  "
                f"cache {record.get('cache', '-')}  "
                f"total {record.get('total_ms', '-')} ms",
                file=out,
            )
    tree = _extract_tree(payload)
    if tree is None or tree == []:
        print("trace: no span tree found in payload", file=out)
        return 1
    try:
        print(format_span_tree(tree), file=out)
    except BrokenPipeError:  # piped into head etc.
        pass
    return 0
