"""Metric and trace exporters: JSONL event traces and Prometheus text.

:class:`EventTraceWriter` is a sink for the machine's access stream
(:attr:`repro.sim.machine.Machine.observer`): every ``every``-th access is
written as one JSON object per line, so a multi-million-access simulation
can leave a bounded, replayable record::

    {"seq": 0, "proc": 2, "array": "B", "coords": [7, 3], "kind": "read", "hit": false}

``seq`` is the global access sequence number (pre-sampling), so sampled
traces remain alignable with the full run.

:func:`prometheus_text_from_snapshot` renders registry snapshot entries
(:func:`prometheus_text` is the same for a live
:class:`~repro.obs.metrics.MetricsRegistry`) in the Prometheus text
exposition format (version 0.0.4): counters gain a
``_total`` suffix, and latency histograms emit cumulative
``_bucket{le=...}`` series ending at ``+Inf`` plus ``_sum``/``_count``,
and a ``<name>_summary`` with interpolated ``quantile`` samples.  :func:`parse_prometheus_text` is the strict inverse
used by CI's scrape check — it refuses malformed names, missing TYPE
lines, non-cumulative buckets, and counters that do not end in
``_total``, so a formatting regression fails loudly rather than being
silently dropped by a real scraper.
"""

from __future__ import annotations

import json
import math
import re

__all__ = [
    "EventTraceWriter",
    "prometheus_text",
    "prometheus_text_from_snapshot",
    "parse_prometheus_text",
    "PrometheusFormatError",
]


class EventTraceWriter:
    """Write every ``every``-th access event as a JSONL line.

    Parameters
    ----------
    path_or_file:
        Output path, or any object with ``write``.
    every:
        Sampling stride (1 = every access).
    limit:
        Optional hard cap on written events (``None`` = unlimited).
    """

    def __init__(self, path_or_file, *, every: int = 1, limit: int | None = None):
        if every < 1:
            raise ValueError(f"sampling stride must be >= 1, got {every}")
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns = False
        else:
            self._fh = open(path_or_file, "w")
            self._owns = True
        self.every = every
        self.limit = limit
        self.events_seen = 0
        self.events_written = 0

    def __call__(self, proc: int, array: str, coords, kind: str, hit: bool) -> None:
        seq = self.events_seen
        self.events_seen += 1
        if seq % self.every:
            return
        if self.limit is not None and self.events_written >= self.limit:
            return
        self._fh.write(
            json.dumps(
                {
                    "seq": seq,
                    "proc": proc,
                    "array": array,
                    "coords": list(coords),
                    "kind": kind,
                    "hit": bool(hit),
                },
                separators=(",", ":"),
            )
            + "\n"
        )
        self.events_written += 1

    def close(self) -> None:
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "EventTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)
# ---------------------------------------------------------------------------

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


class PrometheusFormatError(ValueError):
    """A text-format violation found by :func:`parse_prometheus_text`."""


def _prom_name(name: str) -> str:
    """``serve.latency_ms`` → ``repro_serve_latency_ms``."""
    clean = _SANITIZE_RE.sub("_", name)
    if not clean.startswith("repro_"):
        clean = "repro_" + clean
    return clean


def _escape_label(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(labels, extra: dict | None = None) -> str:
    pairs = [(k, v) for k, v in labels]
    if extra:
        pairs += list(extra.items())
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in sorted(pairs))
    return "{" + inner + "}"


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _cumulative_buckets(entry: dict) -> list[tuple[str, int]]:
    """``(le, cumulative count)`` pairs of a snapshot histogram, ending at
    ``+Inf``."""
    return [
        ("+Inf" if b.get("le") == "+Inf" else _fmt(float(b.get("le"))), b.get("count", 0))
        for b in entry.get("buckets") or ()
    ]


def prometheus_text(registry, *, extra_gauges: dict | None = None) -> str:
    """Render a :class:`~repro.obs.metrics.MetricsRegistry` as Prometheus
    text exposition: :func:`prometheus_text_from_snapshot` of its
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, so values carry
    the snapshot's rounding (latency quantiles to 3 decimals, sums to 6).
    """
    return prometheus_text_from_snapshot(registry.snapshot(), extra_gauges=extra_gauges)


def prometheus_text_from_snapshot(entries, *, extra_gauges: dict | None = None) -> str:
    """Render registry *snapshot* entries as Prometheus text exposition.

    The one Prometheus renderer.  The input is the JSON shape
    :meth:`MetricsRegistry.snapshot` produces (``{"name", "labels",
    "type", ...}`` dicts) rather than live instruments, so the server's
    Prometheus scrape renders the same snapshot its JSON ``/metrics``
    carries.  ``extra_gauges`` maps metric name → numeric value for
    quantities that live outside the registry.  Output is deterministic:
    entries are grouped by metric name (one HELP/TYPE header per name,
    which the strict parser requires) and sorted by labels.
    Latency histograms (``buckets`` + quantiles) render as cumulative
    buckets plus a ``<name>_summary``; entries whose type disagrees with
    the first seen for that name are skipped rather than corrupting the
    exposition.
    """
    groups: dict[str, list[dict]] = {}
    for entry in entries:
        name = entry.get("name")
        if name:
            groups.setdefault(name, []).append(entry)

    lines: list[str] = []

    def header(pname: str, ptype: str, source: str) -> None:
        lines.append(f"# HELP {pname} repro metric {source}")
        lines.append(f"# TYPE {pname} {ptype}")

    def labels_of(entry: dict) -> list[tuple]:
        return sorted((entry.get("labels") or {}).items())

    for name in sorted(groups):
        members = sorted(groups[name], key=lambda e: str(labels_of(e)))
        base = _prom_name(name)
        etype = members[0].get("type")
        members = [e for e in members if e.get("type") == etype]
        if etype == "counter":
            header(f"{base}_total", "counter", name)
            for e in members:
                lines.append(f"{base}_total{_label_str(labels_of(e))} {_fmt(e.get('value', 0))}")
        elif etype == "gauge":
            numeric = [
                e for e in members
                if isinstance(e.get("value"), (int, float))
                and not isinstance(e.get("value"), bool)
            ]
            if not numeric:
                continue
            header(base, "gauge", name)
            for e in numeric:
                lines.append(f"{base}{_label_str(labels_of(e))} {_fmt(float(e['value']))}")
        elif etype == "histogram":
            header(base, "histogram", name)
            for e in members:
                ls = labels_of(e)
                for le, cum in _cumulative_buckets(e):
                    lines.append(f"{base}_bucket{_label_str(ls, {'le': le})} {cum}")
                lines.append(f"{base}_sum{_label_str(ls)} {_fmt(float(e.get('sum', 0)))}")
                lines.append(f"{base}_count{_label_str(ls)} {e.get('count', 0)}")
            sname = f"{base}_summary"
            header(sname, "summary", name)
            for e in members:
                ls = labels_of(e)
                for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                    ql = _label_str(ls, {"quantile": _fmt(q)})
                    lines.append(f"{sname}{ql} {_fmt(float(e.get(key, 0.0)))}")
                lines.append(f"{sname}_sum{_label_str(ls)} {_fmt(float(e.get('sum', 0.0)))}")
                lines.append(f"{sname}_count{_label_str(ls)} {e.get('count', 0)}")

    for name, value in sorted((extra_gauges or {}).items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        base = _prom_name(name)
        header(base, "gauge", name)
        lines.append(f"{base} {_fmt(float(value))}")

    return "\n".join(lines) + "\n"


def _parse_value(text: str, where: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise PrometheusFormatError(f"{where}: unparseable value {text!r}") from None


def _parse_labels(text: str, where: str) -> dict:
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(text):
        eq = text.index("=", pos) if "=" in text[pos:] else -1
        if eq < 0:
            raise PrometheusFormatError(f"{where}: malformed labels at {text[pos:]!r}")
        lname = text[pos:eq]
        if not _LABEL_NAME_RE.match(lname):
            raise PrometheusFormatError(f"{where}: bad label name {lname!r}")
        if eq + 1 >= len(text) or text[eq + 1] != '"':
            raise PrometheusFormatError(f"{where}: label value must be quoted")
        value = []
        i = eq + 2
        while i < len(text):
            ch = text[i]
            if ch == "\\" and i + 1 < len(text):
                esc = text[i + 1]
                value.append({"n": "\n", '"': '"', "\\": "\\"}.get(esc, esc))
                i += 2
                continue
            if ch == '"':
                break
            value.append(ch)
            i += 1
        else:
            raise PrometheusFormatError(f"{where}: unterminated label value")
        labels[lname] = "".join(value)
        pos = i + 1
        if pos < len(text) and text[pos] == ",":
            pos += 1
    return labels


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)


def parse_prometheus_text(text: str) -> dict:
    """Strictly parse Prometheus text exposition.

    Returns ``{metric_name: {"type": ..., "samples": [(labels, value), ...]}}``
    keyed by the *declared* (TYPE-line) metric name; histogram/summary
    child series (``_bucket``/``_sum``/``_count``/quantiles) attach to
    their parent.  Raises :class:`PrometheusFormatError` on any
    violation of the format contract (see module doc).
    """
    metrics: dict[str, dict] = {}
    types: dict[str, str] = {}

    def owner(sample_name: str, where: str) -> tuple[str, str]:
        """Resolve a sample to its declared metric name and sample role."""
        if sample_name in types:
            t = types[sample_name]
            if t == "counter":
                if not sample_name.endswith("_total"):
                    raise PrometheusFormatError(
                        f"{where}: counter {sample_name!r} must end in _total"
                    )
                declared = sample_name[: -len("_total")]
                return (declared if declared in metrics else sample_name), "value"
            return sample_name, "value"
        for suffix, role in (("_bucket", "bucket"), ("_sum", "sum"), ("_count", "count")):
            parent = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if parent and parent in types and types[parent] in ("histogram", "summary"):
                return parent, role
        if sample_name.endswith("_total") and sample_name[: -len("_total")] in types:
            parent = sample_name[: -len("_total")]
            if types[parent] == "counter":
                return parent, "value"
        raise PrometheusFormatError(f"{where}: sample {sample_name!r} has no TYPE line")

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        where = f"line {lineno}"
        if line == "":
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise PrometheusFormatError(f"{where}: malformed TYPE line")
                _, _, mname, mtype = parts
                if not _NAME_RE.match(mname):
                    raise PrometheusFormatError(f"{where}: bad metric name {mname!r}")
                if mtype not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise PrometheusFormatError(f"{where}: bad metric type {mtype!r}")
                declared = mname[: -len("_total")] if (
                    mtype == "counter" and mname.endswith("_total")
                ) else mname
                if declared in types:
                    raise PrometheusFormatError(f"{where}: duplicate TYPE for {declared!r}")
                types[declared] = mtype
                types[mname] = mtype
                metrics[declared] = {"type": mtype, "samples": []}
            elif len(parts) >= 2 and parts[1] == "HELP":
                if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                    raise PrometheusFormatError(f"{where}: malformed HELP line")
            # other comments are permitted by the format
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise PrometheusFormatError(f"{where}: unparseable sample {line!r}")
        sample_name = m.group("name")
        labels = _parse_labels(m.group("labels") or "", where)
        value = _parse_value(m.group("value"), where)
        parent, role = owner(sample_name, where)
        entry = metrics[parent]
        if entry["type"] == "counter" and value < 0:
            raise PrometheusFormatError(f"{where}: negative counter {sample_name!r}")
        if role == "bucket" and entry["type"] == "histogram" and "le" not in labels:
            raise PrometheusFormatError(f"{where}: histogram bucket missing 'le' label")
        entry["samples"].append({"name": sample_name, "role": role,
                                 "labels": labels, "value": value})

    for mname, entry in metrics.items():
        if entry["type"] != "histogram":
            continue
        series: dict[tuple, list] = {}
        for s in entry["samples"]:
            if s["role"] != "bucket":
                continue
            key = tuple(sorted((k, v) for k, v in s["labels"].items() if k != "le"))
            series.setdefault(key, []).append(
                (_parse_value(s["labels"]["le"], f"metric {mname}"), s["value"])
            )
        if not series:
            raise PrometheusFormatError(f"histogram {mname!r} has no _bucket samples")
        for key, buckets in series.items():
            edges = [e for e, _ in buckets]
            counts = [c for _, c in buckets]
            if edges != sorted(edges):
                raise PrometheusFormatError(f"histogram {mname!r}: unsorted buckets")
            if counts != sorted(counts):
                raise PrometheusFormatError(f"histogram {mname!r}: non-cumulative buckets")
            if not math.isinf(edges[-1]):
                raise PrometheusFormatError(f"histogram {mname!r}: missing +Inf bucket")
        roles = {s["role"] for s in entry["samples"]}
        if "sum" not in roles or "count" not in roles:
            raise PrometheusFormatError(f"histogram {mname!r}: missing _sum or _count")

    return metrics
