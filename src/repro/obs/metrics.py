"""Named counters, gauges and latency histograms.

A :class:`MetricsRegistry` is a flat namespace of instruments keyed by
``(name, labels)``.  Pipeline and serving code count into the
process-local default registry (:func:`get_registry`) through
:meth:`Counter.inc`, :meth:`LatencyHistogram.observe` and friends.

Counts kept elsewhere stay where they are.  The simulator's caches,
directory, network and machine keep plain ints, which the run report's
``measured`` section reads from them; no registry holds a copy.  The
analytic caches keep their hit/miss ints too, and
:func:`repro.lattice.memo.publish_cache_metrics` copies them (summed
over ``repro serve``'s workers) into the registry with one
:meth:`MetricsRegistry.publish` call right before ``repro serve`` takes
a ``/metrics`` snapshot.

Thread safety: instrument *mutations* (``inc``, ``observe``, ``set``,
``reset``) and registry operations (get-or-create, publish, snapshot)
are serialised under one module lock, so concurrent requests in the
``repro serve`` process cannot lose updates — a bare ``self._value += n``
is a read-modify-write that the interpreter may interleave between
threads.  A single shared lock keeps per-instrument memory at zero and
cannot deadlock (no instrument calls another while holding it); reads of
a single value stay lock-free, which is safe because an ``int`` load is
atomic and these are monitoring quantities.  The simulator's ints take
no lock: a machine is driven by one thread, and the service and
``repro check`` simulate in worker processes.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "get_registry",
]

#: One lock for every instrument and registry in the process (see module doc).
_LOCK = threading.Lock()


class Counter:
    """An integer metric that normally only goes up (``reset()`` zeroes it)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, n: int = 1) -> None:
        with _LOCK:
            self._value += n

    def reset(self) -> None:
        with _LOCK:
            self._value = 0

    def __repr__(self) -> str:
        lbl = f", {dict(self.labels)}" if self.labels else ""
        return f"Counter({self.name}={self._value}{lbl})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple = (), initial=0):
        self.name = name
        self.labels = labels
        self.value = initial

    def set(self, value) -> None:
        with _LOCK:
            self.value = value

    def reset(self) -> None:
        with _LOCK:
            self.value = 0

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


#: Log-spaced latency bucket upper edges in milliseconds: sub-millisecond
#: cache hits through minute-long exact-engine computes, ~2.2x apart.
#: 17 buckets (+overflow) bound the memory of a histogram that previously
#: grew one exact bin per distinct observed millisecond.
DEFAULT_LATENCY_EDGES_MS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0, 120000.0,
)


class LatencyHistogram:
    """Distribution over *fixed* log-spaced buckets (for latencies).

    It keeps a constant-size cumulative bucket array plus interpolated
    quantiles: latencies take arbitrarily many distinct values over a
    long-running server, so exact bins would grow without bound.  Values
    are milliseconds by convention but nothing enforces a unit.
    """

    __slots__ = ("name", "labels", "edges", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, name: str, labels: tuple = (), edges=DEFAULT_LATENCY_EDGES_MS):
        self.name = name
        self.labels = labels
        self.edges = tuple(float(e) for e in edges)
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError("bucket edges must be strictly increasing")
        self.counts = [0] * (len(self.edges) + 1)  # +1: overflow bucket
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = 0.0

    def observe(self, value) -> None:
        v = float(value)
        with _LOCK:
            self.counts[bisect_left(self.edges, v)] += 1
            self.count += 1
            self.total += v
            if v < self.vmin:
                self.vmin = v
            if v > self.vmax:
                self.vmax = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated q-quantile (q in [0, 1]); 0.0 when empty."""
        with _LOCK:
            count, counts = self.count, list(self.counts)
            vmin, vmax = self.vmin, self.vmax
        if not count:
            return 0.0
        rank = q * count
        cum = 0.0
        prev_edge = 0.0
        for edge, c in zip(self.edges, counts):
            if c and cum + c >= rank:
                lower = max(prev_edge, min(vmin, edge))
                upper = min(edge, vmax)
                frac = (rank - cum) / c
                return lower + frac * max(upper - lower, 0.0)
            cum += c
            prev_edge = edge
        return vmax  # rank landed in the overflow bucket

    def reset(self) -> None:
        with _LOCK:
            self.counts = [0] * (len(self.edges) + 1)
            self.count = 0
            self.total = 0.0
            self.vmin = math.inf
            self.vmax = 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_edge, cumulative_count)`` pairs, ending at (+inf, count)."""
        with _LOCK:
            counts = list(self.counts)
        out = []
        cum = 0
        for edge, c in zip(self.edges, counts):
            cum += c
            out.append((edge, cum))
        out.append((math.inf, cum + counts[-1]))
        return out

    def to_dict(self) -> dict:
        with _LOCK:
            count, total, vmax = self.count, self.total, self.vmax
        return {
            "count": count,
            "sum": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "p50": round(self.quantile(0.50), 3),
            "p95": round(self.quantile(0.95), 3),
            "p99": round(self.quantile(0.99), 3),
            "max": round(vmax, 3),
            "buckets": [
                {"le": ("+Inf" if math.isinf(edge) else edge), "count": cum}
                for edge, cum in self.cumulative_buckets()
            ],
        }

    def __repr__(self) -> str:
        return f"LatencyHistogram({self.name}, n={self.count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """Get-or-create store of instruments keyed by ``(name, labels)``."""

    def __init__(self, name: str = "repro"):
        self.name = name
        self._metrics: dict[tuple, object] = {}

    def _get(self, cls, name: str, labels: dict):
        key = (name, tuple(sorted(labels.items())))
        with _LOCK:
            m = self._metrics.get(key)
            if m is None:
                m = cls(name, key[1])
                self._metrics[key] = m
        if not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r}{labels or ''} already registered as "
                f"{type(m).__name__}, requested {cls.__name__}"
            )
        return m

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def latency_histogram(self, name: str, **labels) -> LatencyHistogram:
        return self._get(LatencyHistogram, name, labels)

    def publish(self, rows) -> None:
        """Set counters from ``(name, labels, value)`` rows of ints.

        For owners that count in plain ints (the analytic caches).
        ``labels`` is a sorted tuple of ``(key, value)`` pairs, as in
        :attr:`Counter.labels`.  Missing counters are created in row order.
        """
        metrics = self._metrics
        with _LOCK:
            for name, labels, value in rows:
                key = (name, labels)
                m = metrics.get(key)
                if m is None:
                    m = metrics[key] = Counter(name, labels)
                m._value = value

    def _items(self) -> list:
        """A consistent point-in-time copy of the instrument map."""
        with _LOCK:
            return list(self._metrics.items())

    def total(self, name: str) -> int:
        """Sum of a counter across every label combination."""
        return sum(
            m.value
            for _, m in self._items()
            if isinstance(m, Counter) and m.name == name
        )

    def by_label(self, name: str, label: str) -> dict:
        """``label value → counter value`` for one counter name."""
        out: dict = {}
        for _, m in self._items():
            if isinstance(m, Counter) and m.name == name:
                lbl = dict(m.labels).get(label)
                if lbl is not None:
                    out[lbl] = out.get(lbl, 0) + m.value
        return out

    def reset(self) -> None:
        for _, m in self._items():
            m.reset()

    def snapshot(self) -> list[dict]:
        """JSON-ready dump of every instrument (stable order)."""
        out = []
        for (name, labels), m in sorted(
            self._items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            entry: dict = {"name": name}
            if labels:
                entry["labels"] = {k: v for k, v in labels}
            if isinstance(m, Counter):
                entry["type"] = "counter"
                entry["value"] = m.value
            elif isinstance(m, Gauge):
                entry["type"] = "gauge"
                entry["value"] = m.value
            else:
                entry["type"] = "histogram"
                entry.update(m.to_dict())
            out.append(entry)
        return out


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-local default registry (pipeline-level metrics)."""
    return _registry
