"""Nested-span tracing for the partitioning pipeline.

A :class:`Span` measures the wall time of one pipeline phase; spans nest,
so a phase's children (e.g. ``optimize.rectangular`` inside
``partition.partition``) appear under it in the finished trace.  Usage::

    from repro.obs import span

    with span("optimize.rectangular", processors=16):
        ...

Timing uses :func:`time.perf_counter` (monotonic), so a parent's duration
always bounds the sum of its children's.  With profiling enabled
(:meth:`Tracer.enable_memory_profiling` or the CLI's ``--profile``), each
span additionally records the process peak RSS at span exit (a high-water
mark — monotone across spans, useful for spotting *which* phase first
pushed memory up).

The process-local default tracer is always on; completed root spans are
kept in an explicit ring (``max_roots``) so long-running processes (the
benchmark suite simulates thousands of nests, a ``repro serve`` worker
lives for days) never accumulate unbounded trace state.  Evictions are
*counted* — :attr:`Tracer.roots_evicted` and the ``tracing.roots_evicted``
registry counter — so a serve run that loses recent traces does it with a
signal, not silently.

Hot call sites (the exact lattice enumeration kernels run thousands of
times inside one ``optimize.rectangular``) use *aggregated* spans
(``span("lattice.count_images", aggregate=True)``): repeated occurrences
under the same parent merge into one child whose duration accumulates and
whose ``calls`` attribute counts occurrences, keeping traces bounded while
still attributing the time.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

try:  # POSIX only; absent on some platforms — RSS capture degrades to None.
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

__all__ = ["Span", "Tracer", "get_tracer", "span"]


def _agg_map(parent: Span) -> dict[str, "Span"]:
    """Per-parent registry of aggregated children (lazily attached)."""
    m = getattr(parent, "_agg", None)
    if m is None:
        m = {}
        parent._agg = m
    return m


def _evictions_counter():
    # Imported lazily: metrics never imports tracing, but keeping the
    # dependency out of module import time lets either load first.
    from .metrics import get_registry

    return get_registry().counter("tracing.roots_evicted")


def _peak_rss_kb() -> int | None:
    if _resource is None:  # pragma: no cover
        return None
    # ru_maxrss is KiB on Linux, bytes on macOS; normalise to KiB.
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":  # pragma: no cover
        peak //= 1024
    return int(peak)


@dataclass
class Span:
    """One timed phase; ``children`` are the spans opened inside it."""

    name: str
    start: float
    attrs: dict = field(default_factory=dict)
    end: float | None = None
    children: list["Span"] = field(default_factory=list)
    peak_rss_kb: int | None = None

    @property
    def duration(self) -> float:
        """Seconds from entry to exit (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for c in self.children:
            yield from c.walk()

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "duration_s": round(self.duration, 9)}
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.peak_rss_kb is not None:
            d["peak_rss_kb"] = self.peak_rss_kb
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d


class Tracer:
    """Collects a process-local tree of completed spans.

    ``max_roots`` bounds retention as an explicit ring: when a new root
    completes past the bound, the *oldest* root is evicted (children live
    inside their root) and the eviction is counted — locally in
    :attr:`roots_evicted` and in the process registry's
    ``tracing.roots_evicted`` counter — so long serve runs cannot lose
    recent traces without a signal.
    """

    def __init__(self, *, profile_memory: bool = False, max_roots: int = 4096):
        if max_roots < 1:
            raise ValueError(f"max_roots must be >= 1, got {max_roots}")
        self.profile_memory = profile_memory and _resource is not None
        self.max_roots = max_roots
        self.roots: deque[Span] = deque()
        self.roots_evicted = 0
        self._stack: list[Span] = []
        self._root_agg: dict[str, Span] = {}

    def span(self, name: str, aggregate: bool = False, **attrs) -> "_Scope":
        """A context manager timing one span; ``as`` binds the :class:`Span`."""
        return _Scope(self, name, aggregate, attrs)

    def _merge_aggregate(self, parent: Span | None, s: Span) -> bool:
        """Fold ``s`` into an existing aggregated sibling; False = first."""
        agg_map = self._root_agg if parent is None else _agg_map(parent)
        existing = agg_map.get(s.name)
        if existing is not None:
            existing.end = (existing.end or existing.start) + s.duration
            existing.attrs["calls"] += 1
            if s.peak_rss_kb is not None:
                existing.peak_rss_kb = max(existing.peak_rss_kb or 0, s.peak_rss_kb)
            return True
        s.attrs["calls"] = 1
        agg_map[s.name] = s
        return False

    def _append_root(self, s: Span) -> None:
        self.roots.append(s)
        while len(self.roots) > self.max_roots:
            evicted = self.roots.popleft()
            self._root_agg.pop(evicted.name, None)
            self.roots_evicted += 1
            _evictions_counter().inc()

    def enable_memory_profiling(self, on: bool = True) -> None:
        self.profile_memory = bool(on) and _resource is not None

    def reset(self) -> None:
        self.roots.clear()
        self._stack.clear()
        self._root_agg.clear()

    def walk(self) -> Iterator[Span]:
        """Every completed span, depth-first across roots."""
        for r in list(self.roots):
            yield from r.walk()

    def find(self, name: str) -> list[Span]:
        """All completed spans with the given name, in completion order."""
        return [s for s in self.walk() if s.name == name]

    def to_dicts(self) -> list[dict]:
        """JSON-ready list of root span trees (most recent last)."""
        return [r.to_dict() for r in self.roots]

    def phase_totals(self) -> dict[str, float]:
        """Total seconds per span name, summed over every occurrence."""
        totals: dict[str, float] = {}
        for s in self.walk():
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
        return totals


class _Scope:
    """One ``with span(...)`` block, opening its :class:`Span` on entry and
    filing it on exit (a plain class: hot sites open thousands a request)."""

    __slots__ = ("tracer", "name", "aggregate", "attrs", "span")

    def __init__(self, tracer: Tracer, name: str, aggregate: bool, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.aggregate = aggregate
        self.attrs = attrs

    def __enter__(self) -> Span:
        self.span = Span(name=self.name, start=time.perf_counter(), attrs=self.attrs)
        self.tracer._stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        t, s = self.tracer, self.span
        s.end = time.perf_counter()
        if t.profile_memory:
            s.peak_rss_kb = _peak_rss_kb()
        # Pop *this* span even if a child leaked (defensive).
        while t._stack and t._stack[-1] is not s:
            t._stack.pop()
        if t._stack:
            t._stack.pop()
        parent = t._stack[-1] if t._stack else None
        if self.aggregate and t._merge_aggregate(parent, s):
            pass  # folded into an existing sibling of the same name
        elif parent is not None:
            parent.children.append(s)
        else:
            t._append_root(s)


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-local default tracer."""
    return _tracer


def span(name: str, aggregate: bool = False, **attrs):
    """Open a span on the default tracer (context manager)."""
    return _Scope(_tracer, name, aggregate, attrs)
