"""Timing wrappers around each layer's public functions, for traced runs.

:func:`install` replaces each function in :data:`WRAPS` at the module
attribute its caller looks up (``repro.core.partitioner.estimate_traffic``,
not ``repro.core.cost.estimate_traffic``), so the program itself is not
edited.  Every call becomes a span ``(name, start, end, parent)`` kept in
memory by a :class:`Recorder`; self time is a span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

#: ``(module, attribute, span name)`` of every wrapped call site.
WRAPS = (
    ("repro.serve.pipeline", "parse_program", "lang.parse"),
    ("repro.serve.pipeline", "lower_nest", "lang.lower"),
    ("repro.core.partitioner", "partition_references", "core.classify"),
    ("repro.core.partitioner", "communication_free_partition", "core.comm_free"),
    ("repro.core.partitioner", "optimize_rectangular", "core.optimize_rect"),
    ("repro.core.partitioner", "optimize_parallelepiped", "core.portfolio"),
    ("repro.core.partitioner", "estimate_traffic", "core.estimate"),
    ("repro.serve.pipeline", "build_report", "obs.report"),
    ("repro.serve.pipeline", "simulate_nest", "sim.simulate"),
    ("repro.sim.executor", "reference_streams", "sim.streams"),
    ("repro.sim.executor", "collect_footprints", "sim.footprints"),
    ("repro.sim.executor", "execute_fast", "sim.execute"),
)

#: Spans each workload must record at least once; a refactor that moves
#: a call site away from its wrapped name then fails the traced run
#: instead of silently reporting zero for a layer.
EXPECTED = {
    "compile-rect": (
        "lang.parse", "lang.lower", "core.classify", "core.comm_free",
        "core.optimize_rect", "core.estimate", "obs.report",
    ),
}
EXPECTED["tile-auto"] = EXPECTED["compile-rect"] + ("core.portfolio",)
EXPECTED["simulate"] = EXPECTED["compile-rect"] + (
    "sim.simulate", "sim.streams", "sim.footprints", "sim.execute",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = -1
    child_s: float = 0.0
    note: object = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Recorder:
    """In-memory span store for one process (single-threaded callers)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: Index of the op being timed; spans are recorded only while >= 0.
        self.op = -1

    def wrap(self, fn, name: str, note=None):
        """``fn`` timed as span ``name``; ``note(args, result)`` keeps a
        small derived value on the span (never the arguments themselves,
        which would keep every op's objects alive)."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            s = Span(name, time.perf_counter(), parent=parent, op=self.op)
            self._stack.append(len(self.spans))
            self.spans.append(s)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    s.note = note(args, result)
                return result
            finally:
                s.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += s.end - s.start

        return timed

    def calls(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_dicts(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for s in self.spans
        ]


def _feasible_grids(args, result) -> int:
    """Processor grids ``optimize_rectangular(uisets, space, P)`` scores:
    the factorisations of P into one factor per loop that fit the extents."""
    from repro.core.optimize import factorizations

    extents = args[1].extents
    return sum(
        1
        for grid in factorizations(args[2], len(extents))
        if all(p <= n for p, n in zip(grid, extents))
    )


def _portfolio_outcome(args, result) -> tuple[str, dict]:
    return result.winner, dict(result.member_seconds)


NOTES = {"core.optimize_rect": _feasible_grids, "core.portfolio": _portfolio_outcome}


def install(recorder: Recorder) -> None:
    """Wrap every :data:`WRAPS` call site with ``recorder``'s timer."""
    for module, attr, name in WRAPS:
        mod = importlib.import_module(module)
        setattr(mod, attr, recorder.wrap(getattr(mod, attr), name, NOTES.get(name)))


def self_ms_per_op(recorder: Recorder, name: str, ops) -> list[float]:
    """Per-op total self time of ``name`` spans, over the ``ops`` that called it."""
    per_op: dict[int, float] = {}
    for s in recorder.calls(name):
        if s.op in ops:
            per_op[s.op] = per_op.get(s.op, 0.0) + s.self_s * 1000.0
    return list(per_op.values())


def calls_per_op(recorder: Recorder, name: str, ops) -> list[int]:
    counts = {op: 0 for op in ops}
    for s in recorder.calls(name):
        if s.op in counts:
            counts[s.op] += 1
    return list(counts.values())


def missing(recorder: Recorder, workload: str) -> list[str]:
    seen = {s.name for s in recorder.spans}
    return [name for name in EXPECTED.get(workload, ()) if name not in seen]
