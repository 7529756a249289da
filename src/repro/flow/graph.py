"""Statement-level dataflow graph with affine dependence edges.

A :class:`FlowStatement` is one assignment together with its enclosing
loops, legalized into the paper's form: a perfect per-statement
:class:`~repro.core.loopnest.LoopNest` whose accesses are the
statement's LHS write followed by its RHS reads.  Edges connect
statements in program order when their references to a shared array can
touch the same element (Definition 4 applied across statements):

* ``flow``   — earlier statement writes, later statement reads;
* ``output`` — both statements write;
* ``anti``   — earlier statement reads, later statement writes.

Dependence *existence* is decided by the exact integer intersection test
(:func:`repro.core.classify.references_intersect`); dependences that
exist but are not uniformly generated (Definition 5) are outside the
model and rejected at graph-construction time by
:mod:`repro.flow.lower`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.affine import ArrayAccess
from ..core.loopnest import LoopNest
from ..lang.ast_nodes import Assign

__all__ = ["FlowStatement", "FlowEdge", "DataflowGraph", "DEP_KINDS"]

DEP_KINDS = ("flow", "output", "anti")


@dataclass(frozen=True)
class FlowStatement:
    """One legalized statement of a dataflow program.

    Attributes
    ----------
    name:
        ``S1``, ``S2``, ... in program order.
    order:
        0-based program-order position (execution order of the nests).
    nest:
        The statement's perfect ``Doall`` nest (plus any enclosing
        ``Doseq`` wrappers as ``sequential_loops``).  ``nest.accesses``
        lists the LHS write first, then the RHS reads in source order.
    ast:
        The source :class:`~repro.lang.ast_nodes.Assign`, kept for
        line/column diagnostics.
    """

    name: str
    order: int
    nest: LoopNest
    ast: Assign

    @property
    def write(self) -> ArrayAccess:
        """The statement's LHS access."""
        return self.nest.accesses[0]

    @property
    def reads(self) -> tuple[ArrayAccess, ...]:
        return self.nest.accesses[1:]

    @property
    def sweeps(self) -> int:
        """Trip-count product of enclosing ``Doseq`` wrappers (≥ 1)."""
        n = 1
        for l in self.nest.sequential_loops:
            n *= l.trip_count
        return n


@dataclass(frozen=True)
class FlowEdge:
    """A dependence between two statements on one array."""

    producer: int  # statement order index (earlier statement)
    consumer: int  # statement order index (later statement)
    array: str
    kind: str  # 'flow' | 'output' | 'anti'

    def __post_init__(self):
        if self.kind not in DEP_KINDS:
            raise ValueError(f"unknown dependence kind {self.kind!r}")
        if not (0 <= self.producer < self.consumer):
            raise ValueError(
                f"edge must go forward in program order, got "
                f"{self.producer} -> {self.consumer}"
            )


@dataclass(frozen=True)
class DataflowGraph:
    """A legalized dataflow program: statements in program order + edges."""

    statements: tuple[FlowStatement, ...]
    edges: tuple[FlowEdge, ...]

    @property
    def flow_edges(self) -> tuple[FlowEdge, ...]:
        return tuple(e for e in self.edges if e.kind == "flow")

    def statement(self, name: str) -> FlowStatement:
        for s in self.statements:
            if s.name == name:
                return s
        raise KeyError(name)

    def arrays(self) -> tuple[str, ...]:
        """Distinct array names across all statements, in first-use order."""
        seen: dict[str, None] = {}
        for s in self.statements:
            for a in s.nest.accesses:
                seen.setdefault(a.ref.array, None)
        return tuple(seen)
