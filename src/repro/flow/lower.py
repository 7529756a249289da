"""Legalize multi-statement programs into the paper's per-nest form.

The single-nest lowerer (:mod:`repro.lang.lower`) rejects imperfect
nests outright.  Here they are *legal input*: every assignment is split
out with its chain of enclosing loops into its own perfect nest (loop
distribution), and the statements execute in program order as whole
nests.  That is exactly the regime in which the paper's per-nest
machinery — uniformly-intersecting classes, cumulative footprints,
Theorem 2/4 tile optimization — applies to each statement unchanged, while a statement-level dataflow graph
(:mod:`repro.flow.graph`) captures what moves *between* them.

Cross-statement dependences must stay inside the model: two references
to a shared array that can touch the same element (Definition 4) must be
uniformly generated (Definition 5, same ``G``), so that the pair forms a
uniformly intersecting class *across* statements and the Section 3
footprint machinery can price the transfer.  Anything else — mismatched
``G``, mismatched nest depth, mismatched array rank — raises a typed
:class:`~repro.exceptions.FlowLoweringError` carrying the source
line/column of the offending reference.
"""

from __future__ import annotations

from ..core.classify import (
    UISet,
    partition_references,
    references_intersect,
    uniformly_generated,
)
from ..exceptions import FlowLoweringError
from ..lang.ast_nodes import Assign, LoopNode, Program, RefNode
from ..lang.lower import _lower_nest
from ..lang.parser import parse_program
from ..obs.tracing import span
from .graph import DataflowGraph, FlowEdge, FlowStatement

__all__ = ["lower_flow_program", "compile_flow", "flow_uisets"]


def _split_statements(program: Program) -> list[tuple[list[LoopNode], Assign]]:
    """Pair every assignment with its chain of enclosing loop heads.

    Statements are emitted in textual order, which is the program order
    the dataflow semantics preserve.
    """
    out: list[tuple[list[LoopNode], Assign]] = []

    def walk(node: LoopNode, chain: list[LoopNode]) -> None:
        chain = chain + [node]
        for item in node.body:
            if isinstance(item, Assign):
                out.append((chain, item))
            else:
                walk(item, chain)

    for nest in program.nests:
        walk(nest, [])
    return out


def _synthetic_nest(chain: list[LoopNode], stmt: Assign) -> LoopNode:
    """Rebuild a perfect single-statement nest from a loop chain."""
    node: tuple = (stmt,)
    for head in reversed(chain):
        node = (
            LoopNode(
                head.kind,
                head.index,
                head.lower,
                head.upper,
                node,
                head.line,
                head.column,
            ),
        )
    return node[0]


def _ast_ref(stmt: FlowStatement, access_index: int) -> RefNode:
    """Source AST node of the statement's ``access_index``-th access."""
    if access_index == 0:
        return stmt.ast.lhs
    return stmt.ast.rhs_refs[access_index - 1]


def _reject_non_uniform(s: FlowStatement, t: FlowStatement, ia: int, ib: int) -> None:
    a = s.nest.accesses[ia].ref
    b = t.nest.accesses[ib].ref
    node = _ast_ref(t, ib)
    if a.array_dim != b.array_dim:
        why = (
            f"array rank mismatch ({a.array_dim}-d in {s.name} vs "
            f"{b.array_dim}-d in {t.name})"
        )
    else:
        why = f"reference matrices differ ({a.g.tolist()} vs {b.g.tolist()})"
    raise FlowLoweringError(
        f"dependence {s.name} -> {t.name} on {a.array!r} is not uniformly "
        f"generated: {why}; the footprint machinery (Sec 3) cannot price "
        "this transfer",
        node.line,
        node.column,
    )


def _build_edges(statements: tuple[FlowStatement, ...]) -> tuple[FlowEdge, ...]:
    edges: dict[tuple[int, int, str, str], FlowEdge] = {}
    for t_idx, t in enumerate(statements):
        for s_idx in range(t_idx):
            s = statements[s_idx]
            for ia, acc_a in enumerate(s.nest.accesses):
                for ib, acc_b in enumerate(t.nest.accesses):
                    if acc_a.ref.array != acc_b.ref.array:
                        continue
                    a_writes = acc_a.kind.is_write_like
                    b_writes = acc_b.kind.is_write_like
                    if not (a_writes or b_writes):
                        continue
                    if acc_a.ref.array_dim != acc_b.ref.array_dim:
                        # references_intersect would say "disjoint", but a
                        # rank-inconsistent shared array is a program bug.
                        _reject_non_uniform(s, t, ia, ib)
                    if not references_intersect(acc_a.ref, acc_b.ref):
                        continue
                    # Same-depth statements must reference the shared
                    # array uniformly (Definition 5) so the dependence
                    # forms a cross-statement class the cost model can
                    # price.  Across depth groups no shared grid exists
                    # anyway (imperfect nests distribute to different
                    # depths); the exact schedule still covers the edge.
                    if s.nest.depth == t.nest.depth and not uniformly_generated(
                        acc_a.ref, acc_b.ref
                    ):
                        _reject_non_uniform(s, t, ia, ib)
                    if a_writes and b_writes:
                        kind = "output"
                    elif a_writes:
                        kind = "flow"
                    else:
                        kind = "anti"
                    key = (s_idx, t_idx, acc_a.ref.array, kind)
                    edges.setdefault(
                        key, FlowEdge(s_idx, t_idx, acc_a.ref.array, kind)
                    )
    return tuple(edges.values())


def lower_flow_program(
    program: Program, bindings: dict[str, int] | None = None
) -> DataflowGraph:
    """Lower a parsed multi-statement program to a dataflow graph.

    Every assignment becomes one :class:`FlowStatement` with a perfect
    per-statement nest (imperfect nests are distributed); cross-statement
    dependence edges are derived from matching ``(G, a)`` write/read
    pairs per shared array.
    """
    with span("flow.lower", nests=len(program.nests)):
        statements = []
        for order, (chain, stmt) in enumerate(_split_statements(program)):
            nest = _lower_nest(_synthetic_nest(chain, stmt), bindings)
            statements.append(
                FlowStatement(
                    name=f"S{order + 1}", order=order, nest=nest, ast=stmt
                )
            )
        if not statements:
            raise FlowLoweringError("flow program has no statements")
        stmts = tuple(statements)
        return DataflowGraph(statements=stmts, edges=_build_edges(stmts))


def compile_flow(
    source: str, bindings: dict[str, int] | None = None
) -> DataflowGraph:
    """Parse + lower a source string into a dataflow graph."""
    return lower_flow_program(parse_program(source), bindings)


def flow_uisets(graph: DataflowGraph) -> list[UISet]:
    """Uniformly intersecting classes over *all* statements' accesses.

    Because non-uniform intersecting pairs were rejected at lowering
    time, references to a shared array group into the same class across
    statements whenever they can touch common elements — the grouping
    the co-partitioning pass scores transfers on.
    """
    accesses = [a for s in graph.statements for a in s.nest.accesses]
    return partition_references(accesses)
