"""Lowering: Doall AST → affine loop-nest IR.

Checks the paper's program assumptions (Section 2.1) and produces the
``(G, a)`` form of every reference:

* the parallel loops form a perfect nest (statements only at the
  innermost level);
* bounds are integers after substituting ``bindings`` (symbolic sizes
  like ``N`` are allowed in the source and resolved here);
* subscripts are affine in the loop indices — coefficients of the
  ``Doall`` indices populate ``G``, coefficients of enclosing ``Doseq``
  indices are rejected (a ``Doseq``-varying subscript would make the
  footprint time-dependent, outside the paper's model), and anything else
  must be bound.
"""

from __future__ import annotations

import numpy as np

from ..core.affine import AccessKind, AffineRef, ArrayAccess
from ..core.loopnest import Loop, LoopNest
from ..exceptions import LoweringError
from ..obs.tracing import span
from .ast_nodes import Assign, LoopNode, Program, RefNode
from .parser import parse_program

__all__ = ["lower_program", "lower_nest", "compile_nest"]


def _eval_bound(expr, bindings: dict[str, int], what: str) -> int:
    try:
        return expr.evaluate(bindings)
    except LoweringError as e:
        raise LoweringError(f"{what}: {e}") from e


def lower_nest(node: LoopNode, bindings: dict[str, int] | None = None) -> LoopNest:
    """Lower one top-level loop to a :class:`LoopNest`."""
    with span("lang.lower", index=node.index):
        return _lower_nest(node, bindings)


def _lower_nest(node: LoopNode, bindings: dict[str, int] | None = None) -> LoopNest:
    bindings = dict(bindings or {})
    seq_loops: list[Loop] = []
    par_loops: list[Loop] = []
    statements: list[Assign] = []

    def walk(n: LoopNode) -> None:
        lo = _eval_bound(n.lower, bindings, f"lower bound of {n.index}")
        hi = _eval_bound(n.upper, bindings, f"upper bound of {n.index}")
        if hi < lo:
            raise LoweringError(
                f"loop {n.index} is empty: upper bound {hi} < lower {lo}",
                n.line,
                n.column,
            )
        loop = Loop(n.index, lo, hi, parallel=(n.kind == "doall"))
        if n.kind == "doseq":
            if par_loops:
                raise LoweringError(
                    f"Doseq({n.index}) nested inside Doall loops is not supported; "
                    "the paper's Figure 9 form has Doseq outermost",
                    n.line,
                    n.column,
                )
            seq_loops.append(loop)
        else:
            par_loops.append(loop)
        inner_loops = [b for b in n.body if isinstance(b, LoopNode)]
        stmts = [b for b in n.body if isinstance(b, Assign)]
        if inner_loops and stmts:
            raise LoweringError(
                f"loop {n.index} mixes statements and inner loops; "
                "only perfect nests are supported (Section 2.1)",
                n.line,
                n.column,
            )
        if len(inner_loops) > 1:
            raise LoweringError(
                f"loop {n.index} has {len(inner_loops)} inner loops; "
                "only perfect nests are supported",
                n.line,
                n.column,
            )
        for il in inner_loops:
            walk(il)
        statements.extend(stmts)

    walk(node)
    if not par_loops:
        raise LoweringError("nest has no Doall loop to partition", node.line, node.column)
    if not statements:
        raise LoweringError("nest body is empty", node.line, node.column)

    index_names = [l.index for l in par_loops]
    seq_names = {l.index for l in seq_loops}
    accesses: list[ArrayAccess] = []
    for stmt in statements:
        accesses.append(_lower_ref(stmt.lhs, index_names, seq_names, bindings, lhs=True))
        for ref in stmt.rhs_refs:
            accesses.append(_lower_ref(ref, index_names, seq_names, bindings, lhs=False))
    return LoopNest(par_loops, accesses, sequential_loops=seq_loops)


def _lower_ref(
    node: RefNode,
    index_names: list[str],
    seq_names: set[str],
    bindings: dict[str, int],
    *,
    lhs: bool,
) -> ArrayAccess:
    l = len(index_names)
    d = len(node.subscripts)
    g = np.zeros((l, d), dtype=np.int64)
    a = np.zeros(d, dtype=np.int64)
    for c, sub in enumerate(node.subscripts):
        sub = sub.substitute(bindings)
        a[c] = sub.const
        for var, coeff in sub.coeffs:
            if var in seq_names:
                raise LoweringError(
                    f"{node.array}: subscript varies with "
                    f"sequential index {var!r}; outside the paper's model",
                    node.line,
                    node.column,
                )
            if var not in index_names:
                raise LoweringError(
                    f"{node.array}: unbound symbol {var!r} in subscript",
                    node.line,
                    node.column,
                )
            g[index_names.index(var), c] = coeff
    # Read-only, so the reference adopts both arrays without a copy.
    g.setflags(write=False)
    a.setflags(write=False)
    kind = AccessKind.SYNC if node.sync else (AccessKind.WRITE if lhs else AccessKind.READ)
    return ArrayAccess(AffineRef(node.array, g, a), kind)


def lower_program(
    program: Program, bindings: dict[str, int] | None = None
) -> list[LoopNest]:
    """Lower every top-level nest of a parsed program."""
    return [lower_nest(n, bindings) for n in program.nests]


def compile_nest(source: str, bindings: dict[str, int] | None = None) -> LoopNest:
    """Parse + lower a source string containing exactly one loop nest.

    Examples
    --------
    >>> nest = compile_nest('''
    ... Doall (i, 1, N)
    ...   Doall (j, 1, N)
    ...     A[i,j] = B[i,j] + B[i+1,j+3]
    ...   EndDoall
    ... EndDoall
    ... ''', {"N": 100})
    >>> nest.depth
    2
    """
    program = parse_program(source)
    if len(program.nests) != 1:
        raise LoweringError(
            f"expected exactly one top-level nest, found {len(program.nests)}"
        )
    return lower_nest(program.nests[0], bindings)
