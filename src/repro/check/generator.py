"""Seeded random generation of valid affine loop nests.

A :class:`CaseSpec` is the generator's unit of work: a complete,
self-contained description of one test case (loop depth and extents,
uniformly intersecting reference classes, processor count, line size,
sweep count) that can be rendered to ``Doall`` source text, replayed
from JSON (:mod:`repro.check.corpus`), and mutated structurally by the
shrinker (:mod:`repro.check.shrink`).

Validity by construction:

* every class's members are ``offset₀ + x·G`` for small integer ``x`` —
  their pairwise offset differences lie in the row lattice of ``G``, so
  the members are uniformly intersecting (Definition 6);
* at least one reference is write-like (the rendered statement needs an
  LHS);
* the processor count is a product of per-dimension factors that fit the
  extents, so a feasible rectangular grid always exists;
* the total access count is capped so the exact MSI engine stays fast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["ClassSpec", "CaseSpec", "generate_case", "render_source"]

_ARRAYS = ("A", "B", "C", "D")
_INDICES = ("i1", "i2", "i3")


@dataclass(frozen=True)
class ClassSpec:
    """One intended uniformly intersecting class.

    ``g`` is the shared ``(depth, d)`` reference matrix; ``offsets`` the
    per-member length-``d`` offset vectors; ``kinds`` the per-member
    access kinds (``"read"`` / ``"write"`` / ``"sync"``).
    """

    array: str
    g: tuple[tuple[int, ...], ...]
    offsets: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.offsets)

    @property
    def dims(self) -> int:
        return len(self.g[0]) if self.g else 0

    def g_array(self) -> np.ndarray:
        return np.asarray(self.g, dtype=np.int64)


@dataclass(frozen=True)
class CaseSpec:
    """A complete generated test case."""

    case_id: int
    depth: int
    extents: tuple[int, ...]
    processors: int
    line_size: int
    sweeps: int
    classes: tuple[ClassSpec, ...]

    @property
    def volume(self) -> int:
        v = 1
        for n in self.extents:
            v *= n
        return v

    @property
    def total_refs(self) -> int:
        return sum(c.size for c in self.classes)

    @property
    def total_accesses(self) -> int:
        return self.volume * self.total_refs * self.sweeps

    def source(self) -> str:
        return render_source(self)

    def access_multiset(self) -> list[tuple]:
        """Expected ``(array, kind, G, offset)`` rows, as hashable tuples."""
        rows = []
        for c in self.classes:
            for off, kind in zip(c.offsets, c.kinds):
                rows.append((c.array, kind, c.g, off))
        return sorted(rows)


# ----------------------------------------------------------------------
# Rendering


def _subscript(col: int, g: np.ndarray, offset: np.ndarray) -> str:
    """Render one subscript expression, e.g. ``2i1 - i2 + 1``."""
    terms: list[str] = []
    for row in range(g.shape[0]):
        coeff = int(g[row, col])
        if coeff == 0:
            continue
        name = _INDICES[row]
        mag = f"{abs(coeff)}{name}" if abs(coeff) != 1 else name
        if not terms:
            terms.append(mag if coeff > 0 else f"-{mag}")
        else:
            terms.append(f"+ {mag}" if coeff > 0 else f"- {mag}")
    const = int(offset[col])
    if const or not terms:
        if not terms:
            terms.append(str(const))
        else:
            terms.append(f"+ {const}" if const > 0 else f"- {abs(const)}")
    return " ".join(terms)


def _ref(array: str, g: np.ndarray, offset: np.ndarray, *, sync: bool) -> str:
    subs = ", ".join(_subscript(c, g, offset) for c in range(g.shape[1]))
    return f"{'l$' if sync else ''}{array}[{subs}]"


def render_source(spec: CaseSpec) -> str:
    """``Doall`` source text whose lowering reproduces the spec's accesses.

    Every write-like member becomes the LHS of its own statement; all
    read members ride on the first statement's RHS (extra statements get
    a constant RHS).  A ``Doseq`` wrapper models ``sweeps > 1``.
    """
    writes: list[str] = []
    reads: list[str] = []
    for c in spec.classes:
        g = c.g_array()
        for off, kind in zip(c.offsets, c.kinds):
            text = _ref(c.array, g, np.asarray(off), sync=(kind == "sync"))
            (reads if kind == "read" else writes).append(text)
    if not writes:
        raise ValueError("spec has no write-like reference to use as an LHS")

    lines: list[str] = []
    indent = 0
    if spec.sweeps > 1:
        lines.append(f"Doseq (t, 1, {spec.sweeps})")
        indent += 1
    for dim in range(spec.depth):
        lines.append("  " * indent + f"Doall ({_INDICES[dim]}, 0, {spec.extents[dim] - 1})")
        indent += 1
    for n, lhs in enumerate(writes):
        rhs = " + ".join(reads) if (n == 0 and reads) else "1"
        lines.append("  " * indent + f"{lhs} = {rhs}")
    for dim in range(spec.depth - 1, -1, -1):
        indent -= 1
        lines.append("  " * indent + "EndDoall")
    if spec.sweeps > 1:
        lines.append("EndDoseq")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Generation


def _gen_g(rng: np.random.Generator, depth: int, d: int) -> tuple[tuple[int, ...], ...]:
    """A reference matrix: unimodular-ish, general nonsingular, or singular."""
    flavor = rng.choice(["unimodular", "general", "singular"], p=[0.4, 0.4, 0.2])
    if flavor == "unimodular":
        g = np.zeros((depth, d), dtype=np.int64)
        m = min(depth, d)
        for k in range(m):
            g[k, k] = rng.choice([-1, 1])
        for _ in range(int(rng.integers(0, 3))):
            r, s = rng.integers(0, depth, 2)
            if r == s:
                continue
            cand = g.copy()
            cand[r] += int(rng.choice([-1, 1])) * cand[s]
            if np.abs(cand).max() <= 2:
                g = cand
    else:
        g = rng.integers(-2, 3, size=(depth, d)).astype(np.int64)
        if flavor == "singular":
            if depth >= 2 and rng.random() < 0.5:
                r, s = rng.choice(depth, 2, replace=False)
                g[r] = int(rng.integers(0, 3)) * g[s]
            elif d >= 2:
                g[:, int(rng.integers(0, d))] = 0
            else:
                g[:, 0] = 0
    if not np.any(g):
        g[0, 0] = 1
    return tuple(tuple(int(x) for x in row) for row in g)


def _gen_class(
    rng: np.random.Generator, depth: int, array: str, d: int
) -> ClassSpec:
    g = _gen_g(rng, depth, d)
    g_arr = np.asarray(g, dtype=np.int64)
    size = int(rng.integers(1, 4))
    base = rng.integers(-3, 4, size=d).astype(np.int64)
    offsets = [base]
    for _ in range(size - 1):
        x = rng.integers(-2, 3, size=depth).astype(np.int64)
        offsets.append(base + x @ g_arr)
    kinds = tuple(
        "sync" if rng.random() < 0.07 else ("write" if rng.random() < 0.25 else "read")
        for _ in range(size)
    )
    return ClassSpec(
        array=array,
        g=g,
        offsets=tuple(tuple(int(x) for x in off) for off in offsets),
        kinds=kinds,
    )


def _gen_processors(rng: np.random.Generator, extents: tuple[int, ...]) -> int:
    """A product of per-dimension factors that fit the extents (≤ 16)."""
    factors = []
    for n in extents:
        if rng.random() < 0.5:
            divisors = [k for k in range(1, min(n, 4) + 1) if n % k == 0]
            factors.append(int(rng.choice(divisors)))
        else:
            factors.append(int(rng.integers(1, min(n, 4) + 1)))
    p = 1
    for f in factors:
        p *= f
    while p > 16:
        k = int(np.argmax(factors))
        p //= factors[k]
        factors[k] = 1
    if p < 2:
        for k, n in enumerate(extents):
            if n >= 2:
                factors[k] = 2
                p *= 2
                break
    return max(2, min(16, p))


def generate_case(case_id: int, seed: int, *, max_accesses: int = 6000) -> CaseSpec:
    """Deterministically generate one case (``(seed, case_id)``-keyed)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, case_id]))
    depth = int(rng.integers(1, 4))
    if depth == 1:
        extents = [int(rng.integers(4, 25))]
    elif depth == 2:
        extents = [int(rng.integers(3, 11)) for _ in range(2)]
    else:
        extents = [int(rng.integers(3, 7)) for _ in range(3)]
    line_size = int(rng.choice([1, 1, 1, 2, 4, 8]))
    sweeps = 2 if rng.random() < 0.15 else 1

    n_classes = int(rng.integers(1, 4))
    classes: list[ClassSpec] = []
    used: list[tuple[str, int]] = []
    for k in range(n_classes):
        if used and rng.random() < 0.15:
            array, d = used[int(rng.integers(0, len(used)))]
        else:
            array = _ARRAYS[len({a for a, _ in used})]
            d = int(rng.integers(1, min(3, depth + 1) + 1))
            used.append((array, d))
        classes.append(_gen_class(rng, depth, array, d))

    if not any(k != "read" for c in classes for k in c.kinds):
        c0 = classes[0]
        classes[0] = replace(c0, kinds=("write",) + c0.kinds[1:])

    # Cap the exact-engine workload: shrink the largest extent until the
    # total access count fits the budget.
    total_refs = sum(c.size for c in classes)
    while True:
        volume = int(np.prod(extents))
        if volume * total_refs * sweeps <= max_accesses or max(extents) <= 2:
            break
        k = int(np.argmax(extents))
        extents[k] = max(2, extents[k] // 2)

    processors = _gen_processors(rng, tuple(extents))
    return CaseSpec(
        case_id=case_id,
        depth=depth,
        extents=tuple(extents),
        processors=processors,
        line_size=line_size,
        sweeps=sweeps,
        classes=tuple(classes),
    )
