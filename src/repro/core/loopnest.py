"""Loop-nest intermediate representation (Figure 1 / Figure 9).

A :class:`LoopNest` is the single most general structure the paper
considers: a perfect nest of ``Doall`` loops, optionally wrapped in
sequential ``Doseq`` loops (Figure 9), whose body makes affine array
accesses.  Bounds are integer constants (rectangular iteration space,
Section 2.1) and strides are one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import as_int_vector, box_volume, frozen_int_matrix
from .affine import AccessKind, AffineRef, ArrayAccess

__all__ = ["Loop", "LoopNest", "IterationSpace"]


@dataclass(frozen=True)
class Loop:
    """One loop level: ``Doall (index, lower, upper)`` (inclusive bounds)."""

    index: str
    lower: int
    upper: int
    parallel: bool = True

    def __post_init__(self):
        if self.upper < self.lower:
            raise ValueError(
                f"loop {self.index}: upper bound {self.upper} < lower {self.lower}"
            )

    @property
    def trip_count(self) -> int:
        return self.upper - self.lower + 1


@dataclass(frozen=True)
class IterationSpace:
    """The rectangular integer box swept by the parallel loops."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lower = frozen_int_matrix(lower, name="lower", ndim=1)
        upper = frozen_int_matrix(upper, name="upper", ndim=1)
        if lower.shape != upper.shape:
            raise ValueError("lower/upper must have equal length")
        if np.any(upper < lower):
            raise ValueError("empty iteration space")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __reduce__(self):
        # Rebuild through __init__ so a copy's bounds are read-only too.
        return (IterationSpace, (self.lower, self.upper))

    @property
    def depth(self) -> int:
        return int(self.lower.shape[0])

    @property
    def extents(self) -> np.ndarray:
        """Trip count per dimension."""
        return self.upper - self.lower + 1

    @property
    def volume(self) -> int:
        """Total number of iterations."""
        return box_volume(self.lower, self.upper)

    def contains(self, point) -> bool:
        p = as_int_vector(point, name="point")
        return bool(np.all(p >= self.lower) and np.all(p <= self.upper))


@dataclass(frozen=True)
class LoopNest:
    """A perfect parallel loop nest with affine body accesses.

    Parameters
    ----------
    loops:
        The ``Doall`` levels, outermost first.  These define the
        partitionable iteration space.
    accesses:
        The affine array accesses of the loop body.
    sequential_loops:
        Optional enclosing ``Doseq`` levels (Figure 9).  They do not enter
        the iteration space being partitioned, but their presence means the
        body re-executes, turning first-time misses into steady-state
        coherence traffic (Section 3.6).

    ``space`` is the :class:`IterationSpace` of the parallel loops.
    """

    loops: tuple[Loop, ...]
    accesses: tuple[ArrayAccess, ...]
    sequential_loops: tuple[Loop, ...] = field(default=())

    def __init__(self, loops, accesses, sequential_loops=()):
        loops = tuple(loops)
        if not loops:
            raise ValueError("a loop nest needs at least one parallel loop")
        accesses = tuple(
            a if isinstance(a, ArrayAccess) else ArrayAccess(a) for a in accesses
        )
        depth = len(loops)
        for acc in accesses:
            if acc.ref.loop_depth != depth:
                raise ValueError(
                    f"reference {acc.ref!r} has G with {acc.ref.loop_depth} rows "
                    f"but the nest has depth {depth}"
                )
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "accesses", accesses)
        object.__setattr__(self, "sequential_loops", tuple(sequential_loops))
        # The partitioned box, built (and validated) once per nest.
        object.__setattr__(
            self, "space", IterationSpace([l.lower for l in loops], [l.upper for l in loops])
        )

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def index_names(self) -> tuple[str, ...]:
        return tuple(l.index for l in self.loops)

    @property
    def references(self) -> tuple[AffineRef, ...]:
        return tuple(a.ref for a in self.accesses)

    @property
    def has_sequential_wrapper(self) -> bool:
        return bool(self.sequential_loops)

    def arrays(self) -> tuple[str, ...]:
        """Distinct array names in source order."""
        seen: dict[str, None] = {}
        for a in self.accesses:
            seen.setdefault(a.ref.array, None)
        return tuple(seen)

    def accesses_to(self, array: str) -> tuple[ArrayAccess, ...]:
        return tuple(a for a in self.accesses if a.ref.array == array)

    def writes(self) -> tuple[ArrayAccess, ...]:
        """Write-like accesses (writes + sync accumulates, Appendix A)."""
        return tuple(a for a in self.accesses if a.kind.is_write_like)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        heads = [f"Doseq({l.index},{l.lower},{l.upper})" for l in self.sequential_loops]
        heads += [f"Doall({l.index},{l.lower},{l.upper})" for l in self.loops]
        body = "; ".join(repr(a) for a in self.accesses)
        return " ".join(heads) + " { " + body + " }"

    # -- convenience constructors ---------------------------------------
    @staticmethod
    def from_subscripts(
        bounds: dict[str, tuple[int, int]],
        body: list[tuple[str, list[dict[str, int] | int], str]],
        sequential: dict[str, tuple[int, int]] | None = None,
    ) -> "LoopNest":
        """Build a nest without going through the parser.

        ``bounds`` maps index name → (lower, upper) in nesting order
        (Python 3.7+ dicts preserve order).  ``body`` lists accesses as
        ``(array, subscripts, kind)``, each subscript being either a dict
        ``{index_name: coeff, "": constant}`` or a plain int constant.

        Example — the Example 9 nest::

            LoopNest.from_subscripts(
                {"i": (1, N), "j": (1, N)},
                [("A", [{"i": 1}, {"j": 1}], "write"),
                 ("B", [{"i": 1, "": -2}, {"j": 1}], "read")],
            )
        """
        names = list(bounds)
        loops = [Loop(n, bounds[n][0], bounds[n][1]) for n in names]
        seq = [
            Loop(n, lo, hi, parallel=False)
            for n, (lo, hi) in (sequential or {}).items()
        ]
        accesses = []
        for array, subscripts, kind in body:
            d = len(subscripts)
            g = np.zeros((len(names), d), dtype=np.int64)
            a = np.zeros(d, dtype=np.int64)
            for c, sub in enumerate(subscripts):
                if isinstance(sub, int):
                    a[c] = sub
                    continue
                for key, coeff in sub.items():
                    if key == "":
                        a[c] = coeff
                    else:
                        g[names.index(key), c] = coeff
            accesses.append(ArrayAccess(AffineRef(array, g, a), AccessKind(kind)))
        return LoopNest(loops, accesses, sequential_loops=seq)
