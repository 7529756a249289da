"""Structure-keyed partition plans — solve Sec 3.6 once per loop *shape*.

A request family is one loop structure (``G`` matrices, offset spreads,
read/write mix) instantiated with many different bounds ``N`` and
processor counts ``P``.  The numeric optimiser re-runs the same grid
search and cost model for every member; this module quotients the
family down to its :func:`~repro.core.structure.structure_key` and
caches a *solved plan*, built from each class's geometry
(:attr:`~repro.core.classify.UISet.u`, ``.kernel`` and ``.reduced``):

* per class, the Theorem-4 spread coefficients ``u`` (the
  partition-sensitive polynomial ``Π s_j + Σ_i u_i Π_{j≠i} s_j``), or —
  when Theorem 4 is inapplicable but the reduced ``G``'s nonzero rows
  are independent — the exact *box-union* form (inclusion–exclusion
  over the members' integer shifts, a piecewise polynomial in the tile
  sides), plus the integer-kernel mask that drives the write-coherence
  penalty;
* the summed per-dimension traffic coefficients ``A_i`` that seed the
  continuous Lagrange optimum;
* the parametric Theorem-2 cost polynomial (for the instantiation-time
  sanity check and for display).

:func:`instantiate_plan` then evaluates the stored closed forms for a
concrete ``(extents, P)`` as one vectorised footprint column per class
and hands the columns to the grid search it shares with
:func:`~repro.core.optimize.optimize_rectangular` (the same feasible
grids, write-coherence penalty and ``(cost, distance, grid)``
tie-break) — so a plan hit reproduces the numeric optimiser's answer
bit-for-bit on the classes it can express, at polynomial-evaluation
cost.

Whenever the closed forms are inapplicable (a class that is neither
Theorem-4 nor a product), the instantiation is numerically risky (huge
volumes), or the plan's integer cost fails the Theorem-2 cross-check,
:func:`plan_optimize` returns ``None`` and records the fallback — the
caller simply continues into the numeric grid search, exactly like
``engine="auto"`` records its engine choice.
"""

from __future__ import annotations

import numpy as np

from .._util import int_rank
from ..lattice.memo import MemoTable
from ..lattice.snf import solve_integer
from ..obs.tracing import span as _span
from .loopnest import IterationSpace
from .optimize import RectOptResult, _feasible_grids, _lagrange_seed, _select_grid
from .structure import canonical_class_order, structure_key
from .symbolic import RectFootprintPolynomial, class_polynomial_from_u
from .tiles import RectangularTile

__all__ = [
    "SOLVER_VERSION",
    "VALIDATE_FACTOR",
    "solve_plan",
    "instantiate_plan",
    "PlanCache",
    "DEFAULT_PLAN_CACHE",
    "plan_optimize",
]

#: Payload schema version, stored in every solved plan.  Payloads from a
#: different solver version are re-solved instead of instantiated.
SOLVER_VERSION = 1

#: Instantiation sanity check: the best integer grid's cost must stay
#: within this factor of the continuous Theorem-2 lower bound evaluated
#: at the Lagrange optimum.  Integerisation (ceil sides) and the write
#: penalty can legitimately exceed the continuous bound by a wide margin
#: on small extents, so this is a safety net against a corrupted or
#: stale payload, not a tight check.
VALIDATE_FACTOR = 32.0

#: Above this iteration-space volume the vectorised float scoring can no
#: longer guarantee exactly-represented side products (box-union terms
#: carry inclusion–exclusion coefficients up to ``2^_MAX_UNION_MEMBERS``
#: on top of the tile volume) — fall back to the numeric path rather
#: than risk a rounding-divergent tie-break.
_EXACT_VOLUME_LIMIT = 2.0**40

#: Classes with more members than this get no box-union form (the
#: inclusion–exclusion has ``2^m − 1`` subsets) — they fall back.
_MAX_UNION_MEMBERS = 8

#: Largest value range the 1-D "line" evaluation will materialise as a
#: bitset (Section 3.8's table-lookup path).  Beyond this the class
#: falls back to the numeric optimiser.
_LINE_RANGE_LIMIT = 1 << 22


def _box_union_terms(shifts) -> list[tuple[tuple[int, ...], int]]:
    """Inclusion–exclusion form of a union of same-size shifted boxes.

    ``|∪_j (B + t_j)| = Σ_{(w, c)} c · Π_i max(0, s_i − w_i)`` where each
    ``w`` is the per-dimension shift width (max − min) of one subset of
    members and ``c`` the net inclusion–exclusion sign count.  Exact for
    every side vector ``s`` — the kinks at ``s_i = w_i`` are what makes
    the form piecewise rather than plainly polynomial.
    """
    from itertools import combinations

    uniq = sorted(set(shifts))
    acc: dict[tuple[int, ...], int] = {}
    for r in range(1, len(uniq) + 1):
        sign = 1 if r % 2 == 1 else -1
        for sub in combinations(uniq, r):
            w = tuple(max(v) - min(v) for v in zip(*sub))
            acc[w] = acc.get(w, 0) + sign
    return sorted((w, c) for w, c in acc.items() if c != 0)


def _line_count(coeffs, shifts, sides) -> float:
    """Exact distinct-value count of ``{Σ_i c_i·x_i} + shifts`` (1-D).

    ``coeffs`` are ``(dim, c)`` pairs with ``c > 0``; ``x_dim`` ranges
    over ``[0, sides[dim])``; ``shifts`` are the members' scalar offsets
    (min 0).  Builds the reachable-value bitset by dilating with each
    arithmetic progression in doubling steps — ``O(range · log side)``
    boolean work, exact for any sides.  This is the paper's Section 3.8
    "table lookup" answer for the ``d = 1`` footprints that have no
    closed polynomial form.
    """
    r = sum(c * (int(sides[d]) - 1) for d, c in coeffs) + max(shifts)
    reach = np.zeros(r + 1, dtype=bool)
    reach[list(shifts)] = True
    for d, c in coeffs:
        n = int(sides[d]) - 1
        step = 1
        while n > 0:
            take = min(step, n)
            shift = c * take
            reach[shift:] |= reach[: reach.size - shift]
            n -= take
            step *= 2
    return float(np.count_nonzero(reach))


def solve_plan(uisets, depth: int) -> dict:
    """Derive the parametric closed forms of one structure (pure JSON).

    Walks the classes in :func:`canonical_class_order` so the payload —
    including every float summation order — is a pure function of the
    structure key.  The payload is JSON-serialisable (lists, numbers,
    strings, booleans, None) so it survives the
    :mod:`repro.lattice.persist` round trip and process-pool pickling.
    """
    ordered = canonical_class_order(uisets)
    l = int(depth)
    a = np.zeros(l, dtype=float)
    classes: list[dict] = []
    names = tuple(f"s{i}" for i in range(l))
    poly = RectFootprintPolynomial.from_dict({}, names)
    applicable = True
    reason = None
    for s in ordered:
        ker = s.kernel
        mask = (
            [bool(np.any(ker[:, k] != 0)) for k in range(l)]
            if ker.size
            else [False] * l
        )
        entry: dict = {
            "u": None,
            "union": None,
            "line": None,
            "kernel_mask": mask,
            "penalized": bool(s.has_write() and ker.size),
        }
        u = s.u
        if u is not None:
            # Theorem-4 class: footprint Π s_j + Σ_i u_i Π_{j≠i} s_j,
            # the expression cumulative_footprint_rect evaluates.
            entry["u"] = [float(x) for x in u]
            poly = poly + class_polynomial_from_u(u, names)
            if s.size > 1 and np.any(s.spread()):
                # Same accumulation rule as optimize_rectangular's seed:
                # only classes with a nonzero spread steer it.
                a += u
        else:
            # No Theorem-4 coefficients.  When the nonzero rows of the
            # reduced G are independent, x ↦ x·G′ is injective on those
            # coordinates, so the class's exact union is a union of
            # same-size boxes shifted by the members' integer solutions
            # of ``x_j·G′ = o_j − o_0`` — closed under inclusion–
            # exclusion, bit-identical to what the numeric path counts
            # by enumeration.  Dependent nonzero rows (e.g. a 1-D array
            # folding two loop dimensions) have no closed form here —
            # the paper itself resorts to table lookup for those.
            g_red, off_red = s.reduced
            nz = [i for i in range(g_red.shape[0]) if np.any(g_red[i, :] != 0)]
            independent = not nz or int_rank(g_red[nz, :]) == len(nz)
            if not independent and g_red.shape[1] == 1:
                # 1-D array folding several loop dimensions: exact count
                # via the Section 3.8 table-lookup form.  Sign flips of a
                # coefficient translate the value set without resizing
                # it, so absolute values canonicalise.
                base = int(off_red[:, 0].min())
                entry["line"] = {
                    "coeffs": [[int(i), abs(int(g_red[i, 0]))] for i in nz],
                    "shifts": sorted({int(o) - base for o in off_red[:, 0]}),
                }
                poly = poly + RectFootprintPolynomial.from_dict(
                    {(int(i),): float(abs(int(g_red[i, 0]))) for i in nz}, names
                )
                classes.append(entry)
                continue
            shifts: list[tuple[int, ...]] | None = []
            if not independent:
                shifts, why = None, "singular-class"
            elif s.size > _MAX_UNION_MEMBERS:
                shifts, why = None, "class-too-large"
            elif not nz:
                shifts = [()]
            else:
                for j in range(off_red.shape[0]):
                    x = solve_integer(g_red, off_red[j] - off_red[0])
                    if x is None:  # pragma: no cover - uniform intersection
                        shifts, why = None, "no-integer-shift"
                        break
                    shifts.append(tuple(int(x[i]) for i in nz))
            if shifts is not None:
                terms = _box_union_terms(shifts)
                entry["union"] = {
                    "dims": [int(i) for i in nz],
                    "terms": [[list(w), int(c)] for w, c in terms],
                }
                poly = poly + RectFootprintPolynomial.monomial(nz, names)
            else:
                applicable = False
                reason = why
        classes.append(entry)
    return {
        "version": SOLVER_VERSION,
        "depth": l,
        "applicable": applicable,
        "reason": reason,
        "a": [float(x) for x in a],
        "classes": classes,
        "cost_poly": poly.to_payload(),
    }


def instantiate_plan(
    payload: dict, extents, processors: int
) -> tuple[RectOptResult | None, str | None]:
    """Evaluate a solved plan for concrete bounds and processor count.

    Returns ``(result, None)`` on success or ``(None, reason)`` when the
    numeric optimiser must run instead.  Each class's closed form gives
    its footprint on every feasible grid in one vectorised sweep, with
    the same per-class arithmetic (term order included) as
    ``optimize_rectangular``'s reference models; the grid search itself
    — feasible grids, penalty, tie-break — is the one
    ``optimize_rectangular`` runs.
    """
    if not isinstance(payload, dict) or payload.get("version") != SOLVER_VERSION:
        return None, "stale-payload"
    l = int(payload["depth"])
    ext = np.asarray(extents, dtype=np.int64)
    if ext.shape != (l,):
        return None, "depth-mismatch"
    if not payload.get("applicable"):
        return None, str(payload.get("reason") or "inapplicable")
    volume_total = 1
    for n in ext.tolist():
        volume_total *= int(n)
    if processors < 1 or processors > volume_total:
        # Let the numeric path raise its proper OptimizationError.
        return None, "p-out-of-range"
    if float(volume_total) >= _EXACT_VOLUME_LIMIT:
        return None, "overflow"
    volume = float(volume_total) / float(processors)
    a, cont = _lagrange_seed(np.asarray(payload["a"], dtype=float), ext, volume)
    grids, sides = _feasible_grids(processors, ext)
    if not grids:
        return None, "no-feasible-grid"
    sf = sides.astype(float)
    prod = np.prod(sf, axis=1)
    columns = []
    for cls in payload["classes"]:
        u = cls.get("u")
        if u is not None:
            fp = prod.copy()
            for i, ui in enumerate(u):
                if ui:
                    # prod / sf[:, i] is the exact Π_{j≠i} sides_j (the
                    # quotient of exactly-represented integers).
                    fp = fp + float(ui) * (prod / sf[:, i])
        elif cls.get("line") is not None:
            line = cls["line"]
            coeffs = [(int(d), int(c)) for d, c in line["coeffs"]]
            shifts = [int(x) for x in line["shifts"]]
            worst = sum(c * (int(ext[d]) - 1) for d, c in coeffs) + max(shifts)
            if worst > _LINE_RANGE_LIMIT:
                return None, "line-range"
            fp = np.array([_line_count(coeffs, shifts, row) for row in sides], dtype=float)
        else:
            union = cls["union"]
            dims = [int(i) for i in union["dims"]]
            fp = np.zeros(len(grids), dtype=float)
            for w, coeff in union["terms"]:
                term = np.full(len(grids), float(coeff))
                for i, wi in zip(dims, w):
                    term = term * np.maximum(sf[:, i] - float(wi), 0.0)
                fp = fp + term
        mask = np.asarray(cls["kernel_mask"], dtype=bool) if cls.get("penalized") else None
        columns.append((fp, mask))
    best, cost = _select_grid(grids, sides, cont, columns)

    # Theorem-2 cross-check: the integer best cannot be wildly above the
    # continuous bound unless the payload is corrupt or stale.
    poly = RectFootprintPolynomial.from_payload(payload["cost_poly"])
    bound = max(poly.evaluate(cont), 1.0)
    if cost > VALIDATE_FACTOR * bound:
        return None, "cost-check"
    return (
        RectOptResult(
            tile=RectangularTile(sides[best]),
            grid=grids[best],
            predicted_cost=cost,
            continuous_sides=cont,
            coefficients=a,
        ),
        None,
    )


class PlanCache(MemoTable):
    """Structure-key → solved-plan store with fallback counters.

    Storage, locking and the hit/miss/load counters are
    :class:`~repro.lattice.memo.MemoTable`'s; this class adds the
    fallback count and its reasons.  Values are the pure-JSON payloads
    of :func:`solve_plan`, so entries persist through
    :mod:`repro.lattice.persist` and travel across process pools
    unchanged.
    """

    def __init__(self):
        super().__init__()
        self.fallbacks = 0
        self._fallback_reasons: dict[str, int] = {}

    @staticmethod
    def value_ok(value) -> bool:
        return isinstance(value, dict)

    def record_fallback(self, reason: str = "unknown") -> None:
        self.absorb_stats({"fallbacks": 1, "fallback_reasons": {reason: 1}})

    def fallback_reasons(self) -> dict[str, int]:
        with self._lock:
            return dict(self._fallback_reasons)

    def export_stats(self) -> dict:
        stats = super().export_stats()
        with self._lock:
            stats["fallbacks"] = self.fallbacks
            stats["fallback_reasons"] = dict(self._fallback_reasons)
        return stats

    def absorb_stats(self, delta: dict) -> None:
        super().absorb_stats(delta)
        with self._lock:
            self.fallbacks += int(delta.get("fallbacks", 0))
            for reason, n in (delta.get("fallback_reasons") or {}).items():
                self._fallback_reasons[reason] = (
                    self._fallback_reasons.get(reason, 0) + int(n)
                )

    def stats(self) -> dict:
        stats = super().stats()
        stats["fallbacks"] = self.fallbacks
        return stats


#: Shared default plan cache (wired to ``--plan-cache`` / ``repro serve
#: --plan-cache`` / persistence; listed in ``default_caches()``).
DEFAULT_PLAN_CACHE = PlanCache()


def plan_optimize(
    uisets,
    space: IterationSpace,
    processors: int,
    *,
    cache: PlanCache,
) -> RectOptResult | None:
    """Plan-tier entry point: lookup/solve, instantiate, validate.

    Returns the instantiated :class:`RectOptResult` on a usable plan, or
    ``None`` (recording the fallback reason) when the numeric optimiser
    should run.  Both spans fire on hits and misses alike, so the trace
    structure is independent of cache warmth — the serve/CLI differential
    check compares span trees byte-for-byte.
    """
    with _span("optimize.plan.lookup", aggregate=True):
        key = structure_key(uisets, space.depth)
        payload = cache.get_or_compute(key, lambda: solve_plan(uisets, space.depth))
    with _span("optimize.plan.instantiate", aggregate=True):
        result, reason = instantiate_plan(payload, space.extents, processors)
    if result is None:
        cache.record_fallback(reason or "unknown")
        return None
    return result
