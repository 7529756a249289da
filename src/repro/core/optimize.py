"""Tile-shape optimization (Section 3.6).

Minimise the cumulative footprint of one tile subject to the
load-balancing constraint ``|det L| = V`` (``V`` = iteration-space volume
divided by the processor count).

Three solvers:

* :func:`optimize_rectangular` — the closed-form Lagrange solution the
  paper derives in Examples 8-10.  For rectangular tiles the objective is
  ``Σ_i A_i · V / s_i`` with ``s_i`` the tile side in loop dimension ``i``
  and ``A_i = Σ_classes u_i`` the summed spread coefficients (Theorem 4);
  Lagrange multipliers give ``s_i ∝ A_i``.  The continuous optimum is then
  *integerised* against a processor-grid factorisation, evaluating the
  true Theorem-4 (or exact) cost for each candidate grid.  The seed and
  the feasible grids are shared with the data-partition optimizer
  (:mod:`repro.core.datapart`).
* :func:`optimize_parallelepiped` — general hyperparallelepiped tiles via
  constrained numerical minimisation of the Theorem 2 objective
  (scipy SLSQP, multiple deterministic starts, exact Jacobians of the
  objective and the volume constraint).  This is the path that finds
  the skewed tiles of Examples 3/6.
* :func:`communication_free_partition` — detects when hyperplane
  directions exist that incur *zero* traffic (the Ramanujam & Sadayappan
  case the framework subsumes): integer vectors orthogonal to every
  data-sharing direction of every class.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .._util import int_det
from ..exceptions import OptimizationError
from ..lattice.points import LatticeCountCache
from ..lattice.snf import integer_kernel_basis
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.tracing import span as _span
from .anneal import anneal_parallelepiped
from .classify import UISet, as_uisets
from .cumulative import (
    Theorem2Objective,
    cofactors,
    cumulative_footprint_size_exact,
    theorem4_columns,
)
from .loopnest import IterationSpace
from .tiles import ParallelepipedTile, RectangularTile

__all__ = [
    "RectOptResult",
    "sharing_directions",
    "ParallelepipedOptResult",
    "optimize_rectangular",
    "optimize_parallelepiped",
    "PORTFOLIO_MEMBERS",
    "communication_free_partition",
    "factorizations",
    "rect_cost_coefficients",
]


logger = get_logger("core.optimize")


#: The cost models ``optimize_rectangular`` can score candidate grids with.
SCORINGS = ("theorem4", "exact")


def rect_cost_coefficients(uisets, depth: int) -> np.ndarray:
    """Per-loop-dimension traffic coefficients ``A_i = Σ_classes u_i``.

    ``u`` are the Theorem-4 spread coefficients of each class.  Classes
    whose spread is zero (single references, or coincident references)
    contribute nothing — their footprint equals the tile volume, constant
    under the load-balance constraint ("need not figure in the
    optimization process", Example 8).

    Raises :class:`OptimizationError` if some class has dependent rows
    after column reduction (no Theorem-4 coefficients; use the numeric
    parallelepiped path or exact search instead).
    """
    a = np.zeros(depth, dtype=float)
    for s in as_uisets(uisets):
        if s.size == 1 or not np.any(s.spread()):
            continue
        if s.u is None:
            raise OptimizationError(
                f"class {s!r} has no Theorem-4 coefficients "
                "(dependent rows of G after column reduction)"
            )
        a += s.u
    return a


@dataclass(frozen=True)
class RectOptResult:
    """Outcome of rectangular tile optimization.

    Attributes
    ----------
    tile:
        The integerised tile (sides = iterations per dimension).
    grid:
        Processor counts per loop dimension (``Π grid = P``).
    predicted_cost:
        Cumulative footprint of ``tile`` under the scoring method used.
    continuous_sides:
        The un-integerised Lagrange optimum (``s_i ∝ A_i``).
    coefficients:
        The per-dimension traffic coefficients ``A_i``.
    exact_footprints:
        Per class, the exact cumulative footprint of ``tile`` where the
        grid search counted it (``None`` where it scored Theorem 4).
    """

    tile: RectangularTile
    grid: tuple[int, ...]
    predicted_cost: float
    continuous_sides: np.ndarray
    coefficients: np.ndarray
    exact_footprints: tuple[float | None, ...] = ()


def _divisors(p: int) -> list[int]:
    """Sorted divisors of ``p`` by trial division up to ``sqrt(p)``."""
    small, large = [], []
    f = 1
    while f * f <= p:
        if p % f == 0:
            small.append(f)
            if f * f != p:
                large.append(p // f)
        f += 1
    return small + large[::-1]


def factorizations(p: int, l: int):
    """Yield all ordered factorizations of ``p`` into ``l`` positive factors.

    ``factorizations(12, 2)`` → (1,12), (2,6), (3,4), (4,3), (6,2), (12,1).
    Deterministic ascending order in the first factor.  Candidate factors
    are enumerated from the divisor list (``O(sqrt p)`` to build), not by
    scanning ``1..p`` — large prime-rich processor counts stay cheap.
    """
    if l < 1 or p < 1:
        raise ValueError("need p >= 1 and l >= 1")
    if l == 1:
        yield (p,)
        return
    for f in _divisors(p):
        for rest in factorizations(p // f, l - 1):
            yield (f, *rest)


def _exact_column(s: UISet, sides: np.ndarray, cache: LatticeCountCache) -> list[float]:
    """The class's exact cumulative footprint on every row of ``sides``.

    The count depends only on the class geometry (``G`` and offsets up to
    a common translation, Proposition 1) and the tile sides — the
    memoisation key, whose class part is built once per class.
    """
    head = ("cumulative-exact", s.g.shape, s.g.tobytes(), (s.offsets - s.offsets[0]).tobytes())
    return [
        cache.get_or_compute(
            head + (tuple(row),),
            lambda row=row: float(cumulative_footprint_size_exact(s, RectangularTile(row))),
        )
        for row in sides.tolist()
    ]


def _continuous_lagrange(a: np.ndarray, extents: np.ndarray, volume: float) -> np.ndarray:
    """Solve ``min Σ A_i V/s_i s.t. Π s_i = V, 1 <= s_i <= N_i``.

    Interior solution is ``s_i ∝ A_i``; dimensions with ``A_i = 0`` are
    communication-free and take their full extent first; bound-capped
    dimensions are fixed iteratively and the rest re-solved.
    """
    a = np.asarray(a, dtype=float).tolist()
    extents = np.asarray(extents).tolist()
    l = len(a)
    s = [0.0] * l
    free = list(range(l))
    vol = float(volume)
    # Communication-free dims: widen to the full extent (any leftover volume
    # shortfall is absorbed by the remaining dims).
    for i in sorted(free, key=lambda k: a[k]):
        if a[i] == 0 and len(free) > 1:
            s[i] = min(float(extents[i]), vol)
            vol = max(vol / s[i], 1.0)
            free.remove(i)
    # Iteratively apply s_i ∝ A_i, capping at extents.
    for _ in range(l + 1):
        if not free:
            break
        aa = [a[i] for i in free]
        # Π s = vol with s_i = t·A_i  =>  t = (vol / Π A_i)^(1/k)
        t = (vol / math.prod(aa)) ** (1.0 / len(free))
        cand = [x * t for x in aa]
        capped = [i for i, c in zip(free, cand) if c > extents[i]]
        floored = [i for i, c in zip(free, cand) if c < 1.0]
        if not capped and not floored:
            for i, c in zip(free, cand):
                s[i] = c
            break
        for i in capped:
            s[i] = float(extents[i])
            vol /= s[i]
            free.remove(i)
        for i in floored:
            if i in free:
                s[i] = 1.0
                free.remove(i)
        vol = max(vol, 1.0)
    return np.array([x if x != 0 else 1.0 for x in s])


def _lagrange_seed(a: np.ndarray, extents, volume: float) -> tuple[np.ndarray, np.ndarray]:
    """``(a, cont)``: the grid search's coefficients and continuous optimum.

    With no partition-sensitive traffic at all (every ``a_i = 0``) any
    load-balanced tile is optimal, and all-ones coefficients pick the
    most compact grid.
    """
    if not np.any(a):
        a = np.ones(len(a))
    return a, _continuous_lagrange(np.where(a > 0, a, 0.0), extents, volume)


def _feasible_grids(processors: int, extents) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Grids ``Π p_i = P`` with every ``p_i <= N_i``, in
    :func:`factorizations` order, and their tile sides ``⌈N_i / p_i⌉``
    (an int64 array, one row per grid)."""
    ext = np.asarray(extents, dtype=np.int64)
    bounds = ext.tolist()
    grids = [
        grid
        for grid in factorizations(int(processors), len(bounds))
        if not any(p > n for p, n in zip(grid, bounds))
    ]
    sides = -(-ext[None, :] // np.asarray(grids, dtype=np.int64).reshape(-1, len(bounds)))
    return grids, sides


def _select_grid(
    grids: list[tuple[int, ...]],
    sides: np.ndarray,
    cont: np.ndarray,
    fps: np.ndarray,
    uisets: list[UISet],
) -> tuple[int, float]:
    """``(index, cost)`` of the cheapest grid.

    ``fps`` holds each class's footprint on every grid, one column per
    class of ``uisets``.  A write class whose ``G`` has a nonzero integer
    kernel re-touches the same element along the loop dimensions that
    kernel moves along (e.g. matmul's ``C[i,j]`` along ``k``).  Cutting
    such a direction makes ``m`` tiles write the same elements; each
    extra writer costs at least one invalidation + refetch per element,
    so write classes pay ``(m − 1) × footprint`` on top (Appendix A's
    "slightly more expensive communication").  Footprints alone cannot
    distinguish those grids — this term is what steers matmul to block
    tiles that keep ``C`` private.

    Ties go to the grid closest to the continuous optimum (ratio
    distance), then to the lexicographically smallest grid; the distance
    is computed only for the grids tied at the lowest cost.
    """
    p = np.asarray(grids, dtype=np.int64)
    total = np.zeros(len(grids), dtype=float)
    for fp, s in zip(fps.T, uisets):
        total = total + fp
        if s.has_write() and s.kernel.size:
            mask = np.any(s.kernel != 0, axis=0)
            m = np.prod(np.where((p > 1) & mask[None, :], p, 1), axis=1).astype(float)
            total = total + (m - 1.0) * fp

    def key(idx: int):
        dist = sum(
            abs(math.log(sd / cs)) for sd, cs in zip(sides[idx].tolist(), cont) if cs > 0
        )
        return dist, grids[idx]

    cost = float(total.min())
    return min(np.flatnonzero(total == cost).tolist(), key=key), cost


def optimize_rectangular(
    accesses_or_sets,
    space: IterationSpace,
    processors: int,
    *,
    scoring: str = "theorem4",
    cache: LatticeCountCache | None = None,
) -> RectOptResult:
    """Find the best rectangular tile for ``P`` processors (Examples 8-10).

    1. Compute per-dimension coefficients ``A_i`` (Theorem 4 spreads).
    2. Continuous Lagrange optimum ``s_i ∝ A_i`` at volume
       ``V = |space| / P``.
    3. Integerise: enumerate processor-grid factorisations ``Π p_i = P``,
       score each candidate tile ``sides_i = ⌈N_i / p_i⌉`` with the real
       cumulative-footprint model (``scoring``: ``'theorem4'`` or
       ``'exact'``), and keep the cheapest.

    The returned grid is exact load balancing when ``p_i | N_i``; boundary
    tiles are smaller otherwise (paper: tiles equal "except at the
    boundaries of the iteration space").

    ``cache`` memoises the exact lattice enumerations of the grid search
    (many factorisations share tile sides, e.g. transposed grids of a
    square space).  Defaults to a fresh :class:`LatticeCountCache` per
    call; pass a shared instance to reuse counts across calls — e.g. a
    processor-count sweep over one nest, where every ``P`` re-scores
    overlapping side sets.

    Raises :class:`ValueError` for a ``scoring`` not in :data:`SCORINGS`.
    """
    if scoring not in SCORINGS:
        raise ValueError(f"unknown scoring {scoring!r}; known: {SCORINGS}")
    if processors < 1 or processors > space.volume:
        raise OptimizationError(
            f"cannot split {space.volume} iterations over {processors} processors"
        )
    uisets = as_uisets(accesses_or_sets)
    l = space.depth
    volume = float(space.volume) / float(processors)
    if cache is None:
        cache = LatticeCountCache()
    # The seed sums the classes' Theorem-4 coefficients (u = 0 for a zero
    # spread); a class without them cannot steer it, but the grid search
    # below still scores that class exactly.
    a = np.zeros(l, dtype=float)
    for s in uisets:
        if s.u is not None:
            a += s.u
    a, cont = _lagrange_seed(a, space.extents, volume)
    grids, sides = _feasible_grids(processors, space.extents)
    with _span("optimize.rectangular.grid_search", processors=processors):
        if not grids:
            raise OptimizationError(
                f"no feasible processor grid: P={processors}, extents={space.extents.tolist()}"
            )
        # One footprint column per class over every grid: Theorem 4 in
        # one array pass where it applies, else the memoised exact count
        # (the class has dependent rows, or the scoring asks for it).
        exact = [c for c, s in enumerate(uisets) if scoring == "exact" or s.u is None]
        fps = np.empty((len(grids), len(uisets)))
        theorem4 = [c for c in range(len(uisets)) if c not in exact]
        if theorem4:
            fps[:, theorem4] = theorem4_columns([uisets[c].u for c in theorem4], sides)
        for c in exact:
            fps[:, c] = _exact_column(uisets[c], sides, cache)
        idx, cost = _select_grid(grids, sides, cont, fps, uisets)
    return RectOptResult(
        tile=RectangularTile(sides[idx]),
        grid=grids[idx],
        predicted_cost=cost,
        continuous_sides=cont,
        coefficients=a,
        exact_footprints=tuple(
            float(fps[idx, c]) if c in exact else None for c in range(len(uisets))
        ),
    )


@dataclass(frozen=True)
class ParallelepipedOptResult:
    """Outcome of general-tile optimization.

    ``l_matrix`` is the continuous optimum; ``tile`` its integer rounding
    (rows scaled to preserve volume approximately).  ``objective`` is the
    Theorem 2 cumulative footprint at the continuous optimum.

    ``winner`` names the portfolio member whose matrix was kept
    (``rectangular`` / ``slsqp`` / ``anneal``); ``member_objectives`` and
    ``member_seconds`` record, per member that ran, its best continuous
    objective (``None`` when the member produced nothing feasible) and
    its wall time — the raw material of the ``opt.portfolio.*`` metrics.
    """

    l_matrix: np.ndarray
    tile: ParallelepipedTile
    objective: float
    rectangular_objective: float
    improvement: float = field(default=0.0)
    winner: str = "slsqp"
    member_objectives: dict = field(default_factory=dict)
    member_seconds: dict = field(default_factory=dict)


#: Portfolio members in deterministic merge-priority order: on objective
#: ties the earlier name wins, and the implicit rectangular baseline
#: always outranks both (so a member that merely matches the diagonal
#: never displaces it).
PORTFOLIO_MEMBERS = ("slsqp", "anneal")

#: Seeded random perturbations of the diagonal among the SLSQP starts.
_EXTRA_STARTS = 4


def _slsqp_starts(
    uisets: list[UISet],
    l: int,
    v: float,
    sides: np.ndarray,
    *,
    seed: int,
) -> list[np.ndarray]:
    """The deterministic multi-start set of the SLSQP member.

    * the rectangular Lagrange optimum (diagonal L);
    * for each class, a skew start whose first row is aligned with the
      class spread direction mapped back to iteration space (the
      direction that internalises the inter-reference reuse, cf.
      Example 3), plus a strongly-skewed long-thin variant;
    * :data:`_EXTRA_STARTS` seeded random perturbations.
    """
    diag_start = np.diag(sides)
    side = float(np.mean(sides))
    starts = [diag_start]
    for s in uisets:
        if s.size < 2 or not np.any(s.spread()):
            continue
        u = s.u
        if not np.any(u):
            continue
        skew = diag_start.copy()
        direction = u / max(np.linalg.norm(u), 1e-12)
        norm0 = np.linalg.norm(skew[0])
        skew[0] = direction * norm0
        starts.append(skew)
        # Also a strongly-skewed variant (long thin tile along the reuse
        # direction).
        skew2 = np.eye(l)
        skew2[0] = direction * v ** (1.0 / l) * l
        for j in range(1, l):
            skew2[j, j] = (v / np.linalg.norm(skew2[0])) ** (1.0 / max(l - 1, 1))
        starts.append(skew2)
    rng = np.random.default_rng(seed)
    for _ in range(_EXTRA_STARTS):
        starts.append(diag_start + rng.normal(scale=0.3 * side, size=(l, l)))
    return starts


def _volume_constraint(l: int, v: float) -> dict:
    """SLSQP's load-balance constraint ``det L − V = 0`` on the flattened
    ``L``, with its exact Jacobian: by Jacobi's formula ``∂ det L / ∂L``
    is the cofactor matrix ``adj(L)ᵀ``.  A plain constraint dict, which
    SLSQP takes as it is."""
    return {
        "type": "eq",
        "fun": lambda x: np.linalg.det(x.reshape(l, l)) - v,
        "jac": lambda x: cofactors(x.reshape(l, l)).reshape(1, l * l),
    }


def _slsqp_member(
    uisets: list[UISet],
    objective: Theorem2Objective,
    l: int,
    v: float,
    sides: np.ndarray,
    max_extents: np.ndarray,
    *,
    seed: int,
    deadline: float | None = None,
) -> tuple[np.ndarray | None, float]:
    """Multi-start SLSQP minimisation of the Theorem 2 objective.

    Returns ``(best_x_matrix, best_f)`` or ``(None, inf)`` when no start
    converged to a point satisfying ``|det L - V|/V < 1e-3``.  A start
    that repeats an earlier one byte for byte runs once: the same
    deterministic run cannot beat ``best_f`` strictly.  With a
    ``deadline`` (``time.monotonic()`` instant), remaining starts are
    skipped once it passes — each start that does run is still complete,
    so results under a budget are a deterministic *prefix* of the
    budget-less run.
    """
    from scipy.optimize import minimize

    hi = np.tile(np.asarray(max_extents, dtype=float), l)
    lo = -hi
    var_bounds = list(zip(lo.tolist(), hi.tolist()))
    starts = {}
    for s0 in _slsqp_starts(uisets, l, v, sides, seed=seed):
        # Fix the determinant sign of the start.
        if np.linalg.det(s0) < 0:
            s0 = s0.copy()
            s0[0] = -s0[0]
        x0 = np.clip(s0.ravel(), lo, hi)
        starts.setdefault(x0.tobytes(), x0)
    det_con = _volume_constraint(l, v)
    best_x = None
    best_f = np.inf
    with _span("optimize.parallelepiped.minimize", starts=len(starts)):
        for x0 in starts.values():
            if deadline is not None and time.monotonic() >= deadline:
                break
            try:
                res = minimize(
                    objective,
                    x0,
                    method="SLSQP",
                    # Exact gradient (Jacobi's formula), not finite
                    # differences; the value stays the batched determinant.
                    jac=objective.gradient,
                    constraints=[det_con],
                    bounds=var_bounds,
                    options={"maxiter": 300, "ftol": 1e-9},
                )
            except (ValueError, FloatingPointError):  # pragma: no cover - scipy hiccups
                continue
            if res.success and res.fun < best_f:
                det = np.linalg.det(res.x.reshape(l, l))
                if abs(det - v) / v < 1e-3:
                    best_f = float(res.fun)
                    best_x = res.x.reshape(l, l).copy()
    return best_x, best_f


def optimize_parallelepiped(
    accesses_or_sets,
    volume: float,
    *,
    depth: int | None = None,
    seed: int = 0,
    max_extents=None,
    members: tuple[str, ...] = PORTFOLIO_MEMBERS,
    budget_s: float | None = None,
) -> ParallelepipedOptResult:
    """Minimise the Theorem 2 objective over hyperparallelepiped tiles.

    Runs a *portfolio* of optimizers over
    ``Σ_classes [|det LG| + Σ_i |det LG_{i→â}|]`` subject to
    ``|det L| = V``:

    * ``slsqp`` — deterministic multi-start constrained minimisation
      (the path that finds the skewed tiles of Examples 3/6);
    * ``anneal`` — seeded simulated annealing over ``L`` with
      ``|det L| = V`` row-rescale projection (:mod:`repro.core.anneal`),
      the robust member when SLSQP's starts all fail at depth ≥ 3;
    * the rectangular Lagrange diagonal is always an implicit member, so
      the result is never Theorem-2-costlier than the rectangular
      baseline and ``improvement`` is never negative.

    The merge is deterministic: candidates sort by ``(objective,
    member priority)`` — rectangular baseline first on ties, then the
    ``members`` order — and the cheapest candidate that *rounds to a
    feasible integer tile* (``|det L|`` within tolerance of ``V``) wins.

    ``budget_s`` caps each member's wall time (the ``--opt-budget``
    knob).  Members stop at deterministic checkpoints (between SLSQP
    starts, every few annealing steps), so a budget can truncate the
    search — budget-less runs are bit-reproducible.

    ``max_extents`` bounds each entry of ``L`` (tile edges cannot exceed
    the iteration-space extents — without this, objectives like Example
    3's improve without limit as the skew grows).  Defaults to
    ``3·V^(1/l)`` per dimension.

    Returns the best continuous ``L`` plus an integer rounding, with the
    winning member and per-member objectives/timings recorded on the
    result and in the ``opt.portfolio.*`` metrics.
    """
    uisets = as_uisets(accesses_or_sets)
    if depth is None:
        depth = uisets[0].g.shape[0]
    l = depth
    v = float(volume)
    unknown = [m for m in members if m not in PORTFOLIO_MEMBERS]
    if unknown:
        raise ValueError(
            f"unknown portfolio member(s) {unknown}; known: {PORTFOLIO_MEMBERS}"
        )
    if budget_s is not None and budget_s <= 0:
        raise ValueError(f"budget_s must be positive, got {budget_s}")
    if not v > 0:
        raise ValueError(f"volume must be positive, got {volume}")
    if max_extents is None:
        max_extents = np.full(l, 3.0 * v ** (1.0 / l))
    else:
        max_extents = np.asarray(max_extents, dtype=float)
    # Compiled once and shared by the baseline, every member and the
    # rounding; raises SingularMatrixError before any member runs, so
    # every class below has a square G′ and thus Theorem-4 coefficients.
    objective = Theorem2Objective(uisets, l)

    # Rectangular baseline: the validated Lagrange sides seed every
    # member's start and anchor the reported improvement.
    a = rect_cost_coefficients(uisets, l)
    if not np.any(a):
        a = np.ones(l)
    # Communication-free dims (a_i = 0) would zero the naive s_i ∝ a_i
    # start; the Lagrange solver widens them to the full extent instead.
    sides = _continuous_lagrange(a, max_extents, v)
    diag_start = np.diag(sides)
    rect_obj = objective(diag_start.ravel())

    # Run the members serially in the declared order, each under its own
    # wall-time budget; an outcome is ``(matrix_or_None, objective,
    # elapsed_s)``.
    ordered = [m for m in PORTFOLIO_MEMBERS if m in members]
    outcomes: dict[str, tuple[np.ndarray | None, float, float]] = {}
    with _span("optimize.portfolio", members=len(ordered)):
        for m in ordered:
            deadline = time.monotonic() + budget_s if budget_s is not None else None
            t0 = time.perf_counter()
            if m == "slsqp":
                lm, obj = _slsqp_member(
                    uisets, objective, l, v, sides, max_extents, seed=seed, deadline=deadline
                )
            else:
                # Seeded simulated annealing over L (repro.core.anneal).
                res = anneal_parallelepiped(
                    objective, np.diag(sides), v,
                    max_extents=max_extents, seed=seed, deadline=deadline,
                )
                lm, obj = (None, np.inf) if res is None else (res.l_matrix, float(res.objective))
            outcomes[m] = (lm, obj, time.perf_counter() - t0)

    if "slsqp" in outcomes and outcomes["slsqp"][0] is None:
        # Graceful degradation (the pre-portfolio failure mode): a valid
        # nest must still partition, and the rectangular baseline — plus
        # the anneal member, when enabled — keeps the portfolio feasible.
        logger.warning(
            "parallelepiped optimization: no SLSQP start converged; "
            "portfolio falls back to the remaining members"
        )

    # Deterministic merge: cheapest objective wins; ties go to the
    # rectangular baseline, then to earlier member priority.  A candidate
    # only wins if it rounds to a feasible integer tile.
    candidates: list[tuple[float, int, str, np.ndarray]] = [
        (rect_obj, 0, "rectangular", diag_start)
    ]
    for priority, name in enumerate(ordered, start=1):
        lm, obj, _elapsed = outcomes[name]
        if lm is not None and np.isfinite(obj):
            candidates.append((obj, priority, name, lm))
    candidates.sort(key=lambda t: (t[0], t[1]))

    winner = None
    tile = None
    best_obj = np.inf
    best_lm = None
    round_error: OptimizationError | None = None
    for obj, _priority, name, lm in candidates:
        try:
            tile = _round_tile(lm, objective=objective, volume=v)
        except OptimizationError as e:
            round_error = e
            continue
        winner, best_obj, best_lm = name, obj, lm
        break
    if winner is None or tile is None or best_lm is None:
        raise OptimizationError(
            f"no portfolio member produced a feasible integer tile "
            f"(members: rectangular + {', '.join(ordered)}): {round_error}"
        )

    reg = get_registry()
    reg.counter("opt.portfolio.winner", member=winner).inc()
    for name in ordered:
        _lm, _obj, elapsed = outcomes[name]
        reg.counter("opt.portfolio.member_runs", member=name).inc()
        reg.counter("opt.portfolio.member_ms", member=name).inc(
            round(elapsed * 1000)
        )

    member_objectives = {"rectangular": float(rect_obj)}
    member_seconds = {}
    for name in ordered:
        lm, obj, elapsed = outcomes[name]
        member_objectives[name] = float(obj) if lm is not None else None
        member_seconds[name] = float(elapsed)

    return ParallelepipedOptResult(
        l_matrix=best_lm,
        tile=tile,
        objective=float(best_obj),
        rectangular_objective=rect_obj,
        # The rectangular diagonal is a portfolio member, so a worse
        # member can only win when the diagonal itself failed to round —
        # never report a negative improvement for returning it.
        improvement=max(0.0, (rect_obj - best_obj) / rect_obj) if rect_obj else 0.0,
        winner=winner,
        member_objectives=member_objectives,
        member_seconds=member_seconds,
    )


def _round_tile(
    lm: np.ndarray,
    *,
    volume: float | None = None,
    tol: float = 0.5,
    objective: Theorem2Objective | None = None,
) -> ParallelepipedTile:
    """Round a float ``L`` to an integer tile honouring load balance.

    Naive per-entry rounding can silently drift ``|det L|`` arbitrarily
    far from the load-balance volume ``V`` — or turn singular and give
    up.  Instead, search the integer neighbourhood of ``lm``: every
    floor/ceil corner for ``l <= 3`` plus the plain rounding and its
    diagonal bumps.  Candidates must be nonsingular and, when ``volume``
    is given, keep ``|det L|`` (the exact integer determinant) within
    ``tol·V`` of ``V``; among those the
    compiled Theorem-2 ``objective`` decides (entry distance to ``lm``
    breaks ties, and stands in for the objective when none is supplied).
    Raises :class:`OptimizationError` only when no neighbour satisfies
    the volume tolerance.
    """
    l = lm.shape[0]
    rounded = np.round(lm).astype(np.int64)
    candidates: list[np.ndarray] = [rounded]
    if l <= 3:
        lo = np.floor(lm).astype(np.int64).ravel()
        hi = np.ceil(lm).astype(np.int64).ravel()
        choices = [sorted({int(x), int(y)}) for x, y in zip(lo, hi)]
        for combo in product(*choices):
            candidates.append(np.array(combo, dtype=np.int64).reshape(l, l))
    # Diagonal bumps in both directions: rounding can overshoot V as well
    # as undershoot it, and an overshot |det| needs a −1 step to recover.
    for bump in range(1, 4):
        candidates.append(rounded + bump * np.eye(l, dtype=np.int64))
        candidates.append(rounded - bump * np.eye(l, dtype=np.int64))

    best: tuple | None = None
    best_cand: np.ndarray | None = None
    seen: set[bytes] = set()
    for cand in candidates:
        key = cand.tobytes()
        if key in seen:
            continue
        seen.add(key)
        det = abs(int_det(cand))
        if det == 0:
            continue
        if volume is not None and abs(det - volume) > tol * volume:
            continue
        score = objective(cand.astype(float).ravel()) if objective is not None else 0.0
        vol_err = abs(det - volume) if volume is not None else 0.0
        rank = (score, vol_err, float(np.abs(cand - lm).sum()), key)
        if best is None or rank < best:
            best, best_cand = rank, cand
    if best_cand is None:
        raise OptimizationError(
            f"could not round {lm} to a nonsingular integer tile with "
            f"|det L| within {tol:.0%} of V={volume}"
        )
    return ParallelepipedTile(best_cand)


def sharing_directions(accesses_or_sets) -> np.ndarray:
    """Iteration-space directions along which tiles share data.

    Rows are (a) the integer kernel basis of each class's ``G``
    (self-reuse) and (b) one particular solution ``x0`` per intersecting
    reference pair (``x0·G = a_s − a_r``).  Any partition that never
    separates two iterations differing by a row (or an integer combination
    of rows plus kernel moves) is communication-free.
    """
    uisets = as_uisets(accesses_or_sets)
    if not uisets:
        return np.empty((0, 0), dtype=np.int64)
    return np.vstack([s.sharing for s in uisets])


def communication_free_partition(accesses_or_sets, depth: int) -> np.ndarray:
    """Hyperplane directions that induce zero inter-tile traffic.

    Two iterations ``i1, i2`` share data through class members ``r, s``
    iff ``i1 − i2 ∈ x0_{rs} + ker_Z(G)`` where ``x0_{rs}·G = a_s − a_r``.
    A family of parallel cutting hyperplanes ``h·i = c`` is
    communication-free iff ``h`` is orthogonal to *every* such sharing
    direction — the particular solutions for all intersecting pairs and
    the kernel basis of every class's ``G``.

    Returns a ``(k, depth)`` integer matrix whose rows are independent
    communication-free hyperplane normals (empty when none exist, e.g.
    Example 10).  Cutting along all ``k`` rows yields the
    Ramanujam–Sadayappan communication-free partition; ``k = 0``
    reproduces their "no communication-free partition exists" verdict,
    where this framework still optimises (Section 5).
    """
    c = sharing_directions(accesses_or_sets)
    if c.shape[0] == 0:
        # Everything is private per iteration: every direction is free.
        return np.eye(depth, dtype=np.int64)
    # h must satisfy c · hᵀ = 0  ⇔  h ∈ integer kernel of cᵀ (as rows act
    # from the left): x·(cᵀ) = 0.
    return integer_kernel_basis(c.T)
