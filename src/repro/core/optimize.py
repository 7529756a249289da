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
  true Theorem-4 (or exact) cost for each candidate grid.
* :func:`optimize_parallelepiped` — general hyperparallelepiped tiles via
  constrained numerical minimisation of the Theorem 2 objective
  (scipy SLSQP, multiple deterministic starts).  This is the path that
  finds the skewed tiles of Examples 3/6.
* :func:`communication_free_partition` — detects when hyperplane
  directions exist that incur *zero* traffic (the Ramanujam & Sadayappan
  case the framework subsumes): integer vectors orthogonal to every
  data-sharing direction of every class.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from ..exceptions import OptimizationError, SingularMatrixError
from ..lattice.points import LatticeCountCache
from ..lattice.snf import integer_kernel_basis, solve_integer
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.tracing import span as _span
from .anneal import AnnealConfig, anneal_parallelepiped
from .classify import UISet, partition_references
from .cumulative import (
    Theorem2Objective,
    cumulative_footprint_rect,
    cumulative_footprint_size_exact,
    spread_coefficients,
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


def _as_uisets(accesses_or_sets) -> list[UISet]:
    items = list(accesses_or_sets)
    if items and isinstance(items[0], UISet):
        return items
    return partition_references(items)


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
    for s in _as_uisets(uisets):
        if s.size == 1:
            continue
        if not np.any(s.spread()):
            continue
        try:
            a += spread_coefficients(s)
        except SingularMatrixError as e:
            raise OptimizationError(
                f"class {s!r} has no Theorem-4 coefficients: {e}"
            ) from e
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
    """

    tile: RectangularTile
    grid: tuple[int, ...]
    predicted_cost: float
    continuous_sides: np.ndarray
    coefficients: np.ndarray


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


def _exact_footprint(s: UISet, tile: RectangularTile, cache: LatticeCountCache) -> float:
    # The exact union size depends only on the class geometry (G and
    # offsets up to a common translation, Proposition 1) and the tile
    # sides — the memoisation key.
    key = (
        "cumulative-exact",
        s.g.shape,
        s.g.tobytes(),
        (s.offsets - s.offsets[0]).tobytes(),
        tuple(int(x) for x in tile.sides),
    )
    return cache.get_or_compute(
        key, lambda: float(cumulative_footprint_size_exact(s, tile))
    )


def _class_footprint(
    s: UISet,
    u: np.ndarray | None,
    tile: RectangularTile,
    scoring: str,
    cache: LatticeCountCache,
) -> float:
    if scoring == "exact":
        return _exact_footprint(s, tile, cache)
    if u is None:
        # No Theorem-4 coefficients (dependent rows): exact fallback,
        # as cumulative_footprint_rect would have raised.
        return _exact_footprint(s, tile, cache)
    # Theorem 4 with the precomputed u — same expression as
    # cumulative_footprint_rect evaluates, term for term.
    sides = tile.sides.astype(float)
    total = float(np.prod(sides))
    for i, ui in enumerate(u):
        total += float(ui) * float(np.prod(np.delete(sides, i)))
    return total


def _score_candidate(
    uisets: list[UISet],
    spread_u: list,
    kernels: list,
    tile: RectangularTile,
    grid: tuple[int, ...],
    scoring: str,
    cache: LatticeCountCache,
) -> float:
    """Per-tile footprint plus a write-sharing coherence penalty.

    A class whose ``G`` has a nonzero integer kernel re-touches the
    same element along kernel directions (e.g. matmul's ``C[i,j]``
    along ``k``).  Cutting such a direction makes ``m`` tiles write
    the same elements; each extra writer costs at least one
    invalidation + refetch per element, so write classes pay
    ``(m − 1) × footprint`` on top (Appendix A's "slightly more
    expensive communication").  Footprints alone cannot distinguish
    those grids — this term is what steers matmul to block tiles
    that keep ``C`` private.
    """
    total = 0.0
    for idx, s in enumerate(uisets):
        fp = _class_footprint(s, spread_u[idx], tile, scoring, cache)
        total += fp
        ker = kernels[idx]
        if s.has_write() and ker.size:
            m = 1
            for k, p_k in enumerate(grid):
                if p_k > 1 and np.any(ker[:, k] != 0):
                    m *= p_k
            total += (m - 1) * fp
    return total


def _candidate_tile(ints: np.ndarray, grid: tuple[int, ...]) -> RectangularTile:
    return RectangularTile(
        tuple(-(-int(n) // int(p)) for n, p in zip(ints, grid))
    )


def _score_grid_batch(
    uisets: list[UISet],
    spread_u: list,
    kernels: list,
    ints: np.ndarray,
    grids: list[tuple[int, ...]],
    scoring: str,
    cache_entries: list,
):
    """Worker: score a contiguous batch of grids with a private cache.

    Runs in a ``ProcessPoolExecutor`` child (must stay module-level for
    pickling).  The private cache is warm-started from the caller's
    exported entries; the new entries travel back so the caller can
    absorb them — the merged parent cache ends up with the same keys
    regardless of how the batches were split.
    """
    cache = LatticeCountCache()
    cache.absorb_entries(cache_entries)
    scores = [
        _score_candidate(
            uisets, spread_u, kernels, _candidate_tile(ints, grid), grid, scoring, cache
        )
        for grid in grids
    ]
    seed_keys = {k for k, _ in cache_entries}
    fresh = [(k, v) for k, v in cache.export_entries() if k not in seed_keys]
    return scores, fresh


def _parallel_scores(
    uisets: list[UISet],
    spread_u: list,
    kernels: list,
    ints: np.ndarray,
    feasible: list[tuple[int, ...]],
    scoring: str,
    cache: LatticeCountCache,
    workers: int,
) -> list[float]:
    """Fan the candidate grids out over a process pool; order-preserving.

    Contiguous batches keep cache locality (adjacent factorisations share
    tile sides); results are concatenated in submission order, so the
    caller's reduction sees exactly the serial candidate order.
    """
    from concurrent.futures import ProcessPoolExecutor

    nbatches = min(workers, len(feasible))
    bounds = [round(i * len(feasible) / nbatches) for i in range(nbatches + 1)]
    batches = [feasible[bounds[i] : bounds[i + 1]] for i in range(nbatches)]
    seed_entries = cache.export_entries()
    scores: list[float] = []
    with ProcessPoolExecutor(max_workers=nbatches) as pool:
        futures = [
            pool.submit(
                _score_grid_batch,
                uisets,
                spread_u,
                kernels,
                ints,
                batch,
                scoring,
                seed_entries,
            )
            for batch in batches
        ]
        for future in futures:
            batch_scores, fresh = future.result()
            scores.extend(batch_scores)
            cache.absorb_entries(fresh)
    return scores


def _continuous_lagrange(a: np.ndarray, extents: np.ndarray, volume: float) -> np.ndarray:
    """Solve ``min Σ A_i V/s_i s.t. Π s_i = V, 1 <= s_i <= N_i``.

    Interior solution is ``s_i ∝ A_i``; dimensions with ``A_i = 0`` are
    communication-free and take their full extent first; bound-capped
    dimensions are fixed iteratively and the rest re-solved.
    """
    l = len(a)
    s = np.zeros(l, dtype=float)
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
        aa = a[free]
        # Π s = vol with s_i = t·A_i  =>  t = (vol / Π A_i)^(1/k)
        t = (vol / float(np.prod(aa))) ** (1.0 / len(free))
        cand = aa * t
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
    else:  # pragma: no cover - loop always breaks within l+1 rounds
        pass
    for i in range(l):
        if s[i] == 0:
            s[i] = 1.0
    return s


def optimize_rectangular(
    accesses_or_sets,
    space: IterationSpace,
    processors: int,
    *,
    scoring: str = "theorem4",
    cache: LatticeCountCache | None = None,
    workers: int = 1,
    plan_cache=None,
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

    ``workers > 1`` scores the factorisation candidates in parallel
    batches on a ``ProcessPoolExecutor``.  Each worker gets a private
    cache warm-started from ``cache``; new entries are merged back, and
    the result is identical to the serial search for any worker count
    (candidates keep their enumeration order through the deterministic
    ``(cost, distance, grid)`` reduction).

    ``plan_cache`` (a :class:`repro.core.plan.PlanCache`) consults the
    structure-keyed plan tier first: a usable solved plan reproduces this
    function's answer from its stored closed forms without running the
    grid search; an inapplicable or losing plan records a fallback and
    the numeric search below runs unchanged.  Plans model the default
    ``theorem4`` scoring only.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    uisets = _as_uisets(accesses_or_sets)
    l = space.depth
    extents = space.extents.astype(float)
    volume = float(space.volume) / float(processors)
    if processors < 1 or processors > space.volume:
        raise OptimizationError(
            f"cannot split {space.volume} iterations over {processors} processors"
        )
    if cache is None:
        cache = LatticeCountCache()
    if plan_cache is not None and scoring == "theorem4":
        from .plan import plan_optimize

        planned = plan_optimize(uisets, space, processors, cache=plan_cache)
        if planned is not None:
            return planned
    try:
        a = rect_cost_coefficients(uisets, l)
    except OptimizationError:
        # Some class has no Theorem-4 coefficients (dependent rows after
        # column reduction).  The grid search below still scores such
        # classes exactly; they just cannot steer the continuous seed, so
        # sum the coefficients of the classes that have them.
        logger.warning(
            "rectangular seed: a class has no Theorem-4 coefficients; "
            "seeding the grid search from the remaining classes"
        )
        a = np.zeros(l, dtype=float)
        for s in uisets:
            if s.size == 1 or not np.any(s.spread()):
                continue
            try:
                a += spread_coefficients(s)
            except SingularMatrixError:
                continue
    if not np.any(a):
        # No partition-sensitive traffic at all: any load-balanced tile is
        # optimal; pick the most compact grid.
        a = np.ones(l)
    cont = _continuous_lagrange(np.where(a > 0, a, 0.0), extents.astype(np.int64), volume)

    # Grid-invariant per-class quantities, computed once.  The scoring
    # loop visits every factorisation of P; re-deriving the exact rational
    # spread solve and the kernel basis per candidate dominated its cost.
    spread_u: list[np.ndarray | None] = []
    kernels: list[np.ndarray] = []
    for s in uisets:
        try:
            spread_u.append(spread_coefficients(s))
        except SingularMatrixError:
            spread_u.append(None)
        kernels.append(integer_kernel_basis(s.g))

    best_key: tuple[float, float, tuple[int, ...]] | None = None
    best_tile: RectangularTile | None = None
    best_grid: tuple[int, ...] | None = None
    ints = space.extents
    feasible = [
        grid
        for grid in factorizations(processors, l)
        if not any(p > n for p, n in zip(grid, ints))
    ]
    with _span(
        "optimize.rectangular.grid_search", processors=processors, workers=workers
    ):
        if workers == 1 or len(feasible) < 2 * workers:
            scores = [
                _score_candidate(
                    uisets,
                    spread_u,
                    kernels,
                    _candidate_tile(ints, grid),
                    grid,
                    scoring,
                    cache,
                )
                for grid in feasible
            ]
        else:
            scores = _parallel_scores(
                uisets, spread_u, kernels, ints, feasible, scoring, cache, workers
            )
        for grid, c in zip(feasible, scores):
            tile = _candidate_tile(ints, grid)
            # Deterministic tie-break: prefer grids closest to the continuous
            # optimum (ratio distance), then lexicographic.
            dist = sum(
                abs(math.log(sd / cs)) for sd, cs in zip(tile.sides, cont) if cs > 0
            )
            key = (c, dist, grid)
            if best_key is None or key < best_key:
                best_key, best_tile, best_grid = key, tile, grid
    if best_key is None or best_tile is None or best_grid is None:
        raise OptimizationError(
            f"no feasible processor grid: P={processors}, extents={ints.tolist()}"
        )
    return RectOptResult(
        tile=best_tile,
        grid=best_grid,
        predicted_cost=best_key[0],
        continuous_sides=cont,
        coefficients=a,
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


def _theorem2_objective(uisets: list[UISet], l_flat: np.ndarray, l_dim: int) -> float:
    """One-off Theorem 2 objective (compiles a fresh :class:`Theorem2Objective`)."""
    return Theorem2Objective(uisets, l_dim)(l_flat)


#: Portfolio members in deterministic merge-priority order: on objective
#: ties the earlier name wins, and the implicit rectangular baseline
#: always outranks both (so a member that merely matches the diagonal
#: never displaces it).
PORTFOLIO_MEMBERS = ("slsqp", "anneal")


def _slsqp_starts(
    uisets: list[UISet],
    l: int,
    v: float,
    sides: np.ndarray,
    *,
    seed: int,
    extra_starts: int,
) -> list[np.ndarray]:
    """The deterministic multi-start set of the SLSQP member.

    * the rectangular Lagrange optimum (diagonal L);
    * for each class, a skew start whose first row is aligned with the
      class spread direction mapped back to iteration space (the
      direction that internalises the inter-reference reuse, cf.
      Example 3), plus a strongly-skewed long-thin variant;
    * ``extra_starts`` seeded random perturbations.
    """
    diag_start = np.diag(sides)
    side = float(np.mean(sides))
    starts = [diag_start]
    for s in uisets:
        if s.size < 2 or not np.any(s.spread()):
            continue
        try:
            u = spread_coefficients(s)
        except SingularMatrixError:
            continue
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
    for _ in range(extra_starts):
        starts.append(diag_start + rng.normal(scale=0.3 * side, size=(l, l)))
    return starts


def _slsqp_member(
    uisets: list[UISet],
    objective: Theorem2Objective,
    l: int,
    v: float,
    sides: np.ndarray,
    max_extents: np.ndarray,
    *,
    seed: int,
    extra_starts: int,
    deadline: float | None = None,
) -> tuple[np.ndarray | None, float]:
    """Multi-start SLSQP minimisation of the Theorem 2 objective.

    Returns ``(best_x_matrix, best_f)`` or ``(None, inf)`` when no start
    converged to a point satisfying ``|det L - V|/V < 1e-3``.  With a
    ``deadline`` (``time.monotonic()`` instant), remaining starts are
    skipped once it passes — each start that does run is still complete,
    so results under a budget are a deterministic *prefix* of the
    budget-less run.
    """
    from scipy.optimize import NonlinearConstraint, minimize

    var_bounds = [
        (-float(max_extents[j]), float(max_extents[j]))
        for _i in range(l)
        for j in range(l)
    ]
    starts = _slsqp_starts(uisets, l, v, sides, seed=seed, extra_starts=extra_starts)
    det_con = NonlinearConstraint(
        lambda x: np.linalg.det(x.reshape(l, l)), v, v
    )
    best_x = None
    best_f = np.inf
    with _span("optimize.parallelepiped.minimize", starts=len(starts)):
        for s0 in starts:
            if deadline is not None and time.monotonic() >= deadline:
                break
            # Fix the determinant sign of the start.
            if np.linalg.det(s0) < 0:
                s0 = s0.copy()
                s0[0] = -s0[0]
            try:
                res = minimize(
                    objective,
                    np.clip(s0.ravel(), [b[0] for b in var_bounds], [b[1] for b in var_bounds]),
                    method="SLSQP",
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


def _anneal_member(
    objective: Theorem2Objective,
    l: int,
    v: float,
    sides: np.ndarray,
    max_extents: np.ndarray,
    *,
    seed: int,
    config=None,
    deadline: float | None = None,
) -> tuple[np.ndarray | None, float]:
    """Seeded simulated annealing over ``L`` (see :mod:`repro.core.anneal`)."""
    result = anneal_parallelepiped(
        objective,
        np.diag(sides),
        v,
        max_extents=max_extents,
        seed=seed,
        config=config,
        deadline=deadline,
    )
    if result is None:
        return None, np.inf
    return result.l_matrix, float(result.objective)


def _run_portfolio_member(
    member: str,
    uisets: list[UISet],
    objective: Theorem2Objective,
    l: int,
    v: float,
    sides: np.ndarray,
    max_extents: np.ndarray,
    seed: int,
    extra_starts: int,
    budget_s: float | None,
    anneal_config,
) -> tuple[str, np.ndarray | None, float, float]:
    """Run one portfolio member; module-level so a process pool can pickle it.

    ``objective`` is the caller's compiled Theorem 2 objective; it holds
    only numpy arrays, so it pickles into a pool child with the classes.
    The budget travels as a *duration* (not an absolute deadline): a pool
    child's clock starts when the task does, so each member gets at most
    ``budget_s`` of its own wall time.  Returns
    ``(member, matrix_or_None, objective, elapsed_s)``.
    """
    deadline = time.monotonic() + budget_s if budget_s is not None else None
    t0 = time.perf_counter()
    if member == "slsqp":
        lm, obj = _slsqp_member(
            uisets, objective, l, v, sides, max_extents,
            seed=seed, extra_starts=extra_starts, deadline=deadline,
        )
    elif member == "anneal":
        lm, obj = _anneal_member(
            objective, l, v, sides, max_extents,
            seed=seed, config=anneal_config, deadline=deadline,
        )
    else:  # pragma: no cover - caller validates
        raise ValueError(f"unknown portfolio member {member!r}")
    return member, lm, obj, time.perf_counter() - t0


def optimize_parallelepiped(
    accesses_or_sets,
    volume: float,
    *,
    depth: int | None = None,
    extra_starts: int = 4,
    seed: int = 0,
    max_extents=None,
    members: tuple[str, ...] = PORTFOLIO_MEMBERS,
    budget_s: float | None = None,
    workers: int = 1,
    anneal_config=None,
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
    search — budget-less runs are bit-reproducible.  ``workers > 1``
    fans the members out over a process pool (one task per member;
    results are merged in the same deterministic order as the serial
    path).

    ``max_extents`` bounds each entry of ``L`` (tile edges cannot exceed
    the iteration-space extents — without this, objectives like Example
    3's improve without limit as the skew grows).  Defaults to
    ``3·V^(1/l)`` per dimension.

    Returns the best continuous ``L`` plus an integer rounding, with the
    winning member and per-member objectives/timings recorded on the
    result and in the ``opt.portfolio.*`` metrics.
    """
    uisets = _as_uisets(accesses_or_sets)
    if depth is None:
        depth = uisets[0].g.shape[0]
    l = depth
    v = float(volume)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    unknown = [m for m in members if m not in PORTFOLIO_MEMBERS]
    if unknown:
        raise ValueError(
            f"unknown portfolio member(s) {unknown}; known: {PORTFOLIO_MEMBERS}"
        )
    if budget_s is not None and budget_s <= 0:
        raise ValueError(f"budget_s must be positive, got {budget_s}")
    if max_extents is None:
        max_extents = np.full(l, 3.0 * v ** (1.0 / l))
    else:
        max_extents = np.asarray(max_extents, dtype=float)
    # Compiled once and shared by the baseline, every member and the
    # rounding; raises SingularMatrixError before any member runs.
    objective = Theorem2Objective(uisets, l)

    # Rectangular baseline: the validated Lagrange sides seed every
    # member's start and anchor the reported improvement.
    try:
        a = rect_cost_coefficients(uisets, l)
    except OptimizationError:
        a = np.ones(l)
    if not np.any(a):
        a = np.ones(l)
    # Communication-free dims (a_i = 0) would zero the naive s_i ∝ a_i
    # start; the Lagrange solver widens them to the full extent instead.
    sides = _continuous_lagrange(a, max_extents, v)
    diag_start = np.diag(sides)
    rect_obj = objective(diag_start.ravel())

    # Run the members — in parallel (one pool task each) or serially in
    # the declared order, each under its own wall-time budget.
    ordered = [m for m in PORTFOLIO_MEMBERS if m in members]
    outcomes: dict[str, tuple[np.ndarray | None, float, float]] = {}
    with _span(
        "optimize.portfolio", members=len(ordered), workers=workers
    ):
        if workers > 1 and len(ordered) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(workers, len(ordered))) as pool:
                futures = [
                    pool.submit(
                        _run_portfolio_member,
                        m, uisets, objective, l, v, sides, max_extents,
                        seed, extra_starts, budget_s, anneal_config,
                    )
                    for m in ordered
                ]
                for future in futures:
                    name, lm, obj, elapsed = future.result()
                    outcomes[name] = (lm, obj, elapsed)
        else:
            for m in ordered:
                name, lm, obj, elapsed = _run_portfolio_member(
                    m, uisets, objective, l, v, sides, max_extents,
                    seed, extra_starts, budget_s, anneal_config,
                )
                outcomes[name] = (lm, obj, elapsed)

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
            int(elapsed * 1000)
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
    uisets: list[UISet] | None = None,
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
    is given, keep ``|det L|`` within ``tol·V`` of ``V``; among those the
    Theorem-2 objective decides (entry distance to ``lm`` breaks ties,
    and stands in for the objective when no classes are supplied).
    ``objective`` is a compiled objective to score with; ``uisets``
    compiles one.
    Raises :class:`OptimizationError` only when no neighbour satisfies
    the volume tolerance.
    """
    l = lm.shape[0]
    if objective is None and uisets:
        objective = Theorem2Objective(uisets, l)
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
        det = abs(float(np.linalg.det(cand.astype(float))))
        if det < 0.5:
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
    uisets = _as_uisets(accesses_or_sets)
    rows: list[np.ndarray] = []
    for s in uisets:
        rows.extend(integer_kernel_basis(s.g))
        offs = s.offsets
        for r_i, s_i in combinations(range(s.size), 2):
            x0 = solve_integer(s.g, offs[s_i] - offs[r_i])
            if x0 is not None and np.any(x0):
                rows.append(x0)
    if not rows:
        depth = uisets[0].g.shape[0] if uisets else 0
        return np.empty((0, depth), dtype=np.int64)
    return np.vstack(rows)


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
    c = sharing_directions(_as_uisets(accesses_or_sets))
    if c.shape[0] == 0:
        # Everything is private per iteration: every direction is free.
        return np.eye(depth, dtype=np.int64)
    # h must satisfy c · hᵀ = 0  ⇔  h ∈ integer kernel of cᵀ (as rows act
    # from the left): x·(cᵀ) = 0.
    return integer_kernel_basis(c.T)
