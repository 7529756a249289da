"""Simulated annealing over hyperparallelepiped tile matrices.

The SLSQP path of :func:`repro.core.optimize.optimize_parallelepiped`
minimises the Theorem 2 objective with a smooth constrained solver, and
at depth ≥ 3 every deterministic start can fail — the determinant
constraint surface ``det L = V`` is highly non-convex, and SLSQP's QP
subproblems go singular near it.  This module is the robust second
member of the optimizer *portfolio*: a seeded simulated-annealing search
over the flattened ``L`` matrix that needs no gradients and no
constraint Jacobians, only the objective and a projection back onto the
volume constraint.

Move set (modeled on the Hub tile-shape optimizer's
energy/temperature/clamped-perturbation loop, adapted from integer tile
sides to a full ``L`` matrix):

* **perturb** — add Gaussian noise (scale ``step_scale·V^(1/l)``, cooled
  with the temperature) to 1..l randomly chosen entries of ``L``, then
  clamp every entry into ``[-max_extent_j, +max_extent_j]``;
* **project** — rescale all rows uniformly by ``(V/|det L|)^(1/l)`` so
  the proposal lands back on ``|det L| = V`` (a row rescale preserves
  the tile's *shape*, which is what the objective scores); clamp and
  re-project up to a few rounds, rejecting proposals that cannot satisfy
  both the bounds and the volume constraint;
* **accept** — Metropolis: always downhill, uphill with probability
  ``exp(-Δf/T)`` on a deterministic geometric cooling schedule
  ``T_t = T0·cooling^t`` with ``T0`` scaled to the start objective.

Determinism: given the same inputs, seed, and config, the search is a
pure function — ``numpy.random.default_rng(seed)`` drives every draw,
restarts are seeded in a fixed order, and there is no wall-clock
dependence unless an explicit ``deadline`` is supplied (the time-budget
escape hatch checks the clock every few iterations and stops early; runs
without a deadline are bit-reproducible).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..obs.tracing import span as _span

__all__ = ["AnnealConfig", "AnnealResult", "anneal_parallelepiped", "project_det"]


@dataclass(frozen=True)
class AnnealConfig:
    """Tunables of one annealing run (all deterministic given a seed)."""

    iterations: int = 400  # Metropolis steps per restart
    restarts: int = 2  # independent restarts, seeded 0..restarts-1
    initial_temperature: float = 0.08  # T0 as a fraction of the start objective
    cooling: float = 0.985  # geometric schedule T_{t+1} = cooling * T_t
    step_scale: float = 0.30  # perturbation sigma as a fraction of V^(1/l)
    deadline_check_every: int = 32  # clock checks (only with a deadline)

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not (0.0 < self.cooling < 1.0):
            raise ValueError(f"cooling must be in (0, 1), got {self.cooling}")


@dataclass(frozen=True)
class AnnealResult:
    """Best matrix found plus the search's bookkeeping.

    ``objective`` is the Theorem-2 cumulative footprint at ``l_matrix``
    (continuous, pre-rounding); ``evaluations`` counts objective calls,
    ``accepted`` Metropolis acceptances, and ``truncated`` is True when a
    deadline cut the schedule short (never for budget-less runs).
    """

    l_matrix: np.ndarray
    objective: float
    evaluations: int
    accepted: int
    restarts: int
    truncated: bool = False


def project_det(lm: np.ndarray, volume: float) -> np.ndarray | None:
    """Rescale all rows of ``lm`` uniformly so ``|det L| = volume``.

    Returns ``None`` when ``lm`` is numerically singular (no finite
    rescale reaches the volume).  Row rescaling preserves the directions
    of the tile's edge vectors — only their lengths change — so a
    proposal keeps its shape through the projection.
    """
    l = lm.shape[0]
    det = abs(float(np.linalg.det(lm)))
    if not math.isfinite(det) or det < 1e-12:
        return None
    return lm * (volume / det) ** (1.0 / l)


@dataclass(frozen=True)
class _Box:
    """The entry bounds of one annealing run, derived once from
    ``max_extents``: the clamp interval, the 1e-6 slack that counts as
    inside, and the 5% overshoot still accepted after the last round."""

    lo: np.ndarray
    hi: np.ndarray
    slack: np.ndarray
    overshoot: np.ndarray

    @classmethod
    def of(cls, max_extents: np.ndarray) -> "_Box":
        return cls(-max_extents, max_extents, max_extents * (1.0 + 1e-6),
                   max_extents * 1.05)


def _clamped_project(
    lm: np.ndarray, volume: float, box: _Box, *, rounds: int = 3
) -> np.ndarray | None:
    """Alternate clamping into the per-column bounds and re-projecting.

    The two constraint sets (entry box, volume surface) are not jointly
    convex; a few alternating rounds either land inside both (within a
    small slack on the box — the volume constraint is the hard one) or
    the proposal is rejected.
    """
    cur = lm
    for _ in range(rounds):
        cur = np.minimum(np.maximum(cur, box.lo), box.hi)
        cur = project_det(cur, volume)
        if cur is None:
            return None
        if (np.abs(cur) <= box.slack).all():
            return cur
    # Accept a mild overshoot (projection can push a clamped entry back
    # out); anything worse means the volume cannot fit in the box along
    # this shape — reject.
    if (np.abs(cur) <= box.overshoot).all():
        return cur
    return None


def anneal_parallelepiped(
    objective,
    start: np.ndarray,
    volume: float,
    *,
    max_extents: np.ndarray,
    seed: int = 0,
    config: AnnealConfig | None = None,
    deadline: float | None = None,
) -> AnnealResult | None:
    """Anneal ``L`` to minimise ``objective(l_flat)`` at ``|det L| = V``.

    ``objective`` is called with the flattened matrix (the signature of
    a compiled :class:`~repro.core.cumulative.Theorem2Objective`).
    ``start`` seeds restart 0 verbatim; later restarts perturb it.
    ``deadline`` is an absolute
    ``time.monotonic()`` instant; when given, the loop polls the clock
    every ``config.deadline_check_every`` steps and stops early (the only
    nondeterministic mode — see the module docstring).

    Returns ``None`` only when no feasible projected start exists at all.
    """
    config = config or AnnealConfig()
    l = start.shape[0]
    v = float(volume)
    box = _Box.of(np.asarray(max_extents, dtype=float))
    sigma0 = config.step_scale * v ** (1.0 / l)

    best_lm: np.ndarray | None = None
    best_f = math.inf
    evaluations = 0
    accepted = 0
    truncated = False

    with _span("optimize.anneal", restarts=config.restarts,
               iterations=config.iterations):
        for restart in range(config.restarts):
            rng = np.random.default_rng(
                np.random.SeedSequence([int(seed), restart])
            )
            lm = start.astype(float)
            if restart:
                lm = lm + rng.normal(scale=0.5 * sigma0, size=(l, l))
            lm = _clamped_project(lm, v, box)
            if lm is None:
                continue
            f = float(objective(lm.ravel()))
            evaluations += 1
            if f < best_f:
                best_f, best_lm = f, lm.copy()
            # T0 tracks the start objective so exp(-Δf/T) sees O(1)
            # exponents regardless of the problem's absolute scale.
            temp = max(config.initial_temperature * abs(f), 1e-12)
            for step in range(config.iterations):
                if (
                    deadline is not None
                    and step % config.deadline_check_every == 0
                    and time.monotonic() >= deadline
                ):
                    truncated = True
                    break
                n_touch = int(rng.integers(1, l + 1))
                idx = rng.choice(l * l, size=n_touch, replace=False)
                prop = lm.copy().ravel()
                cooling_frac = temp / max(
                    config.initial_temperature * abs(f), 1e-12
                )
                prop[idx] += rng.normal(
                    scale=sigma0 * max(cooling_frac, 0.05), size=n_touch
                )
                cand = _clamped_project(prop.reshape(l, l), v, box)
                if cand is None:
                    temp *= config.cooling
                    continue
                cf = float(objective(cand.ravel()))
                evaluations += 1
                if cf < f or rng.random() < math.exp(
                    -min((cf - f) / max(temp, 1e-12), 700.0)
                ):
                    lm, f = cand, cf
                    accepted += 1
                    if f < best_f:
                        best_f, best_lm = f, lm.copy()
                temp *= config.cooling
            if truncated:
                break

    if best_lm is None:
        return None
    return AnnealResult(
        l_matrix=best_lm,
        objective=best_f,
        evaluations=evaluations,
        accepted=accepted,
        restarts=config.restarts,
        truncated=truncated,
    )
