"""Data partitioning for local-memory multicomputers (footnote 2).

The loop-partitioning analysis assumes caches dynamically replicate data,
so a class's traffic is governed by the *spread* ``â`` (max − min of the
offsets): intermediate copies come along for free.  "For data
partitioning, however, the formulation must be modified slightly.
Because data partitioning assumes that data from other memory modules is
not dynamically copied locally ..., we replace the max − min formulation
by the cumulative spread ``a⁺``" whose ``k``-th component is
``Σ_r |a_{r,k} − med_r(a_{r,k})|``.  "The rest of our framework applies
to data partitioning if â is replaced by a⁺."

This module implements exactly that substitution:

* :func:`data_cost_coefficients` — per-loop-dimension coefficients using
  ``a⁺`` (each class's ``u⁺`` solves ``a⁺ = u⁺·G``);
* :func:`optimize_rectangular_data` — the Lagrange + grid search of
  :func:`repro.core.optimize.optimize_rectangular` under the data
  objective;
* :func:`median_reference` — the class member the data tile should align
  with (the median offsets minimise the total remote volume).

``â`` and ``a⁺`` coincide for classes of ≤ 3 references (the median
absorbs the middle member), so the paper's examples do not distinguish
them; classes with ≥ 4 spread-out references do — see
``benchmarks/test_e15_ablations.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import exact_solve, int_rank
from ..exceptions import OptimizationError, SingularMatrixError
from .classify import UISet, as_uisets
from .loopnest import IterationSpace
from .optimize import RectOptResult, _feasible_grids, _lagrange_seed
from .spread import cumulative_spread_vector
from .tiles import RectangularTile

__all__ = [
    "data_spread_coefficients",
    "data_cost_coefficients",
    "optimize_rectangular_data",
    "median_reference",
]


def data_spread_coefficients(uiset: UISet) -> np.ndarray:
    """``u⁺`` with ``a⁺ = u⁺·G′`` (absolute values), cf. Theorem 4.

    Same mechanics as :func:`repro.core.cumulative.spread_coefficients`
    but fed the cumulative spread instead of the max−min spread.
    """
    g, offsets = uiset.reduced
    if int_rank(g) < g.shape[0]:
        raise SingularMatrixError(
            "data spread coefficients require independent rows of G"
        )
    a_plus = cumulative_spread_vector(offsets)
    sol = exact_solve(g, a_plus)
    if sol is None:  # pragma: no cover - a⁺ lies in the row space
        raise SingularMatrixError("cumulative spread not in the row space of G")
    return np.abs(np.array([float(c) for c in sol]))


def data_cost_coefficients(uisets, depth: int) -> np.ndarray:
    """Per-loop-dimension data-partitioning coefficients ``Σ u⁺_i``."""
    a = np.zeros(depth, dtype=float)
    for s in as_uisets(uisets):
        if s.size == 1:
            continue
        if not np.any(cumulative_spread_vector(s.offsets)):
            continue
        try:
            a += data_spread_coefficients(s)
        except SingularMatrixError as e:
            raise OptimizationError(
                f"class {s!r} has no data-spread coefficients: {e}"
            ) from e
    return a


def median_reference(uiset: UISet):
    """The member whose offsets are closest to the per-dimension medians.

    Aligning each array's data tile with this reference minimises the
    total remote access volume of the class (the defining property of the
    ``a⁺`` formulation).
    """
    offs = uiset.offsets.astype(float)
    med = np.median(offs, axis=0)
    dist = np.abs(offs - med).sum(axis=1)
    return uiset.refs[int(np.argmin(dist))]


def optimize_rectangular_data(
    accesses_or_sets,
    space: IterationSpace,
    processors: int,
) -> RectOptResult:
    """Rectangular tile optimization under the data-partitioning objective.

    Identical structure to :func:`repro.core.optimize.optimize_rectangular`
    with ``â → a⁺``: minimise ``Σ_i A⁺_i · V / s_i`` s.t. ``Π s_i = V``,
    then integerise against the same feasible processor grids, scored by
    the same linearised objective (remote volume has no exact cached-union
    to fall back on — every extra copy pays).  Ties go to the
    lexicographically smallest grid.
    """
    uisets = as_uisets(accesses_or_sets)
    l = space.depth
    if processors < 1 or processors > space.volume:
        raise OptimizationError(
            f"cannot split {space.volume} iterations over {processors} processors"
        )
    volume = float(space.volume) / float(processors)
    a, cont = _lagrange_seed(data_cost_coefficients(uisets, l), space.extents, volume)
    grids, sides = _feasible_grids(processors, space.extents)
    if not grids:
        raise OptimizationError(
            f"no feasible processor grid: P={processors}, extents={space.extents.tolist()}"
        )
    sf = sides.astype(float)
    prod = np.prod(sf, axis=1)
    cost = np.zeros(len(grids))
    for i in range(l):
        cost = cost + a[i] * prod / sf[:, i]
    best = min(range(len(grids)), key=lambda k: (cost[k], grids[k]))
    return RectOptResult(
        tile=RectangularTile(sides[best]),
        grid=grids[best],
        predicted_cost=cost[best],
        continuous_sides=cont,
        coefficients=a,
    )
