"""Top-level loop partitioning driver (the compiler pass of Section 4).

:class:`LoopPartitioner` glues the pipeline together:

1. classify the body references into uniformly intersecting sets;
2. detect communication-free hyperplane directions (R&S subsumption);
3. optimise the tile shape — rectangular closed form by default (the
   Alewife implementation's scope), general hyperparallelepipeds on
   request;
4. report predictions alongside the partition so callers (codegen,
   simulator, benchmarks) can check them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import OptimizationError, PartitionError, SingularMatrixError
from ..obs.log import get_logger
from ..obs.tracing import span
from .classify import UISet, partition_references
from .cost import TrafficEstimate, estimate_traffic
from .loopnest import LoopNest
from .optimize import (
    ParallelepipedOptResult,
    RectOptResult,
    communication_free_partition,
    optimize_parallelepiped,
    optimize_rectangular,
    sharing_directions,
)
from .tiles import ParallelepipedTile, RectangularTile, Tiling

__all__ = ["PartitionResult", "LoopPartitioner"]

logger = get_logger("core.partitioner")


@dataclass(frozen=True)
class PartitionResult:
    """A chosen loop partition plus the analysis that produced it.

    Attributes
    ----------
    tile:
        The tile at the origin (Definition 2) — rectangular unless the
        general optimizer was requested and won.
    grid:
        Processor grid per dimension for rectangular tiles (``None`` for
        parallelepipeds).
    uisets:
        The uniformly intersecting classes of the body.
    comm_free_basis:
        Integer normals of communication-free hyperplane families
        (possibly empty) — nonempty reproduces Ramanujam & Sadayappan.
    estimate:
        Predicted per-tile traffic for the chosen tile.
    method:
        Which optimizer produced the tile.
    """

    tile: ParallelepipedTile
    grid: tuple[int, ...] | None
    uisets: tuple[UISet, ...]
    comm_free_basis: np.ndarray
    sharing: np.ndarray
    estimate: TrafficEstimate
    method: str
    rect_result: RectOptResult | None = None
    pepiped_result: ParallelepipedOptResult | None = None

    @property
    def is_communication_free(self) -> bool:
        """True when no array element is touched from two different tiles.

        A sharing direction ``d`` crosses tile boundaries iff some cutting
        dimension separates iterations ``i`` and ``i + d``.  For
        rectangular grids, dimension ``k`` cuts iff ``grid[k] > 1``, so the
        partition is communication-free exactly when every sharing
        direction is zero on all cut dimensions.  (The dilation terms of
        :attr:`estimate` are an interior-tile proxy and over-report for
        strip partitions spanning a whole dimension — e.g. Example 2's
        partition (a).)
        """
        if self.sharing.shape[0] == 0:
            return True
        if self.grid is not None:
            cut = [k for k, p in enumerate(self.grid) if p > 1]
            return bool(np.all(self.sharing[:, cut] == 0))
        # General parallelepiped: every direction is cut; free only if the
        # sharing rows are all zero (handled above).
        return False


class LoopPartitioner:
    """Partition a :class:`LoopNest` for ``processors`` processors.

    Parameters
    ----------
    nest:
        The loop nest to partition.
    processors:
        Number of equal-size tiles to produce (``P``).

    Examples
    --------
    >>> from repro.core import LoopNest
    >>> nest = LoopNest.from_subscripts(
    ...     {"i": (1, 32), "j": (1, 32)},
    ...     [("A", [{"i": 1}, {"j": 1}], "write"),
    ...      ("B", [{"i": 1, "": -1}, {"j": 1}], "read"),
    ...      ("B", [{"i": 1, "": 1}, {"j": 1}], "read")],
    ... )
    >>> result = LoopPartitioner(nest, processors=16).partition()
    >>> result.tile.sides.tolist()   # all spread is along i
    [2, 32]
    """

    def __init__(self, nest: LoopNest, processors: int):
        if processors < 1:
            raise PartitionError(f"need at least 1 processor, got {processors}")
        self.nest = nest
        self.processors = int(processors)
        with span("partition.classify", references=len(nest.accesses)):
            self.uisets = tuple(partition_references(nest.accesses))

    # ------------------------------------------------------------------
    def comm_free_basis(self) -> np.ndarray:
        """Communication-free hyperplane normals for this nest."""
        return communication_free_partition(list(self.uisets), self.nest.depth)

    def partition(
        self,
        *,
        method: str = "rectangular",
        scoring: str = "theorem4",
        cache=None,
        opt_budget_s: float | None = None,
    ) -> PartitionResult:
        """Compute the partition.

        ``method``:

        * ``'rectangular'`` — closed-form + grid search (the implemented
          Alewife subset; Section 4).
        * ``'parallelepiped'`` — general Theorem 2 minimisation.
        * ``'auto'`` — run both, keep the better *exact* predicted cost.

        ``cache`` is an optional shared
        :class:`~repro.lattice.points.LatticeCountCache` for the grid
        search's exact enumerations (the request pipeline passes the
        process's default cache).
        ``opt_budget_s`` caps each parallelepiped portfolio member's
        wall time (the ``--opt-budget`` knob).
        """
        if method not in ("rectangular", "parallelepiped", "auto"):
            raise PartitionError(f"unknown method {method!r}")
        space = self.nest.space
        with span("partition.comm_free"):
            basis = self.comm_free_basis()
        rect_res = None
        pe_res = None
        candidates: list[tuple[str, ParallelepipedTile, tuple[int, ...] | None]] = []

        if method in ("rectangular", "auto"):
            with span("optimize.rectangular", processors=self.processors):
                rect_res = optimize_rectangular(
                    list(self.uisets),
                    space,
                    self.processors,
                    scoring=scoring,
                    cache=cache,
                )
            candidates.append(("rectangular", rect_res.tile, rect_res.grid))
        if method in ("parallelepiped", "auto"):
            volume = space.volume / self.processors
            try:
                with span("optimize.parallelepiped", processors=self.processors):
                    pe_res = optimize_parallelepiped(
                        list(self.uisets),
                        volume,
                        depth=self.nest.depth,
                        max_extents=space.extents,
                        budget_s=opt_budget_s,
                    )
                candidates.append(("parallelepiped", pe_res.tile, None))
            except (OptimizationError, SingularMatrixError) as e:
                # Under 'auto' the rectangular candidate stands alone when
                # Theorem 2 has no tile to offer (no feasible rounding, or
                # a class whose reduced G has dependent rows).
                if method == "parallelepiped":
                    raise
                logger.debug("auto: keeping the rectangular tile: %s", e)
        # Each candidate's exact estimate is computed once and the
        # winner's is returned; on ties the first (rectangular) wins.  The
        # rectangular estimate reuses the exact counts its grid search
        # already made for the chosen tile.
        scored = []
        for name, tile, grid in candidates:
            known = rect_res.exact_footprints if name == "rectangular" else ()
            with span("partition.estimate", method=name):
                estimate = estimate_traffic(
                    list(self.uisets), tile, method="exact", exact_footprints=known
                )
            scored.append((estimate, name, tile, grid))
        estimate, chosen_method, tile, grid = min(scored, key=lambda t: t[0].cold_misses)
        logger.debug(
            "chose %s tile (predicted %.1f misses/tile) among %d candidates",
            chosen_method,
            estimate.cold_misses,
            len(scored),
        )
        return PartitionResult(
            tile=tile,
            grid=grid,
            uisets=self.uisets,
            comm_free_basis=basis,
            sharing=sharing_directions(list(self.uisets)),
            estimate=estimate,
            method=chosen_method,
            rect_result=rect_res,
            pepiped_result=pe_res,
        )

    def tiling(self, result: PartitionResult) -> Tiling:
        """The concrete tiling of the nest's iteration space."""
        return Tiling(self.nest.space, result.tile)
