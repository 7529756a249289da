"""Traffic cost model assembled from footprints (Sections 3.3, 3.6).

For the cache + uniform-access-memory system of Figure 2:

* **cold misses** per tile = the cumulative footprint ``|F(A)|`` summed
  over arrays (Section 3.3: "The number of cache misses with respect to
  the array A is |F(A)|").
* **coherence / boundary traffic** = the part of the footprint shared with
  other tiles.  For a uniformly intersecting class this is the cumulative
  footprint minus one member footprint — exactly the ``Σ u_i Π_{j≠i}``
  dilation terms that survive when ``|det L|`` is pinned by load balancing
  (the Figure 9 ``Doseq`` argument: the volume term drops out and "the
  optimization process minimizes the volume of coherence traffic").
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import UISet, as_uisets
from .cumulative import (
    cumulative_footprint_rect,
    cumulative_footprint_size,
    cumulative_footprint_size_exact,
)
from .footprint import collapsed_rect_footprint, footprint_size
from .loopnest import LoopNest
from .tiles import ParallelepipedTile, RectangularTile
from ..exceptions import SingularMatrixError

__all__ = ["ClassTraffic", "TrafficEstimate", "estimate_traffic"]


@dataclass(frozen=True)
class ClassTraffic:
    """Predicted per-tile traffic of one uniformly intersecting class."""

    uiset: UISet
    footprint: float
    single_footprint: float

    @property
    def boundary(self) -> float:
        """Data shared with neighbouring tiles (dilation terms)."""
        return max(self.footprint - self.single_footprint, 0.0)


@dataclass(frozen=True)
class TrafficEstimate:
    """Per-tile traffic prediction for a loop partition.

    Attributes
    ----------
    classes:
        Per-class breakdown in classification order.
    tile_iterations:
        Iterations per tile (the load-balance constant).
    """

    classes: tuple[ClassTraffic, ...]
    tile_iterations: float

    @property
    def cold_misses(self) -> float:
        """First-touch misses per tile = total cumulative footprint."""
        return sum(c.footprint for c in self.classes)

    @property
    def coherence_traffic(self) -> float:
        """Per-sweep steady-state traffic (Figure 9 regime)."""
        return sum(c.boundary for c in self.classes)

    def by_array(self) -> dict[str, float]:
        """Cumulative footprint aggregated per array name."""
        out: dict[str, float] = {}
        for c in self.classes:
            out[c.uiset.array] = out.get(c.uiset.array, 0.0) + c.footprint
        return out


def _class_footprint(s: UISet, tile: ParallelepipedTile, method: str) -> float:
    if method == "exact":
        return float(cumulative_footprint_size_exact(s, tile))
    if method == "theorem4":
        if isinstance(tile, RectangularTile):
            try:
                return cumulative_footprint_rect(s, tile)
            except SingularMatrixError:
                return float(cumulative_footprint_size_exact(s, tile))
        method = "theorem2"
    if method == "theorem2":
        try:
            return cumulative_footprint_size(s, tile)
        except SingularMatrixError:
            return float(cumulative_footprint_size_exact(s, tile))
    raise ValueError(f"unknown method {method!r}")


def _single_footprint(s: UISet, tile: ParallelepipedTile) -> float:
    """``footprint_size(s.base_ref(), tile)``, from the class's own facts."""
    if not isinstance(tile, RectangularTile):
        return float(footprint_size(s.base_ref(), tile))
    if s.u is not None:  # G one-to-one: |tile| points (Theorem 5)
        return float(tile.iterations)
    return float(collapsed_rect_footprint(s.reduced[0], tile, rank=s.rank))


def estimate_traffic(
    nest_or_sets,
    tile: ParallelepipedTile,
    *,
    method: str = "exact",
    exact_footprints=(),
) -> TrafficEstimate:
    """Predict per-tile traffic for a partition.

    ``nest_or_sets`` is a :class:`LoopNest` (classified here) or an
    iterable of :class:`UISet`.  ``method`` selects the footprint
    evaluator: ``'exact'`` (default), ``'theorem4'`` (rectangular closed
    form, falling back as the paper prescribes) or ``'theorem2'``
    (determinant approximation).  ``exact_footprints`` holds per class
    an exact footprint already counted for ``tile``, or ``None``
    (:attr:`~repro.core.optimize.RectOptResult.exact_footprints`).
    """
    if isinstance(nest_or_sets, LoopNest):
        nest_or_sets = nest_or_sets.accesses
    known = dict(enumerate(exact_footprints)) if method == "exact" else {}
    classes = []
    for c, s in enumerate(as_uisets(nest_or_sets)):
        fp = known.get(c)
        if fp is None:
            fp = _class_footprint(s, tile, method)
        single = _single_footprint(s, tile)
        classes.append(ClassTraffic(uiset=s, footprint=fp, single_footprint=single))
    if isinstance(tile, RectangularTile):
        iters = float(tile.iterations)
    else:
        iters = float(tile.volume)
    return TrafficEstimate(classes=tuple(classes), tile_iterations=iters)
