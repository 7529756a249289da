"""The paper's primary contribution: loop partitioning via data footprints.

Modules
-------
affine
    :class:`AffineRef` — array references ``A[i·G + a]`` (Section 2.1,
    Example 1), zero-column elimination, dependent-column reduction.
loopnest
    :class:`LoopNest` IR — Doall/Doseq nests with affine body references.
classify
    Intersecting / uniformly generated / uniformly intersecting
    classification (Definitions 4-6, Appendix B) and partitioning of a
    loop body into :class:`UISet` classes.
tiles
    Hyperparallelepiped and rectangular iteration-space tiles
    (Definitions 1-2, Propositions 2-3) and tilings of an iteration space.
spread
    Spread vectors: ``â`` (max−min, Definition 8) for caches and ``a⁺``
    (cumulative, footnote 2) for data partitioning.
footprint
    Footprint sizes for a single reference (Section 3.4, Theorems 1 & 5).
cumulative
    Cumulative footprints for uniformly intersecting sets (Section 3.5,
    Theorems 2 & 4, Lemma 3) with exact and paper-approximate paths.
optimize
    Tile-shape optimization (Section 3.6): closed-form Lagrange solution
    for rectangular tiles, nonlinear search for parallelepipeds,
    communication-free hyperplane detection.
partitioner
    Top-level driver: loop nest + machine size → partition + predictions.
cost
    Traffic/cost model shared by the optimizer and the benchmarks.
"""

from .affine import AffineRef, AccessKind, ArrayAccess
from .loopnest import Loop, LoopNest, IterationSpace
from .classify import (
    references_intersect,
    uniformly_generated,
    uniformly_intersecting,
    UISet,
    partition_references,
)
from .tiles import RectangularTile, ParallelepipedTile, Tiling
from .spread import spread_vector, cumulative_spread_vector
from .footprint import footprint_size, footprint_size_exact, footprint_det_size
from .cumulative import (
    cumulative_line_footprint_exact,
    cumulative_footprint_size,
    cumulative_footprint_size_exact,
    cumulative_footprint_rect,
    loop_footprint_size,
)
from .optimize import (
    optimize_rectangular,
    optimize_parallelepiped,
    communication_free_partition,
    factorizations,
)
from .datapart import (
    data_cost_coefficients,
    data_spread_coefficients,
    median_reference,
    optimize_rectangular_data,
)
from .symbolic import (
    RectFootprintPolynomial,
    class_polynomial,
    loop_polynomial,
)
from .partitioner import LoopPartitioner, PartitionResult
from .cost import TrafficEstimate, estimate_traffic

__all__ = [
    "AffineRef",
    "AccessKind",
    "ArrayAccess",
    "Loop",
    "LoopNest",
    "IterationSpace",
    "references_intersect",
    "uniformly_generated",
    "uniformly_intersecting",
    "UISet",
    "partition_references",
    "RectangularTile",
    "ParallelepipedTile",
    "Tiling",
    "spread_vector",
    "cumulative_spread_vector",
    "footprint_size",
    "footprint_size_exact",
    "footprint_det_size",
    "cumulative_footprint_size",
    "cumulative_footprint_size_exact",
    "cumulative_footprint_rect",
    "cumulative_line_footprint_exact",
    "loop_footprint_size",
    "optimize_rectangular",
    "optimize_parallelepiped",
    "communication_free_partition",
    "factorizations",
    "data_cost_coefficients",
    "data_spread_coefficients",
    "median_reference",
    "optimize_rectangular_data",
    "RectFootprintPolynomial",
    "class_polynomial",
    "loop_polynomial",
    "LoopPartitioner",
    "PartitionResult",
    "TrafficEstimate",
    "estimate_traffic",
]
