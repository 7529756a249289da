"""Integer-lattice toolkit (substrate S1).

The paper's exact footprint machinery (Section 3.7, Theorems 3-5, Lemma 3)
rests on computations over integer lattices:

* :mod:`repro.lattice.hnf` — Hermite normal form with unimodular transform,
  used for lattice membership and the onto test of Lemma 2.
* :mod:`repro.lattice.snf` — Smith normal form, used to count lattice index
  (``[Z^d : L]``) and solve integer linear systems.
* :mod:`repro.lattice.unimodular` — unimodularity tests, gcd of maximal
  minors, maximal-independent-column selection (Section 3.4.1).
* :mod:`repro.lattice.lattice` — :class:`Lattice` and
  :class:`BoundedLattice` with the Theorem 3 intersection test and the
  Lemma 3 union size.
* :mod:`repro.lattice.points` — exact integer-point counting: images of
  boxes under affine maps (the footprint oracle), parallelepiped lattice
  point counts via Pick's theorem in 2-D, boundary point counts.
* :mod:`repro.lattice.memo` — the one memo store behind the analytic
  caches, and the list of process-default caches.
"""

from .hnf import hermite_normal_form, row_style_hnf
from .snf import smith_normal_form, solve_integer
from .unimodular import (
    is_unimodular,
    is_onto,
    is_one_to_one,
    maximal_independent_columns,
    select_unimodular_columns,
)
from .lattice import Lattice, BoundedLattice
from .points import (
    DEFAULT_FOOTPRINT_TABLE,
    DEFAULT_LATTICE_CACHE,
    FootprintTable,
    LatticeCountCache,
    box_image_union_size,
    count_distinct_images,
    parallelepiped_lattice_points,
    parallelepiped_lattice_points_scalar,
    parallelogram_boundary_points,
    distinct_values_1d,
    union_of_boxes_size,
    union_of_boxes_size_scalar,
)
from .memo import MemoTable, analytic_cache_stats

__all__ = [
    "hermite_normal_form",
    "row_style_hnf",
    "smith_normal_form",
    "solve_integer",
    "is_unimodular",
    "is_onto",
    "is_one_to_one",
    "maximal_independent_columns",
    "select_unimodular_columns",
    "Lattice",
    "BoundedLattice",
    "box_image_union_size",
    "count_distinct_images",
    "parallelepiped_lattice_points",
    "parallelepiped_lattice_points_scalar",
    "parallelogram_boundary_points",
    "union_of_boxes_size",
    "union_of_boxes_size_scalar",
    "distinct_values_1d",
    "analytic_cache_stats",
    "MemoTable",
    "FootprintTable",
    "DEFAULT_FOOTPRINT_TABLE",
    "LatticeCountCache",
    "DEFAULT_LATTICE_CACHE",
]
