"""Scalar reference implementations of the vectorized lattice kernels.

These are the original per-point and per-cell loops of
:func:`repro.lattice.points.parallelepiped_lattice_points` and
:func:`repro.lattice.points.union_of_boxes_size`, and the double loop
behind the parallelepiped's corner points.  Only tests and
benchmarks call them: ``tests/test_kernels_vectorized.py`` asserts that
each vectorized kernel bit-matches its oracle on fuzzed inputs, and
``benchmarks/test_e21_analytic_speed.py`` times both.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro._util import as_int_matrix, as_int_vector, box_points_array, box_volume
from repro.lattice.points import (
    _in_parallelepiped_mask,
    _pick_parallelogram,
    _union_axes,
)

__all__ = ["parallelepiped_lattice_points_scalar", "union_of_boxes_size_scalar"]

#: The scalar oracle materialises the whole bounding box, so it keeps the
#: historical 5M-point cap.
_PARALLELEPIPED_SCALAR_CAP = 5_000_000


def _corner_points_scalar(q: np.ndarray) -> np.ndarray:
    """Scalar oracle for :func:`repro.lattice.points._corner_points`
    (original double loop)."""
    m = q.shape[0]
    n = q.shape[1]
    corners = np.zeros((1 << m, n), dtype=np.int64)
    for mask in range(1 << m):
        s = np.zeros(n, dtype=np.int64)
        for i in range(m):
            if mask >> i & 1:
                s = s + q[i]
        corners[mask] = s
    return corners


def parallelepiped_lattice_points_scalar(q) -> int:
    """Scalar oracle for :func:`parallelepiped_lattice_points`.

    The original implementation: materialise the whole bounding box
    (capped at 5M points), solve for membership coefficients with float
    least squares, and re-verify borderline points exactly with
    ``fractions``.  Kept as the differential reference for the chunked
    exact-integer path.
    """
    q = as_int_matrix(q, name="Q")
    m, n = q.shape
    if m == 2 and n == 2:
        return _pick_parallelogram(q)
    corners = _corner_points_scalar(q)
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    if box_volume(lo, hi) > _PARALLELEPIPED_SCALAR_CAP:
        raise ValueError("parallelepiped too large for exact enumeration")
    pts = box_points_array(lo, hi)
    mask = _in_parallelepiped_mask(q, pts)
    return int(mask.sum())


def union_of_boxes_size_scalar(offsets, extents) -> int:
    """Scalar oracle for :func:`union_of_boxes_size` (per-cell loop)."""
    offsets = as_int_matrix(np.atleast_2d(offsets), name="offsets")
    extents = as_int_vector(extents, name="extents")
    r, l = offsets.shape
    if extents.shape[0] != l:
        raise ValueError("extents length must match offset dimension")
    if np.any(extents < 0):
        return 0
    if r == 1:
        return int(np.prod((extents + 1).astype(object)))
    starts, widths = _union_axes(offsets, extents)
    total = 0
    cell_ranges = [range(len(s)) for s in starts]
    for cell in itertools.product(*cell_ranges):
        point = np.array([starts[k][cell[k]] for k in range(l)], dtype=np.int64)
        covered = np.any(
            np.all((offsets <= point) & (point <= offsets + extents), axis=1)
        )
        if covered:
            vol = 1
            for k in range(l):
                vol *= int(widths[k][cell[k]])
            total += vol
    return total
