"""The grid search's array scoring equals the scalar reference models.

``optimize_rectangular`` scores every processor grid at once: one
Theorem-4 column per class over the ``(grids × l)`` sides array, class
facts (rank, ``G′``, ``u``, lattice cosets) derived once on the
:class:`~repro.core.classify.UISet`, and no per-grid tile.  These tests
pin that to the scalar models, with ``==`` on floats, over the check
corpus and generated cases 0–199 of seed 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro._util import exact_solve, int_rank
from repro.check.corpus import load_corpus, spec_from_dict
from repro.check.generator import generate_case
from repro.core.classify import partition_references
from repro.core.cost import _single_footprint
from repro.core.cumulative import (
    cumulative_footprint_rect,
    cumulative_footprint_size_exact,
    theorem4_columns,
)
from repro.core.footprint import footprint_size
from repro.core.optimize import _feasible_grids, optimize_rectangular
from repro.core.tiles import ParallelepipedTile, RectangularTile
from repro.lang import compile_nest
from repro.lattice.lattice import BoundedLattice

CORPUS = Path(__file__).parent / "data" / "check_corpus.json"


@lru_cache(maxsize=1)
def _cases() -> tuple:
    """``(label, nest, uisets, processors, grids, sides)`` per case."""
    specs = [("corpus", spec_from_dict(e["spec"])) for e in load_corpus(CORPUS)]
    specs += [("seed0", generate_case(i, seed=0)) for i in range(200)]
    out = []
    for label, spec in specs:
        nest = compile_nest(spec.source())
        grids, sides = _feasible_grids(spec.processors, nest.space.extents)
        out.append(
            (f"{label}-{spec.case_id}", nest, partition_references(nest.accesses),
             spec.processors, grids, sides)
        )
    return tuple(out)


# -- the per-grid loop as it was: the reference optimize_rectangular keeps --


def _old_continuous_lagrange(a, extents, volume):
    l = len(a)
    s = np.zeros(l, dtype=float)
    free = list(range(l))
    vol = float(volume)
    for i in sorted(free, key=lambda k: a[k]):
        if a[i] == 0 and len(free) > 1:
            s[i] = min(float(extents[i]), vol)
            vol = max(vol / s[i], 1.0)
            free.remove(i)
    for _ in range(l + 1):
        if not free:
            break
        aa = a[free]
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
    for i in range(l):
        if s[i] == 0:
            s[i] = 1.0
    return s


def _old_optimize_rectangular(uisets, space, processors, scoring):
    l = space.depth
    volume = float(space.volume) / float(processors)
    a = np.zeros(l, dtype=float)
    for s in uisets:
        if s.size > 1 and s.u is not None and np.any(s.spread()):
            a += s.u
    if not np.any(a):
        a = np.ones(len(a))
    cont = _old_continuous_lagrange(np.where(a > 0, a, 0.0), space.extents, volume)
    grids, sides = _feasible_grids(processors, space.extents)
    fps = np.empty((len(grids), len(uisets)))
    for g, row in enumerate(sides):
        tile = RectangularTile(row)
        for c, s in enumerate(uisets):
            if scoring == "exact" or s.u is None:
                fps[g, c] = float(cumulative_footprint_size_exact(s, tile))
            else:
                fps[g, c] = cumulative_footprint_rect(s, tile)
    p = np.asarray(grids, dtype=np.int64)
    total = np.zeros(len(grids), dtype=float)
    for c, s in enumerate(uisets):
        total = total + fps[:, c]
        if s.has_write() and s.kernel.size:
            mask = np.any(s.kernel != 0, axis=0)
            m = np.prod(np.where((p > 1) & mask[None, :], p, 1), axis=1).astype(float)
            total = total + (m - 1.0) * fps[:, c]

    def key(idx):
        dist = sum(
            abs(math.log(sd / cs)) for sd, cs in zip(sides[idx].tolist(), cont) if cs > 0
        )
        return float(total[idx]), dist, grids[idx]

    best = min(range(len(grids)), key=key)
    return sides[best].tolist(), grids[best], float(total[best]), cont


# ---------------------------------------------------------------------------


def test_cases_cover_both_scorers():
    """The case list exercises Theorem-4 classes and dependent-row classes."""
    classes = [s for case in _cases() for s in case[2]]
    assert len(_cases()) == len(load_corpus(CORPUS)) + 200
    assert any(s.u is not None and s.size > 1 for s in classes)
    assert any(s.u is None for s in classes)


def test_theorem4_columns_equal_scalar():
    checked = 0
    for label, _nest, uisets, _p, _grids, sides in _cases():
        t4 = [s for s in uisets if s.u is not None]
        if not t4 or not len(sides):
            continue
        cols = theorem4_columns([s.u for s in t4], sides)
        assert cols.shape == (len(sides), len(t4))
        for g, row in enumerate(sides):
            tile = RectangularTile(row)
            for c, s in enumerate(t4):
                assert cols[g, c] == cumulative_footprint_rect(s, tile), (label, row)
                checked += 1
    assert checked > 400


@pytest.mark.parametrize("scoring", ["theorem4", "exact"])
def test_optimize_rectangular_matches_per_grid_loop(scoring):
    for label, nest, uisets, processors, grids, _sides in _cases():
        if not grids:
            continue
        res = optimize_rectangular(uisets, nest.space, processors, scoring=scoring)
        sides, grid, cost, cont = _old_optimize_rectangular(
            uisets, nest.space, processors, scoring
        )
        assert res.tile.sides.tolist() == sides, label
        assert res.grid == grid, label
        assert res.predicted_cost == cost, label
        assert np.array_equal(res.continuous_sides, cont), label
        # The exact counts handed to the estimate are the tile's.
        for s, known in zip(uisets, res.exact_footprints):
            if scoring == "exact" or s.u is None:
                assert known == float(cumulative_footprint_size_exact(s, res.tile)), label
            else:
                assert known is None, label


def test_single_footprint_shortcut_equals_footprint_size():
    for label, _nest, uisets, _p, _grids, sides in _cases():
        for row in sides:
            tile = RectangularTile(row)
            for s in uisets:
                got = _single_footprint(s, tile)
                assert got == float(footprint_size(s.base_ref(), tile)), (label, row)


def test_coset_union_equals_bounded_lattice_union():
    """The exact union over the class's cosets is Lemma 3's
    generalisation as :class:`BoundedLattice` counts it."""
    for label, _nest, uisets, _p, _grids, sides in _cases():
        for s in uisets:
            if s.u is None:
                continue
            g, offsets = s.reduced
            for row in sides[:3]:
                tile = RectangularTile(row)
                ref = BoundedLattice(g, tile.extents).union_size_many(
                    [o - offsets[0] for o in offsets]
                )
                assert cumulative_footprint_size_exact(s, tile) == ref, (label, row)


def test_rectangular_tile_matrix_and_volume():
    for _label, _nest, _uisets, _p, _grids, sides in _cases():
        for row in sides:
            tile = RectangularTile(row)
            assert np.array_equal(tile.l_matrix, np.diag(row))
            assert tile.volume == math.prod(row.tolist()) == tile.iterations
            assert tile.volume == ParallelepipedTile(np.diag(row)).volume
            assert not tile.l_matrix.flags.writeable
            assert not tile.sides.flags.writeable


def test_class_facts_match_reference_derivation():
    """``UISet`` derives rank, ``G′`` and ``u`` from its Smith form; they
    equal the per-reference derivation (Section 3.4.1's reduction of the
    zero-dropped reference, exact rank, rational solve of ``â``)."""
    for label, _nest, uisets, _p, _grids, _sides in _cases():
        for s in uisets:
            base = s.base_ref().drop_zero_columns()
            cols = base.reduced_columns()
            g, offsets = s.reduced
            assert np.array_equal(g, base.reduce_columns(cols).g), label
            for k, ref in enumerate(s.refs):
                assert np.array_equal(
                    offsets[k], ref.drop_zero_columns().reduce_columns(cols).offset
                ), label
            assert s.rank == int_rank(s.g), label
            if int_rank(g) < g.shape[0]:
                assert s.u is None, label
                continue
            sol = exact_solve(g, offsets.max(axis=0) - offsets.min(axis=0))
            assert s.u.tolist() == [abs(float(c)) for c in sol], label
