"""Tests for tile optimization (Section 3.6, Examples 8-10, Example 3)."""

import time

import numpy as np
import pytest

from repro.core.classify import partition_references
from repro.core.loopnest import IterationSpace
from repro.core.optimize import (
    communication_free_partition,
    factorizations,
    optimize_parallelepiped,
    optimize_rectangular,
    rect_cost_coefficients,
)
from repro.core.tiles import RectangularTile
from repro.exceptions import OptimizationError


class TestFactorizations:
    def test_enumerates_all(self):
        f = set(factorizations(12, 2))
        assert f == {(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)}

    def test_three_way(self):
        f = list(factorizations(8, 3))
        assert (2, 2, 2) in f and (1, 1, 8) in f
        assert all(a * b * c == 8 for a, b, c in f)

    def test_one(self):
        assert list(factorizations(1, 2)) == [(1, 1)]

    def test_l_one(self):
        assert list(factorizations(6, 1)) == [(6,)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            list(factorizations(0, 2))

    @pytest.mark.parametrize(
        "p, extents, grids, sides",
        [
            # (3, 2) and (6, 1) would cut i past N=2.
            (6, [2, 6], [(1, 6), (2, 3)], [[2, 1], [1, 2]]),
            # Sides are ⌈N_i / p_i⌉.
            (4, [5, 7], [(1, 4), (2, 2), (4, 1)], [[5, 2], [3, 4], [2, 7]]),
            # No grid at all: (1, 7) and (7, 1) both exceed a 3x3 space.
            (7, [3, 3], [], []),
        ],
    )
    def test_feasible_grids(self, p, extents, grids, sides):
        from repro.core.optimize import _feasible_grids

        got_grids, got_sides = _feasible_grids(p, extents)
        assert got_grids == grids
        assert got_sides.dtype == np.int64
        assert got_sides.tolist() == sides

    def test_no_feasible_grid_raises(self):
        from repro.core.affine import AffineRef

        refs = [
            AffineRef("B", np.eye(2, dtype=int), [0, 0]),
            AffineRef("B", np.eye(2, dtype=int), [1, 0]),
        ]
        space = IterationSpace([1, 1], [3, 3])
        with pytest.raises(OptimizationError, match="no feasible processor grid"):
            optimize_rectangular(partition_references(refs), space, 7)


class TestCoefficients:
    def test_example8(self, example8_nest):
        sets = partition_references(example8_nest.accesses)
        assert rect_cost_coefficients(sets, 3).tolist() == [2.0, 3.0, 4.0]

    def test_example10(self, example10_nest):
        sets = partition_references(example10_nest.accesses)
        assert rect_cost_coefficients(sets, 2).tolist() == [3.0, 2.0]

    def test_example9_paper_erratum(self, example9_nest):
        """The paper's Example 9 simplification says 4L11+6L22; its own
        determinant expressions (and Theorem 4) give 4L11+4L22 — i.e.
        coefficients (|u| summed) of (2+2, 1+3)... both orderings tested
        here against first principles."""
        sets = partition_references(example9_nest.accesses)
        coeffs = rect_cost_coefficients(sets, 2)
        # B: u=(2,1); C: â=(1,3) = -2*(1,0)+3*(1,1) -> |u|=(2,3)
        assert coeffs.tolist() == [4.0, 4.0]

    def test_single_ref_classes_ignored(self):
        from repro.core.affine import AffineRef

        sets = partition_references([AffineRef("A", np.eye(2, dtype=int), [0, 0])])
        assert rect_cost_coefficients(sets, 2).tolist() == [0.0, 0.0]


class TestOptimizeRectangular:
    def test_example8_ratio(self, example8_nest):
        sets = partition_references(example8_nest.accesses)
        res = optimize_rectangular(sets, example8_nest.space, 8)
        c = res.continuous_sides
        assert c[0] / 2 == pytest.approx(c[1] / 3) == pytest.approx(c[2] / 4)
        assert res.grid == (2, 2, 2)  # best integer grid for 24^3 / 8

    def test_example2_strip_wins(self, example2_nest):
        sets = partition_references(example2_nest.accesses)
        res = optimize_rectangular(sets, example2_nest.space, 100)
        assert res.grid == (1, 100)
        assert res.tile.sides.tolist() == [100, 1]
        assert res.predicted_cost == pytest.approx(100 + 104)  # A + B

    def test_example10_ratio(self, example10_nest):
        sets = partition_references(example10_nest.accesses)
        res = optimize_rectangular(sets, example10_nest.space, 6)
        # s_i : s_j = 3 : 2  (2(L_i+1) = 3(L_j+1))
        assert res.grid == (2, 3)
        assert res.tile.sides.tolist() == [18, 12]

    def test_zero_coefficient_dimension_uncut(self):
        """Spread only along i -> never cut j."""
        from repro.core.affine import AffineRef

        refs = [
            AffineRef("B", np.eye(2, dtype=int), [0, 0]),
            AffineRef("B", np.eye(2, dtype=int), [2, 0]),
        ]
        space = IterationSpace([1, 1], [16, 16])
        res = optimize_rectangular(partition_references(refs), space, 4)
        assert res.grid == (1, 4)

    def test_too_many_processors(self, example2_nest):
        sets = partition_references(example2_nest.accesses)
        with pytest.raises(OptimizationError):
            optimize_rectangular(sets, example2_nest.space, 10**6)

    @pytest.mark.parametrize("processors", [0, -2])
    def test_nonpositive_processors_typed(self, example2_nest, processors):
        sets = partition_references(example2_nest.accesses)
        with pytest.raises(OptimizationError, match="cannot split"):
            optimize_rectangular(sets, example2_nest.space, processors)

    def test_exact_scoring(self, example2_nest):
        sets = partition_references(example2_nest.accesses)
        res = optimize_rectangular(sets, example2_nest.space, 100, scoring="exact")
        assert res.grid == (1, 100)

    def test_unknown_scoring_rejected(self, example8_nest):
        """A misspelt scoring is an error, not a silent Theorem-4 run
        (Example 8 at P=8 costs 4752 under theorem4, 4610 exactly)."""
        from repro.lattice.points import LatticeCountCache

        sets = partition_references(example8_nest.accesses)
        cache = LatticeCountCache()
        with pytest.raises(ValueError, match="exct"):
            optimize_rectangular(
                sets, example8_nest.space, 8, scoring="exct", cache=cache
            )
        assert cache.stats()["misses"] == 0
        exact = optimize_rectangular(sets, example8_nest.space, 8, scoring="exact")
        assert exact.predicted_cost == 4610

    def test_no_traffic_any_grid_ok(self):
        from repro.core.affine import AffineRef

        refs = [AffineRef("A", np.eye(2, dtype=int), [0, 0])]
        space = IterationSpace([1, 1], [8, 8])
        res = optimize_rectangular(partition_references(refs), space, 4)
        prod = res.grid[0] * res.grid[1]
        assert prod == 4


class TestOptimizeParallelepiped:
    def test_example3_beats_rectangles(self, example3_nest):
        """Example 3: the skew along â=(1,3) internalises the reuse."""
        sets = partition_references(example3_nest.accesses)
        res = optimize_parallelepiped(sets, volume=36.0 * 36.0 / 4)
        assert res.objective < res.rectangular_objective
        assert res.improvement > 0.05

    def test_volume_constraint_respected(self, example3_nest):
        sets = partition_references(example3_nest.accesses)
        v = 36.0 * 36.0 / 4
        res = optimize_parallelepiped(sets, volume=v)
        assert abs(abs(np.linalg.det(res.l_matrix)) - v) / v < 1e-2

    def test_integer_rounding_nonsingular(self, example3_nest):
        sets = partition_references(example3_nest.accesses)
        res = optimize_parallelepiped(sets, volume=100.0)
        assert res.tile.volume > 0

    def test_rect_optimal_when_g_identity_symmetric(self):
        """Symmetric stencil: skewing cannot beat the square tile much."""
        from repro.core.affine import AffineRef

        refs = [
            AffineRef("B", np.eye(2, dtype=int), [-1, 0]),
            AffineRef("B", np.eye(2, dtype=int), [1, 0]),
            AffineRef("B", np.eye(2, dtype=int), [0, -1]),
            AffineRef("B", np.eye(2, dtype=int), [0, 1]),
        ]
        sets = partition_references(refs)
        res = optimize_parallelepiped(sets, volume=64.0)
        assert res.objective <= res.rectangular_objective + 1e-6
        # and not dramatically better: the rectangle is already near-optimal
        assert res.improvement < 0.35


class TestCommunicationFree:
    def test_example2_exists(self, example2_nest):
        sets = partition_references(example2_nest.accesses)
        basis = communication_free_partition(sets, 2)
        assert basis.shape[0] == 1
        # h must be orthogonal to the sharing direction (4,0)
        assert basis[0] @ np.array([4, 0]) == 0

    def test_example10_none(self, example10_nest):
        sets = partition_references(example10_nest.accesses)
        basis = communication_free_partition(sets, 2)
        assert basis.shape[0] == 0

    def test_private_loop_all_free(self):
        from repro.core.affine import AffineRef

        sets = partition_references([AffineRef("A", np.eye(2, dtype=int), [0, 0])])
        basis = communication_free_partition(sets, 2)
        assert basis.shape[0] == 2

    def test_kernel_constraint(self):
        """A[i+j]: kernel direction (1,-1) must not be cut; comm-free
        normals are orthogonal to it."""
        from repro.core.affine import AffineRef

        sets = partition_references([AffineRef("A", [[1], [1]], [0])])
        basis = communication_free_partition(sets, 2)
        assert basis.shape[0] == 1
        assert basis[0] @ np.array([1, -1]) == 0

    def test_example8_skewed_family(self, example8_nest):
        """Example 8's sharing directions span only rank 2: a *skewed*
        communication-free family h ∝ (3,-1,2) exists (invisible to
        rectangular-only methods like Abraham-Hudak)."""
        sets = partition_references(example8_nest.accesses)
        basis = communication_free_partition(sets, 3)
        assert basis.shape[0] == 1
        h = basis[0]
        for d in ([1, 1, -1], [2, -2, -4], [1, -3, -3]):
            assert h @ np.array(d) == 0

    def test_dense_spread_none(self):
        """Offsets spanning full rank leave no free direction."""
        from repro.core.affine import AffineRef

        refs = [
            AffineRef("B", np.eye(2, dtype=int), [0, 0]),
            AffineRef("B", np.eye(2, dtype=int), [1, 0]),
            AffineRef("B", np.eye(2, dtype=int), [0, 1]),
        ]
        basis = communication_free_partition(partition_references(refs), 2)
        assert basis.shape[0] == 0


class TestGracefulDegradation:
    """Regression tests: valid nests must partition, never hard-fail."""

    def _stencil_sets(self):
        from repro.core.affine import AffineRef

        refs = [
            AffineRef("B", np.eye(2, dtype=int), [0, 0]),
            AffineRef("B", np.eye(2, dtype=int), [1, 1]),
        ]
        return partition_references(refs)

    def test_slsqp_failure_falls_back_to_rectangle(self, monkeypatch, caplog):
        """All SLSQP starts failing must not hard-fail: the portfolio
        falls back to the anneal member / rectangular baseline, never
        reporting a negative improvement."""
        import logging
        from types import SimpleNamespace

        import scipy.optimize

        monkeypatch.setattr(
            scipy.optimize,
            "minimize",
            lambda *a, **k: SimpleNamespace(success=False, fun=np.inf, x=None),
        )
        sets = self._stencil_sets()
        with caplog.at_level(logging.WARNING):
            res = optimize_parallelepiped(sets, volume=16.0)
        assert res.improvement >= 0.0
        assert res.tile.volume > 0
        assert res.winner in ("anneal", "rectangular")
        assert res.member_objectives["slsqp"] is None
        assert res.objective <= res.rectangular_objective
        assert "no SLSQP start converged" in caplog.text

    def test_slsqp_failure_without_anneal_pins_rectangle(self, monkeypatch):
        """With the anneal member disabled too, the rectangular baseline
        wins with improvement exactly 0 (the pre-portfolio contract)."""
        from types import SimpleNamespace

        import scipy.optimize

        monkeypatch.setattr(
            scipy.optimize,
            "minimize",
            lambda *a, **k: SimpleNamespace(success=False, fun=np.inf, x=None),
        )
        sets = self._stencil_sets()
        res = optimize_parallelepiped(sets, volume=16.0, members=("slsqp",))
        assert res.winner == "rectangular"
        assert res.improvement == 0.0
        assert res.objective == res.rectangular_objective
        assert res.tile.volume > 0

    def test_worse_slsqp_result_never_reports_negative_improvement(self, monkeypatch):
        """An SLSQP 'success' costlier than the diagonal start must lose
        to the rectangular baseline, not surface with improvement < 0."""
        from types import SimpleNamespace

        import scipy.optimize

        sets = self._stencil_sets()

        def _bad_minimize(fun, x0, *a, **k):
            # Feasible (det = V) but badly skewed: costlier than the start.
            l = int(round(len(np.ravel(x0)) ** 0.5))
            bad = np.diag(np.full(l, 16.0 ** (1.0 / l)))
            bad[0, 1] = -3.5
            return SimpleNamespace(success=True, fun=fun(bad.ravel()), x=bad.ravel())

        monkeypatch.setattr(scipy.optimize, "minimize", _bad_minimize)
        res = optimize_parallelepiped(sets, volume=16.0, members=("slsqp",))
        assert res.improvement >= 0.0
        assert res.objective <= res.rectangular_objective

    def test_zero_coefficient_dimension_start(self):
        """One communication-free dimension (a_i = 0) used to zero the
        diagonal start and divide by zero."""
        from repro.core.affine import AffineRef

        refs = [
            AffineRef("B", np.eye(2, dtype=int), [0, 0]),
            AffineRef("B", np.eye(2, dtype=int), [0, 2]),
        ]
        sets = partition_references(refs)
        a = rect_cost_coefficients(sets, 2)
        assert np.count_nonzero(a) == 1  # reuse lives in one dim only
        res = optimize_parallelepiped(
            sets, volume=16.0, max_extents=np.array([8.0, 8.0])
        )
        assert res.tile.volume > 0

    def test_rectangular_seed_survives_rank_deficient_class(self, caplog):
        """A class whose reduced G has dependent rows (no Theorem-4
        coefficients) must not abort optimize_rectangular: the grid search
        scores it exactly and the seed sums the remaining classes."""
        import logging

        from repro.core.affine import AffineRef

        g = np.array([[-1, 0], [0, 1], [0, 0]])
        refs = [
            AffineRef("A", g, [-1, -3]),
            AffineRef("A", g, [-1, -4]),
            AffineRef("A", g, [0, -3]),
        ]
        sets = partition_references(refs)
        with pytest.raises(OptimizationError):
            rect_cost_coefficients(sets, 3)
        space = IterationSpace([0, 0, 0], [5, 5, 3])
        with caplog.at_level(logging.WARNING):
            res = optimize_rectangular(sets, space, 4, scoring="exact")
        assert res.grid is not None
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class TestPortfolio:
    """The SLSQP + anneal portfolio merge and its determinism rules."""

    def _stencil_sets(self):
        from repro.core.affine import AffineRef

        refs = [
            AffineRef("B", np.eye(2, dtype=int), [0, 0]),
            AffineRef("B", np.eye(2, dtype=int), [1, 1]),
        ]
        return partition_references(refs)

    def test_records_winner_and_member_stats(self):
        res = optimize_parallelepiped(self._stencil_sets(), volume=16.0)
        assert res.winner in ("rectangular", "slsqp", "anneal")
        assert set(res.member_objectives) == {"rectangular", "slsqp", "anneal"}
        assert set(res.member_seconds) == {"slsqp", "anneal"}
        assert all(t >= 0 for t in res.member_seconds.values())
        assert res.member_objectives["rectangular"] == res.rectangular_objective

    def test_never_loses_to_members_alone(self):
        sets = self._stencil_sets()
        full = optimize_parallelepiped(sets, volume=16.0)
        for member in ("slsqp", "anneal"):
            alone = optimize_parallelepiped(sets, volume=16.0, members=(member,))
            assert full.objective <= alone.objective + 1e-9
        assert full.objective <= full.rectangular_objective + 1e-9

    def test_deterministic_across_runs(self):
        sets = self._stencil_sets()
        a = optimize_parallelepiped(sets, volume=16.0)
        b = optimize_parallelepiped(sets, volume=16.0)
        assert np.array_equal(a.l_matrix, b.l_matrix)
        assert a.objective == b.objective
        assert a.winner == b.winner

    def test_budget_still_returns_feasible_tile(self):
        # A microscopic budget truncates both members at their first
        # checkpoint; the rectangular baseline keeps the result feasible.
        res = optimize_parallelepiped(
            self._stencil_sets(), volume=16.0, budget_s=1e-9
        )
        assert res.tile.volume > 0
        assert res.improvement >= 0.0

    def test_rejects_unknown_member(self):
        with pytest.raises(ValueError, match="unknown portfolio member"):
            optimize_parallelepiped(
                self._stencil_sets(), volume=16.0, members=("slsqp", "genetic")
            )

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="budget_s"):
            optimize_parallelepiped(self._stencil_sets(), volume=16.0, budget_s=0.0)

    @pytest.mark.parametrize("volume", [0.0, -4.0])
    def test_rejects_nonpositive_volume_up_front(self, volume):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="volume must be positive"):
                optimize_parallelepiped(self._stencil_sets(), volume=volume)

    def test_winner_metrics_counted(self):
        from repro.obs.metrics import get_registry

        res = optimize_parallelepiped(self._stencil_sets(), volume=16.0)
        reg = get_registry()
        assert reg.counter("opt.portfolio.winner", member=res.winner).value >= 1
        for member in ("slsqp", "anneal"):
            assert reg.counter("opt.portfolio.member_runs", member=member).value >= 1

    def test_member_ms_rounds_to_nearest(self, monkeypatch):
        """A member that takes 0.6 ms adds 1 to ``member_ms``, not 0."""
        from types import SimpleNamespace

        from repro.core import optimize as _opt
        from repro.obs.metrics import get_registry

        ticks = iter(range(100))
        monkeypatch.setattr(_opt, "time", SimpleNamespace(
            monotonic=time.monotonic, perf_counter=lambda: 0.0006 * next(ticks)
        ))
        reg = get_registry()
        members = ("slsqp", "anneal")
        before = {m: reg.counter("opt.portfolio.member_ms", member=m).value for m in members}
        res = optimize_parallelepiped(self._stencil_sets(), volume=16.0)
        for m in members:
            assert res.member_seconds[m] == pytest.approx(0.0006)
            assert reg.counter("opt.portfolio.member_ms", member=m).value - before[m] == 1

    def test_repeated_starts_run_once(self, monkeypatch):
        """Classes with parallel spreads (``u`` = (2, 2) and (1, 1)) give
        the same skew and long-thin starts.  Each distinct start runs
        once, and the member returns what running every start returns."""
        import scipy.optimize

        from repro.core.affine import AffineRef
        from repro.core.cumulative import Theorem2Objective
        from repro.core.optimize import (
            _continuous_lagrange,
            _slsqp_member,
            _slsqp_starts,
            _volume_constraint,
        )
        from repro.obs.tracing import get_tracer

        sets = partition_references([
            AffineRef("A", np.eye(2, dtype=int), [0, 0]),
            AffineRef("A", np.eye(2, dtype=int), [2, 2]),
            AffineRef("B", np.eye(2, dtype=int), [0, 0]),
            AffineRef("B", np.eye(2, dtype=int), [1, 1]),
        ])
        l, v = 2, 16.0
        max_extents = np.full(l, 3.0 * v ** (1.0 / l))
        sides = _continuous_lagrange(rect_cost_coefficients(sets, l), max_extents, v)
        objective = Theorem2Objective(sets, l)
        starts = _slsqp_starts(sets, l, v, sides, seed=0)

        real = scipy.optimize.minimize
        x0s = []

        def counting(fun, x0, **kwargs):
            x0s.append(x0.copy())
            return real(fun, x0, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", counting)
        best_x, best_f = _slsqp_member(sets, objective, l, v, sides, max_extents, seed=0)
        assert len(starts) == 9
        assert len(x0s) == len({x.tobytes() for x in x0s}) == 7
        assert get_tracer().find("optimize.parallelepiped.minimize")[-1].attrs["starts"] == 7

        # Every start, repeats included.
        bound = np.tile(max_extents, l)
        every_x, every_f = None, np.inf
        for s0 in starts:
            if np.linalg.det(s0) < 0:
                s0 = s0.copy()
                s0[0] = -s0[0]
            res = real(
                objective, np.clip(s0.ravel(), -bound, bound), method="SLSQP",
                jac=objective.gradient, constraints=[_volume_constraint(l, v)],
                bounds=list(zip(-bound, bound)), options={"maxiter": 300, "ftol": 1e-9},
            )
            if res.success and res.fun < every_f:
                if abs(np.linalg.det(res.x.reshape(l, l)) - v) / v < 1e-3:
                    every_x, every_f = res.x.reshape(l, l), float(res.fun)
        assert best_f == every_f
        assert best_x.tobytes() == every_x.tobytes()

    def test_depth3_fuzz_sweep_feasible_nonnegative(self):
        """Seeded depth-3 sweep over the fuzz distribution: the portfolio
        always returns a feasible tile with improvement >= 0 (the
        distribution whose all-starts-fail path used to pin SLSQP)."""
        from repro.check.generator import generate_case
        from repro.exceptions import SingularMatrixError
        from repro.lang.lower import lower_nest
        from repro.lang.parser import parse_program

        swept = 0
        case_id = 0
        while swept < 4 and case_id < 60:
            spec = generate_case(case_id, 0, max_accesses=6000)
            case_id += 1
            if spec.depth != 3:
                continue
            nest = lower_nest(parse_program(spec.source()).nests[0], {})
            uisets = partition_references(nest.accesses)
            try:
                res = optimize_parallelepiped(
                    uisets,
                    spec.volume / spec.processors,
                    max_extents=nest.space.extents,
                )
            except (OptimizationError, SingularMatrixError):
                # Declared infeasibility (rank-deficient class or no
                # integer rounding), not a portfolio regression.
                continue
            assert res.improvement >= 0.0
            assert res.objective <= res.rectangular_objective + 1e-9
            det = abs(np.linalg.det(res.tile.l_matrix.astype(float)))
            assert det > 0
            swept += 1
        assert swept >= 2  # the distribution must actually exercise depth 3


class TestRoundTile:
    def test_repairs_volume_drift(self):
        from repro.core.optimize import _round_tile

        lm = np.array([[2.2, 0.0], [0.0, 1.9]])
        tile = _round_tile(lm, volume=abs(np.linalg.det(lm)))
        det = abs(np.linalg.det(tile.l_matrix))
        assert det > 0
        assert abs(det - 4.18) <= 0.5 * 4.18

    def test_searches_neighbours_when_rounding_collapses(self):
        """Entries below 0.5 all round to zero; the corner search must find
        a nonsingular neighbour."""
        from repro.core.optimize import _round_tile

        lm = np.array([[0.6, 0.0], [0.4, 0.9]])
        tile = _round_tile(lm, volume=abs(np.linalg.det(lm)), tol=1.0)
        assert abs(np.linalg.det(tile.l_matrix)) >= 1

    def test_raises_when_no_candidate_fits(self):
        from repro.core.optimize import _round_tile

        lm = np.array([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(OptimizationError, match="could not round"):
            _round_tile(lm, volume=0.25, tol=0.1)

    def test_negative_bump_recovers_overshoot(self):
        """Pinned witness for the upward-only-bump bug: at depth 4 (no
        corner search) 2.6·I rounds to 3·I with |det| = 81 ≫ V = 16, and
        every +1..+3 bump only overshoots further — only the −1 bump
        (2·I, det 16) is feasible."""
        from repro.core.optimize import _round_tile

        lm = 2.6 * np.eye(4)
        tile = _round_tile(lm, volume=16.0)
        assert np.array_equal(tile.l_matrix, 2 * np.eye(4, dtype=np.int64))
        assert abs(np.linalg.det(tile.l_matrix.astype(float))) == pytest.approx(16.0)

    def test_prefers_candidate_minimising_objective(self):
        """With an objective given, the chosen rounding minimises the Theorem-2
        objective among volume-feasible candidates, not just the nearest."""
        from repro.core.affine import AffineRef
        from repro.core.cumulative import Theorem2Objective
        from repro.core.optimize import _round_tile

        refs = [
            AffineRef("B", np.eye(2, dtype=int), [0, 0]),
            AffineRef("B", np.eye(2, dtype=int), [3, 0]),
        ]
        sets = partition_references(refs)
        objective = Theorem2Objective(sets, 2)
        lm = np.array([[3.5, 0.0], [0.0, 4.5]])
        tile = _round_tile(lm, objective=objective, volume=abs(np.linalg.det(lm)))
        chosen = objective(tile.l_matrix.astype(float).ravel())
        for other in ([3, 4], [4, 4], [4, 5]):
            cand = np.diag(np.array(other, dtype=float))
            det = abs(np.linalg.det(cand))
            if abs(det - 15.75) > 0.5 * 15.75:
                continue
            assert chosen <= objective(cand.ravel()) + 1e-9
