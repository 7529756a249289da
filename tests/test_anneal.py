"""Unit tests for the simulated-annealing tile optimizer."""

import time

import numpy as np
import pytest

from repro.core import anneal as _anneal
from repro.core.anneal import (
    AnnealConfig,
    _Box,
    _clamped_project,
    anneal_parallelepiped,
    project_det,
)


def _quadratic(target):
    """A smooth objective minimised at ``target`` (flattened)."""

    def f(l_flat):
        return float(np.sum((l_flat - target.ravel()) ** 2)) + 1.0

    return f


class TestProjectDet:
    def test_rescales_to_volume(self):
        lm = np.array([[2.0, 0.5], [0.0, 3.0]])
        out = project_det(lm, 16.0)
        assert abs(np.linalg.det(out)) == pytest.approx(16.0)

    def test_preserves_shape(self):
        """Row rescaling keeps edge-vector directions (ratios of entries)."""
        lm = np.array([[2.0, 1.0], [0.5, 3.0]])
        out = project_det(lm, 25.0)
        assert np.allclose(out / lm, (out / lm)[0, 0])

    def test_singular_returns_none(self):
        assert project_det(np.zeros((2, 2)), 8.0) is None

    def test_identity_when_already_at_volume(self):
        lm = np.diag([4.0, 4.0])
        assert np.allclose(project_det(lm, 16.0), lm)


class TestAnnealConfig:
    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            AnnealConfig(iterations=0)

    def test_rejects_bad_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            AnnealConfig(restarts=0)

    def test_rejects_bad_cooling(self):
        with pytest.raises(ValueError, match="cooling"):
            AnnealConfig(cooling=1.0)


class TestAnnealParallelepiped:
    def _run(self, seed=0, config=None, deadline=None):
        start = np.diag([4.0, 4.0])
        return anneal_parallelepiped(
            _quadratic(np.diag([2.0, 8.0])),
            start,
            16.0,
            max_extents=np.array([12.0, 12.0]),
            seed=seed,
            config=config,
            deadline=deadline,
        )

    def test_deterministic_given_seed(self):
        a, b = self._run(seed=7), self._run(seed=7)
        assert np.array_equal(a.l_matrix, b.l_matrix)
        assert a.objective == b.objective
        assert a.evaluations == b.evaluations
        assert a.accepted == b.accepted

    def test_seeds_differ(self):
        a, b = self._run(seed=0), self._run(seed=1)
        assert not np.array_equal(a.l_matrix, b.l_matrix)

    def test_result_on_constraint_surface(self):
        res = self._run()
        assert abs(np.linalg.det(res.l_matrix)) == pytest.approx(16.0, rel=1e-9)

    def test_result_within_bounds(self):
        res = self._run()
        # _clamped_project accepts a small projection overshoot.
        assert np.all(np.abs(res.l_matrix) <= 12.0 * 1.05 + 1e-9)

    def test_improves_on_start(self):
        start = np.diag([4.0, 4.0])
        obj = _quadratic(np.diag([2.0, 8.0]))
        res = self._run()
        assert res.objective < obj(start.ravel())
        assert not res.truncated
        assert res.evaluations > 0

    def test_singular_start_single_restart_returns_none(self):
        res = anneal_parallelepiped(
            _quadratic(np.eye(2)),
            np.zeros((2, 2)),
            16.0,
            max_extents=np.array([8.0, 8.0]),
            config=AnnealConfig(restarts=1),
        )
        assert res is None

    def test_later_restart_rescues_singular_start(self):
        """Restart > 0 perturbs the start, recovering from a singular one."""
        res = anneal_parallelepiped(
            _quadratic(np.eye(2)),
            np.zeros((2, 2)),
            16.0,
            max_extents=np.array([8.0, 8.0]),
            config=AnnealConfig(restarts=2),
        )
        assert res is not None
        assert abs(np.linalg.det(res.l_matrix)) == pytest.approx(16.0, rel=1e-9)

    def test_deadline_truncates(self):
        # A deadline already in the past stops each restart at its first
        # checkpoint; restart 0's start evaluation still counts.
        res = self._run(
            config=AnnealConfig(iterations=10_000, restarts=1),
            deadline=time.monotonic() - 1.0,
        )
        assert res is not None
        assert res.truncated
        assert res.evaluations == 1

    def test_no_deadline_never_truncates(self):
        res = self._run(config=AnnealConfig(iterations=50, restarts=2))
        assert not res.truncated

    def test_volume_cannot_fit_bounds_returns_none(self):
        # V = 100 cannot fit inside |entries| <= 1 at depth 2 (max |det|
        # of a clamped matrix is ~2), so every projection is rejected.
        res = anneal_parallelepiped(
            _quadratic(np.eye(2)),
            np.diag([1.0, 1.0]),
            100.0,
            max_extents=np.array([1.0, 1.0]),
        )
        assert res is None


def literal_clamped_project(lm, volume, max_extents, *, rounds=3):
    """The clamp-and-project as first written: bounds derived from
    ``max_extents`` on every call, clamped with ``np.clip``."""
    cur = lm
    for _ in range(rounds):
        cur = np.clip(cur, -max_extents, max_extents)
        cur = project_det(cur, volume)
        if cur is None:
            return None
        if np.all(np.abs(cur) <= max_extents * (1.0 + 1e-6)):
            return cur
    if np.all(np.abs(cur) <= max_extents * 1.05):
        return cur
    return None


def assert_same_projection(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


class TestClampedProject:
    """``_clamped_project`` with its bounds derived once per run returns
    the literal per-call version's matrix bit for bit."""

    EXTENTS = np.array([5.0, 5.0])

    @pytest.mark.parametrize(
        "lm,volume,projections,outcome",
        [
            # Clamps to [[5, 5], [-5, -5]]: singular, no rescale reaches V.
            ([[9.9, 5.1], [-5.4, -5.1]], 29.0, [False], None),
            # Lands inside the box only after the third projection.
            ([[7.2, 0.9], [-1.2, -0.4]], 7.0, [True] * 3, "inside"),
            # Still ~3% out after three rounds: within the 5% overshoot.
            ([[-0.6, 2.2], [0.9, 1.4]], 25.0, [True] * 3, "overshoot"),
            # Further out after three rounds: rejected.
            ([[0.5, -0.5], [2.6, 0.4]], 13.0, [True] * 3, None),
        ],
        ids=["singular", "three-rounds", "overshoot", "rejected"],
    )
    def test_paths_match_literal(self, monkeypatch, lm, volume, projections, outcome):
        lm = np.array(lm)
        want = literal_clamped_project(lm, volume, self.EXTENTS)
        seen = []

        def counting(m, v):
            out = project_det(m, v)
            seen.append(out is not None)
            return out

        monkeypatch.setattr(_anneal, "project_det", counting)
        got = _clamped_project(lm, volume, _Box.of(self.EXTENTS))
        assert seen == projections
        assert_same_projection(got, want)
        if outcome is None:
            assert got is None
        else:
            inside = np.all(np.abs(got) <= self.EXTENTS * (1.0 + 1e-6))
            assert inside == (outcome == "inside")

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_random_proposals_match_literal(self, depth):
        rng = np.random.default_rng(depth)
        for _ in range(300):
            extents = rng.uniform(0.5, 8.0, size=depth)
            volume = float(rng.uniform(0.5, 2.0) * np.prod(extents))
            lm = rng.normal(scale=rng.uniform(0.5, 12.0), size=(depth, depth))
            assert_same_projection(
                _clamped_project(lm, volume, _Box.of(extents)),
                literal_clamped_project(lm, volume, extents),
            )
