"""Tests for tiles and tilings (Definitions 1-2, Propositions 2-3)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import box_points_array, int_det
from repro.core.loopnest import IterationSpace
from repro.core.tiles import ParallelepipedTile, RectangularTile, Tiling
from repro.exceptions import SingularMatrixError


class TestParallelepipedTile:
    def test_volume_prop2(self):
        t = ParallelepipedTile([[2, 0], [0, 3]])
        assert t.volume == 6

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            ParallelepipedTile([[1, 2], [2, 4]])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            ParallelepipedTile([[1, 2, 3], [4, 5, 6]])

    def test_tile_index_exact(self):
        t = ParallelepipedTile([[4, 0], [0, 4]])
        idx = t.tile_index([[0, 0], [3, 3], [4, 0], [-1, 0]])
        assert idx.tolist() == [[0, 0], [0, 0], [1, 0], [-1, 0]]

    def test_tile_index_skewed(self):
        """Example 6's tile L=[[L1,L1],[L2,0]]."""
        t = ParallelepipedTile([[3, 3], [4, 0]])
        # iteration (3,3) = 1*(3,3) + 0*(4,0): boundary -> tile (1,0)
        assert t.tile_index([[3, 3]]).tolist() == [[1, 0]]
        assert t.tile_index([[0, 0]]).tolist() == [[0, 0]]
        assert t.tile_index([[2, 2]]).tolist() == [[0, 0]]

    def test_contains_closed(self):
        t = ParallelepipedTile([[2, 0], [0, 2]])
        assert t.contains_closed([2, 2])
        assert t.contains_closed([0, 0])
        assert not t.contains_closed([3, 0])

    def test_enumerate_closed_vs_halfopen(self):
        t = ParallelepipedTile([[2, 0], [0, 2]])
        closed = t.enumerate_iterations(closed=True)
        half = t.enumerate_iterations(closed=False)
        assert closed.shape[0] == 9
        assert half.shape[0] == 4

    def test_enumerate_skewed_count(self):
        # volume 12 parallelogram; half-open iteration count == |det L|
        t = ParallelepipedTile([[3, 3], [4, 0]])
        half = t.enumerate_iterations(closed=False)
        assert half.shape[0] == t.volume

    def test_h_gamma_lambda_roundtrip(self):
        t = ParallelepipedTile([[3, 3], [4, 0]])
        h, gamma, lam = t.h_gamma_lambda()
        # L = Λ (H^{-1})^T with Λ = I here
        recon = np.linalg.inv(h).T
        assert np.allclose(recon, t.l_matrix)

    def test_footprint_matrix(self):
        t = ParallelepipedTile([[2, 2], [3, 0]])
        lg = t.footprint_matrix([[1, 0], [1, 1]])
        assert lg.tolist() == [[4, 2], [3, 0]]

    def test_is_rectangular(self):
        assert ParallelepipedTile([[2, 0], [0, 5]]).is_rectangular()
        assert not ParallelepipedTile([[2, 1], [0, 5]]).is_rectangular()

    @given(
        st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2),
        st.lists(st.integers(-8, 8), min_size=2, max_size=2),
    )
    def test_tile_index_is_floor(self, m, pt):
        lm = np.array(m)
        if int_det(lm) == 0:
            return
        t = ParallelepipedTile(lm)
        idx = t.tile_index([pt])[0]
        f = np.array(pt) @ np.linalg.inv(lm.astype(float))
        assert np.array_equal(idx, np.floor(f + 1e-12).astype(int)) or np.array_equal(
            idx, np.floor(f - 1e-12).astype(int)
        )


class TestRectangularTile:
    def test_sides_and_extents(self):
        t = RectangularTile([4, 5])
        assert t.sides.tolist() == [4, 5]
        assert t.extents.tolist() == [3, 4]
        assert t.iterations == 20  # Proposition 3
        assert t.volume == 20

    def test_sides_and_extents_built_once_read_only(self):
        import pickle

        t = RectangularTile([4, 5])
        assert t.sides is t.sides and t.extents is t.extents
        for tile in (t, pickle.loads(pickle.dumps(t))):
            assert tile.sides.tolist() == [4, 5]
            assert tile.extents.tolist() == [3, 4]
            assert not tile.sides.flags.writeable
            assert not tile.extents.flags.writeable

    def test_bad_sides(self):
        with pytest.raises(ValueError):
            RectangularTile([0, 3])

    def test_enumerate_halfopen_default(self):
        t = RectangularTile([2, 2])
        its = t.enumerate_iterations()
        assert its.shape[0] == 4
        assert its.max() == 1

    def test_enumerate_closed(self):
        t = RectangularTile([2, 2])
        assert t.enumerate_iterations(closed=True).shape[0] == 9

    def test_is_parallelepiped(self):
        t = RectangularTile([4, 5])
        assert isinstance(t, ParallelepipedTile)
        assert t.is_rectangular()


class TestTiling:
    def test_depth_checked(self):
        with pytest.raises(ValueError):
            Tiling(IterationSpace([0], [5]), RectangularTile([2, 2]))

    def test_assignments_partition_space(self):
        sp = IterationSpace([1, 1], [6, 6])
        tiling = Tiling(sp, RectangularTile([2, 3]))
        groups = tiling.assignments()
        total = sum(v.shape[0] for v in groups.values())
        assert total == sp.volume
        # no iteration in two tiles
        all_pts = np.vstack(list(groups.values()))
        assert np.unique(all_pts, axis=0).shape[0] == sp.volume

    def test_num_tiles_rect(self):
        sp = IterationSpace([1, 1], [6, 6])
        tiling = Tiling(sp, RectangularTile([2, 3]))
        assert tiling.num_tiles_rect() == 3 * 2
        assert tiling.num_tiles() == 6

    def test_boundary_tiles_smaller(self):
        sp = IterationSpace([0], [6])  # 7 iterations
        tiling = Tiling(sp, RectangularTile([3]))
        groups = tiling.assignments()
        sizes = sorted(v.shape[0] for v in groups.values())
        assert sizes == [1, 3, 3]

    def test_num_tiles_rect_requires_rect(self):
        sp = IterationSpace([0, 0], [5, 5])
        tiling = Tiling(sp, ParallelepipedTile([[2, 1], [0, 2]]))
        with pytest.raises(TypeError):
            tiling.num_tiles_rect()

    def test_skewed_tiling_partition(self):
        sp = IterationSpace([0, 0], [7, 7])
        tiling = Tiling(sp, ParallelepipedTile([[2, 2], [3, 0]]))
        groups = tiling.assignments()
        total = sum(v.shape[0] for v in groups.values())
        assert total == sp.volume

    @given(
        st.lists(st.integers(1, 4), min_size=2, max_size=2),
        st.lists(st.integers(3, 8), min_size=2, max_size=2),
    )
    def test_every_iteration_owned_once(self, sides, ext):
        sp = IterationSpace([0, 0], [e - 1 for e in ext])
        tiling = Tiling(sp, RectangularTile(sides))
        groups = tiling.assignments()
        assert sum(v.shape[0] for v in groups.values()) == sp.volume
        # tile indices consistent with direct computation
        for key, pts in groups.items():
            recomputed = tiling.tile_indices(pts)
            assert np.all(recomputed == np.array(key))
