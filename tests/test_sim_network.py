"""Tests for the interconnect models."""

import numpy as np
import pytest

from repro.sim.network import MeshNetwork, best_mesh_shape


class TestBestMeshShape:
    def test_squares(self):
        assert best_mesh_shape(16) == (4, 4)
        assert best_mesh_shape(64) == (8, 8)

    def test_rectangles(self):
        assert best_mesh_shape(12) == (3, 4)
        assert best_mesh_shape(2) == (1, 2)

    def test_primes(self):
        assert best_mesh_shape(7) == (1, 7)

    def test_one(self):
        assert best_mesh_shape(1) == (1, 1)


class TestMesh:
    def test_coords_row_major(self):
        net = MeshNetwork(6, (2, 3))
        assert net.coords(0) == (0, 0)
        assert net.coords(5) == (1, 2)

    def test_manhattan_distance(self):
        net = MeshNetwork(16)  # 4x4
        assert net.distance(0, 0) == 0
        assert net.distance(0, 5) == 2  # (0,0)->(1,1)
        assert net.distance(0, 15) == 6

    def test_send_accounting(self):
        net = MeshNetwork(4)
        d = net.send(0, 3)
        assert d == net.distance(0, 3)
        assert net.messages == 1
        assert net.hops == d
        net.reset()
        assert net.messages == 0 and net.hops == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MeshNetwork(16, (2, 2))
        with pytest.raises(ValueError):
            MeshNetwork(0)


@pytest.mark.parametrize(
    "make",
    [lambda: MeshNetwork(6, (2, 3))],
    ids=["mesh"],
)
def test_send_bulk_matches_scalar_sends(make):
    counts = [[0, 3, 1, 0, 5, 2], [1, 0, 0, 4, 0, 0]]
    srcs = [4, 1]
    matrix = np.zeros((6, 6), dtype=np.int64)
    matrix[srcs] = counts
    bulk, scalar = make(), make()
    bulk.send_bulk(matrix)
    for src, row in zip(srcs, counts):
        for dst, n in enumerate(row):
            for _ in range(n):
                scalar.send(src, dst)
    assert int(bulk.messages) == int(scalar.messages) == sum(map(sum, counts))
    assert int(bulk.hops) == int(scalar.hops)
