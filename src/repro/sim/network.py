"""Interconnect model: the 2-D mesh of Alewife's topology.

The paper's analysis prices every main-memory access equally ("the cost of
the main memory access is the same no matter where in main memory the data
is located"); the *placement* phase of Section 4 then notes that on a real
mesh the distance matters ("a smaller effect that may become important in
very large machines").  The network layer therefore reports both message
counts (the paper's metric) and hop-weighted traffic (the placement
metric).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MeshNetwork", "best_mesh_shape"]


def best_mesh_shape(nodes: int) -> tuple[int, int]:
    """Most-square ``rows × cols`` factorisation of ``nodes``."""
    best = (1, nodes)
    for r in range(1, int(math.isqrt(nodes)) + 1):
        if nodes % r == 0:
            best = (r, nodes // r)
    return best


class MeshNetwork:
    """2-D mesh with dimension-ordered (Manhattan) routing."""

    def __init__(self, nodes: int, shape: tuple[int, int] | None = None):
        if nodes < 1:
            raise ValueError("need at least one node")
        self.nodes = nodes
        self.shape = shape or best_mesh_shape(nodes)
        if self.shape[0] * self.shape[1] < nodes:
            raise ValueError(f"mesh {self.shape} too small for {nodes} nodes")
        self.messages = 0
        self.hops = 0

    def coords(self, node: int) -> tuple[int, int]:
        return divmod(node, self.shape[1])

    def distance(self, a: int, b: int) -> int:
        w = self.shape[1]
        ra, ca = divmod(a, w)
        rb, cb = divmod(b, w)
        return abs(ra - rb) + abs(ca - cb)

    def send(self, src: int, dst: int) -> int:
        """Account one message; returns its hop count."""
        d = self.distance(src, dst)
        self.messages += 1
        self.hops += d
        return d

    def send_bulk(self, counts) -> None:
        """Account ``counts[src, dst]`` messages for every node pair."""
        counts = np.asarray(counts, dtype=np.int64)
        w = self.shape[1]
        src_r, src_c = np.divmod(np.arange(counts.shape[0]), w)
        dst_r, dst_c = np.divmod(np.arange(counts.shape[1]), w)
        dist = np.abs(src_r[:, None] - dst_r) + np.abs(src_c[:, None] - dst_c)
        self.messages += int(counts.sum())
        self.hops += int((counts * dist).sum())

    def reset(self) -> None:
        self.messages = 0
        self.hops = 0
