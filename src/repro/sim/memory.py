"""Distributed memory modules and array-to-home mapping.

Section 2.2 allows monolithic or distributed memory; data partitioning
(Section 4) matters only in the distributed case, where an array element's
*home node* determines whether a miss is serviced locally or across the
network.  An :class:`AddressMap` assigns each ``(array, index)`` address a
home node; two stock policies are provided:

* :func:`flat_address_map` — elements interleaved round-robin over nodes
  (the unaligned default a naive system would use);
* :func:`block_address_map` — arrays cut into rectangular blocks matching
  a data partition, each block homed on one node (the "Data Partitioning
  and Alignment" scheme: "partitioning arrays with the same aspect ratios
  as the iterations of loops that reference them").
"""

from __future__ import annotations

import numpy as np

__all__ = ["AddressMap", "flat_address_map", "block_address_map"]


class AddressMap:
    """Maps element addresses ``(array, coords)`` to home nodes.

    Parameters
    ----------
    nodes:
        Number of memory modules (= processors).
    default_policy:
        Fallback for arrays without an explicit layout: ``'interleave'``
        hashes elements round-robin; ``'node0'`` homes everything on node
        0 (the monolithic-memory model — all misses cost the same, as the
        paper's uniform-access analysis assumes).
    """

    def __init__(self, nodes: int, default_policy: str = "interleave"):
        if nodes < 1:
            raise ValueError("need at least one node")
        if default_policy not in ("interleave", "node0"):
            raise ValueError(f"unknown policy {default_policy!r}")
        self.nodes = nodes
        self.default_policy = default_policy
        self._block_maps: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def set_block_map(self, array: str, lower, block_sides, grid_to_node) -> None:
        """Home ``array`` by rectangular blocks.

        ``lower`` is the array's index origin, ``block_sides`` the block
        side lengths per dimension, and ``grid_to_node`` an integer array
        indexed by block grid coordinates giving the home node.
        """
        lower = np.asarray(lower, dtype=np.int64)
        sides = np.asarray(block_sides, dtype=np.int64)
        g2n = np.asarray(grid_to_node, dtype=np.int64)
        if np.any(sides < 1):
            raise ValueError("block sides must be >= 1")
        if g2n.ndim != len(sides):
            raise ValueError("grid_to_node rank must match dimensionality")
        self._block_maps[array] = (lower, sides, g2n)

    @staticmethod
    def _mix_prefix(array: str) -> int:
        """FNV-1a state after hashing the array name alone."""
        h = 2166136261
        for ch in array:
            h = (h ^ ord(ch)) * 16777619 % (1 << 32)
        return h

    @classmethod
    def _mix(cls, array: str, coords) -> int:
        """Deterministic element hash (Python's ``hash`` is salted per
        process; simulations must reproduce across runs)."""
        h = cls._mix_prefix(array)
        for c in coords:
            h = (h ^ (int(c) & 0xFFFFFFFF)) * 16777619 % (1 << 32)
        return h

    @classmethod
    def _mix_vector(cls, array: str, coords: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_mix` over the rows of an ``(N, d)`` array.

        Bit-identical to the scalar hash: state stays below ``2**32`` and
        the multiplier below ``2**24``, so the uint64 products never wrap.
        """
        coords = np.asarray(coords, dtype=np.int64)
        h = np.full(coords.shape[0], cls._mix_prefix(array), dtype=np.uint64)
        mult = np.uint64(16777619)
        mask = np.uint64(0xFFFFFFFF)
        for k in range(coords.shape[1]):
            c = (coords[:, k] & 0xFFFFFFFF).astype(np.uint64)
            h = ((h ^ c) * mult) & mask
        return h

    def home(self, array: str, coords: tuple[int, ...]) -> int:
        """Home node of one element."""
        bm = self._block_maps.get(array)
        if bm is not None:
            lower, sides, g2n = bm
            block = tuple(
                min(int((c - lo) // s), g2n.shape[k] - 1)
                for k, (c, lo, s) in enumerate(zip(coords, lower, sides))
            )
            block = tuple(max(b, 0) for b in block)
            return int(g2n[block])
        if self.default_policy == "node0":
            return 0
        return self._mix(array, coords) % self.nodes

    def homes_vector(self, array: str, coords: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`home` for an ``(N, d)`` coordinate array."""
        bm = self._block_maps.get(array)
        n = coords.shape[0]
        if bm is not None:
            lower, sides, g2n = bm
            block = (coords - lower) // sides
            block = np.clip(block, 0, np.array(g2n.shape) - 1)
            return g2n[tuple(block[:, k] for k in range(block.shape[1]))]
        if self.default_policy == "node0":
            return np.zeros(n, dtype=np.int64)
        return (self._mix_vector(array, coords) % np.uint64(self.nodes)).astype(
            np.int64
        )


def flat_address_map(nodes: int) -> AddressMap:
    """Round-robin interleaved homes (no data partitioning)."""
    return AddressMap(nodes, default_policy="interleave")


def block_address_map(
    nodes: int,
    arrays: dict[str, tuple[tuple[int, ...], tuple[int, ...], np.ndarray]],
) -> AddressMap:
    """Blocked homes: ``arrays[name] = (lower, block_sides, grid_to_node)``."""
    am = AddressMap(nodes, default_policy="interleave")
    for name, (lower, sides, g2n) in arrays.items():
        am.set_block_map(name, lower, sides, g2n)
    return am
