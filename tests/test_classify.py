"""Tests for reference classification (Definitions 4-6, Appendix B).

Benchmark E13 re-runs the Appendix B table; these tests pin the same
verdicts at unit level plus the structural behaviour of
partition_references.
"""

import os

import numpy as np
import pytest

from repro.core.affine import AccessKind, AffineRef, ArrayAccess
from repro.core.classify import (
    partition_references,
    references_intersect,
    uniformly_generated,
    uniformly_intersecting,
)


def ref2(array, g, a):
    return AffineRef(array, g, a)


I2 = [[1, 0], [0, 1]]


class TestIntersecting:
    def test_definition4_swap_example(self):
        """A(i+c1, j+c2) and A(j+c3, i+c4) are intersecting (Def 4)."""
        r = ref2("A", I2, [1, 2])
        s = ref2("A", [[0, 1], [1, 0]], [3, 4])
        assert references_intersect(r, s)

    def test_definition4_stride_example(self):
        """A[2i] and A[2i+1] are non-intersecting (Def 4)."""
        r = AffineRef("A", [[2]], [0])
        s = AffineRef("A", [[2]], [1])
        assert not references_intersect(r, s)

    def test_different_arrays_never(self):
        r = ref2("A", I2, [0, 0])
        s = ref2("B", I2, [0, 0])
        assert not references_intersect(r, s)

    def test_different_rank_never(self):
        r = AffineRef("A", [[1, 0]], [0, 0])
        s = AffineRef("A", [[1]], [0])
        assert not references_intersect(r, s)

    def test_reflexive(self):
        r = ref2("A", I2, [5, 5])
        assert references_intersect(r, r)


class TestUniformlyGenerated:
    def test_same_g(self):
        assert uniformly_generated(ref2("A", I2, [0, 0]), ref2("A", I2, [1, -3]))

    def test_different_g(self):
        assert not uniformly_generated(
            ref2("A", I2, [0, 0]), ref2("A", [[2, 0], [0, 1]], [0, 0])
        )

    def test_different_array(self):
        assert not uniformly_generated(ref2("A", I2, [0, 0]), ref2("B", I2, [0, 0]))


class TestAppendixB:
    """The uniformly-intersecting verdicts listed in Appendix B / Example 5."""

    def test_positive_set_1(self):
        # A[i,j], A[i+1,j-3], A[i,j+4]
        refs = [
            ref2("A", I2, [0, 0]),
            ref2("A", I2, [1, -3]),
            ref2("A", I2, [0, 4]),
        ]
        for r in refs:
            for s in refs:
                assert uniformly_intersecting(r, s)

    def test_positive_set_2(self):
        # A[2i,3,4]-style: same G, offsets differ along reachable directions
        g = [[2, 0, 0]]
        refs = [
            AffineRef("A", g, [0, 3, 4]),
            AffineRef("A", g, [-6, 3, 4]),
            AffineRef("A", g, [4, 3, 4]),
        ]
        for r in refs:
            for s in refs:
                assert uniformly_intersecting(r, s)

    def test_negative_pairs(self):
        pairs = [
            # A[i,j] vs A[2i,j]
            (ref2("A", I2, [0, 0]), ref2("A", [[2, 0], [0, 1]], [0, 0])),
            # A[i,j] vs A[2i,2j]
            (ref2("A", I2, [0, 0]), ref2("A", [[2, 0], [0, 2]], [0, 0])),
            # A[j,2,4] vs A[j,3,4] (different constant middle subscript)
            (
                AffineRef("A", [[0, 0], [1, 0]], [0, 2]),
                AffineRef("A", [[0, 0], [1, 0]], [0, 3]),
            ),
            # A[2i] vs A[2i+1]
            (AffineRef("A", [[2]], [0]), AffineRef("A", [[2]], [1])),
            # A[i+2,2i+4] vs A[i+3,2i+8]
            (
                AffineRef("A", [[1, 2]], [2, 4]),
                AffineRef("A", [[1, 2]], [3, 8]),
            ),
            # A[i,j] vs B[i,j]
            (ref2("A", I2, [0, 0]), ref2("B", I2, [0, 0])),
        ]
        for r, s in pairs:
            assert not uniformly_intersecting(r, s), (r, s)

    def test_appendix_b3_dimensions(self):
        """A[j,2,4] vs A[j,3,4] in the paper's (likely) 1-loop reading."""
        r = AffineRef("A", [[1, 0, 0]], [0, 2, 4])
        s = AffineRef("A", [[1, 0, 0]], [0, 3, 4])
        assert uniformly_generated(r, s)
        assert not references_intersect(r, s)


class TestPartitionReferences:
    def test_example10_classes(self):
        """Example 10: B-pair, C-pair, lone C, lone A."""
        b1 = AffineRef("B", [[1, 1], [1, -1]], [0, 0])
        b2 = AffineRef("B", [[1, 1], [1, -1]], [4, 2])
        gc = [[1, 2, 1], [0, 0, 2]]
        c1 = AffineRef("C", gc, [0, 0, -1])
        c2 = AffineRef("C", gc, [1, 2, 1])
        c3 = AffineRef("C", gc, [0, 0, 1])
        a = AffineRef("A", I2, [0, 0])
        sets = partition_references([a, b1, b2, c1, c2, c3])
        shapes = [(s.array, s.size) for s in sets]
        assert shapes == [("A", 1), ("B", 2), ("C", 2), ("C", 1)]
        cpair = sets[2]
        assert {tuple(o) for o in cpair.offsets.tolist()} == {(0, 0, -1), (0, 0, 1)}

    def test_duplicates_kept(self):
        r = AffineRef("A", [[1]], [0])
        sets = partition_references([r, r])
        assert len(sets) == 1 and sets[0].size == 2

    def test_kinds_preserved(self):
        r = ArrayAccess(AffineRef("A", [[1]], [0]), AccessKind.WRITE)
        s = ArrayAccess(AffineRef("A", [[1]], [1]), AccessKind.READ)
        sets = partition_references([r, s])
        assert sets[0].has_write()

    def test_coset_split(self):
        """A[2i] and A[2i+1]: same G, different cosets -> two classes."""
        sets = partition_references(
            [AffineRef("A", [[2]], [0]), AffineRef("A", [[2]], [1])]
        )
        assert len(sets) == 2

    def test_spread(self):
        sets = partition_references(
            [
                AffineRef("B", I2, [-1, 0]),
                AffineRef("B", I2, [0, 1]),
                AffineRef("B", I2, [1, -2]),
            ]
        )
        assert sets[0].spread().tolist() == [2, 3]

    def test_base_ref_deterministic(self):
        sets = partition_references(
            [AffineRef("B", I2, [1, 1]), AffineRef("B", I2, [0, 0])]
        )
        assert sets[0].base_ref().offset.tolist() == [0, 0]

    def test_empty_uiset_rejected(self):
        from repro.core.classify import UISet

        with pytest.raises(ValueError):
            UISet(())


def _stencil_kernel_in_child():
    """Fork target: read a fresh class's geometry, exit 0 if it returns."""
    s = partition_references(
        [AffineRef("B", I2, [-1, 0]), AffineRef("B", I2, [1, 3])]
    )[0]
    assert s.kernel.shape == (0, 2)


class TestClassGeometry:
    """``UISet``'s tile-independent geometry: computed once, read-only."""

    def _stencil(self):
        return partition_references(
            [AffineRef("B", I2, [-1, 0]), AffineRef("B", I2, [1, 3])]
        )[0]

    def test_geometry_values(self):
        s = self._stencil()
        g, offsets = s.reduced
        assert g.tolist() == I2
        assert offsets.tolist() == [[-1, 0], [1, 3]]
        assert s.u.tolist() == [2.0, 3.0]
        assert s.kernel.shape == (0, 2)
        assert s.sharing.tolist() == [[2, 3]]

    def test_rank_deficient_class_has_no_u(self):
        s = partition_references(
            [AffineRef("A", [[1], [1]], [0]), AffineRef("A", [[1], [1]], [2])]
        )[0]
        assert s.u is None
        assert s.kernel.tolist() in ([[1, -1]], [[-1, 1]])

    def test_arrays_are_read_only(self):
        s = self._stencil()
        for a in (*s.reduced, s.u, s.kernel, s.sharing):
            with pytest.raises(ValueError):
                a[...] = 0
        assert s.u.tolist() == [2.0, 3.0]

    def test_geometry_survives_pickling(self):
        import pickle

        s = self._stencil()
        assert s.u is not None and s.sharing.size  # cached before the round trip
        t = pickle.loads(pickle.dumps(s))
        assert t == s
        assert t.u.tolist() == [2.0, 3.0]
        assert t.sharing.tolist() == [[2, 3]]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_reads_geometry_while_a_thread_computes(self, monkeypatch):
        """A process forked while another thread is inside a geometry
        computation (a serve worker pool starting up) must not inherit a
        held lock: its own first read has to return."""
        import multiprocessing
        import threading

        from repro.core import classify

        entered, release = threading.Event(), threading.Event()
        real = classify.integer_kernel_basis

        def blocking(g, snf=None):
            entered.set()
            release.wait(10)
            return real(g, snf)

        monkeypatch.setattr(classify, "integer_kernel_basis", blocking)
        s = self._stencil()
        thread = threading.Thread(target=lambda: s.kernel)
        thread.start()
        try:
            assert entered.wait(10)
            monkeypatch.setattr(classify, "integer_kernel_basis", real)
            child = multiprocessing.get_context("fork").Process(
                target=_stencil_kernel_in_child
            )
            child.start()
            child.join(10)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join()
        finally:
            release.set()
            thread.join()
        assert not hung and child.exitcode == 0

    def test_partition_derives_geometry_once_per_class(self, example8_nest):
        """One column reduction per class and one kernel per class (plus
        the comm-free kernel of the stacked sharing rows) for a whole
        ``method='auto'`` partition.  Counted on code objects, so the count
        does not depend on how modules import the functions."""
        import sys
        from collections import Counter

        from repro.core.partitioner import LoopPartitioner
        from repro.lattice import snf

        watch = {
            AffineRef.reduced_columns.__code__: "reduced_columns",
            snf.integer_kernel_basis.__code__: "integer_kernel_basis",
        }
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watch:
                calls[watch[frame.f_code]] += 1

        part = LoopPartitioner(example8_nest, 8)
        assert len(part.uisets) == 2
        sys.setprofile(profile)
        try:
            part.partition(method="auto")
        finally:
            sys.setprofile(None)
        assert calls["reduced_columns"] <= 2
        assert calls["integer_kernel_basis"] <= 3
