"""The compiled Theorem-2 objective against the formula written out literally."""

import numpy as np
import pytest

from repro.check.corpus import load_corpus, spec_from_dict
from repro.check.generator import generate_case
from repro.core.affine import AffineRef
from repro.core.classify import partition_references
from repro.core.cumulative import Theorem2Objective
from repro.exceptions import SingularMatrixError

CORPUS = "tests/data/check_corpus.json"


def literal_objective(uisets, l_flat, l):
    """``Σ_classes [|det LG′| + Σ_i |det LG′_{i→â}|]``, reduced on every
    call, one determinant per matrix (the pre-compilation evaluation)."""
    lm = np.asarray(l_flat, dtype=float).reshape(l, l)
    total = 0.0
    for s in uisets:
        g, offsets = s.reduced
        lg = lm @ g
        if lg.shape[0] != lg.shape[1]:
            raise SingularMatrixError("Theorem 2 needs full-row-rank G after reduction")
        a_hat = (offsets.max(axis=0) - offsets.min(axis=0)).astype(float)
        class_total = abs(np.linalg.det(lg))
        for i in range(lg.shape[0]):
            m = lg.copy()
            m[i, :] = a_hat
            class_total += abs(np.linalg.det(m))
        total += float(class_total)
    return total


def _sets(spec):
    refs = [
        AffineRef(c.array, np.array(c.g), np.array(off))
        for c in spec.classes
        for off in c.offsets
    ]
    return partition_references(refs)


#: ``(id, depth, classes)``: the check corpus plus the first generated
#: cases of seed 0, which add multi-class nests (the corpus nests that
#: compile all have one class).
CASES = [
    (f"corpus{spec.case_id}", spec.depth, _sets(spec))
    for spec in (spec_from_dict(e["spec"]) for e in load_corpus(CORPUS))
] + [
    (f"gen{cid}", spec.depth, _sets(spec))
    for cid, spec in ((cid, generate_case(cid, seed=0)) for cid in range(60))
]


@pytest.mark.parametrize("case_id,depth,sets", CASES, ids=[c[0] for c in CASES])
def test_matches_literal_formula_exactly(case_id, depth, sets):
    try:
        literal_objective(sets, np.eye(depth).ravel(), depth)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            Theorem2Objective(sets, depth)
        return
    objective = Theorem2Objective(sets, depth)
    rng = np.random.default_rng(list(case_id.encode()))
    for _ in range(25):
        x = rng.normal(scale=rng.uniform(0.1, 20.0), size=depth * depth)
        assert objective(x) == literal_objective(sets, x, depth)


def test_cases_cover_singular_and_multi_class():
    compiled = []
    singular = 0
    for _case_id, depth, sets in CASES:
        try:
            Theorem2Objective(sets, depth)
            compiled.append(len(sets))
        except SingularMatrixError:
            singular += 1
    assert singular and compiled
    assert max(compiled) >= 3


def test_rank_deficient_class_raises_at_construction():
    # A[i] inside a 2-D nest: G′ keeps one column, so L·G′ is 2x1.
    sets = partition_references([AffineRef("A", np.array([[1], [0]]), np.array([0]))])
    with pytest.raises(SingularMatrixError):
        Theorem2Objective(sets, 2)


def test_no_classes_scores_zero():
    assert Theorem2Objective([], 2)(np.eye(2).ravel()) == 0.0

