"""The compiled Theorem-2 objective against the formula written out
literally, and its analytic gradient against central differences."""

import numpy as np
import pytest

from repro.check.corpus import load_corpus, spec_from_dict
from repro.check.generator import generate_case
from repro.core.affine import AffineRef
from repro.core.classify import partition_references
from repro.core.cumulative import Theorem2Objective, cofactors
from repro.core.optimize import _volume_constraint
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


def literal_stack(uisets, l_flat, l):
    """Every class's ``l + 1`` matrices, built fresh on every call with
    ``np.repeat`` and a fancy-index write of the ``â`` rows."""
    gs = np.array([s.reduced[0] for s in uisets], dtype=float).reshape(-1, l, l)
    a_hat = np.array(
        [(off.max(axis=0) - off.min(axis=0)) for off in (s.reduced[1] for s in uisets)],
        dtype=float,
    ).reshape(-1, 1, l)
    rows = np.arange(l)
    lm = np.asarray(l_flat, dtype=float).reshape(l, l)
    stack = np.repeat((lm @ gs)[:, None], l + 1, axis=1)
    stack[:, rows + 1, rows, :] = a_hat
    return stack


def literal_gradient(uisets, l_flat, l):
    """The gradient as first written: a fresh stack, a scaled copy of
    the cofactors and a fancy-index zeroing of the ``â`` rows."""
    gs = np.array([s.reduced[0] for s in uisets], dtype=float).reshape(-1, l, l)
    g_t = gs.transpose(0, 2, 1).copy()
    rows = np.arange(l)
    stack = literal_stack(uisets, l_flat, l)
    cof = cofactors(stack)
    det = (stack[..., 0, :] * cof[..., 0, :]).sum(axis=-1)
    d_m = np.sign(det)[..., None, None] * cof
    d_m[:, rows + 1, rows, :] = 0.0
    return (d_m @ g_t[:, None]).sum(axis=(0, 1)).ravel()


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


def assert_same_bits(got, want):
    """Equal values and equal bytes (so ``-0.0`` is not ``0.0``)."""
    assert np.array_equal(got, want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case_id,depth,sets", CASES, ids=[c[0] for c in CASES])
def test_gradient_matches_literal_exactly(case_id, depth, sets):
    try:
        objective = Theorem2Objective(sets, depth)
    except SingularMatrixError:
        return
    rng = np.random.default_rng(list(case_id.encode()))
    points = [np.eye(depth).ravel(), np.zeros(depth * depth)]
    points += [rng.normal(scale=rng.uniform(0.1, 20.0), size=depth * depth) for _ in range(25)]
    for x in points:
        assert_same_bits(objective.gradient(x), literal_gradient(sets, x, depth))
        assert_same_bits(objective._stack(x), literal_stack(sets, x, depth))


@pytest.mark.parametrize("case_id,depth,sets", CASES[::7], ids=[c[0] for c in CASES[::7]])
def test_reused_stack_leaks_no_state(case_id, depth, sets):
    """Interleaved value and gradient calls on one instance return what
    fresh instances return: nothing of one call's ``L`` survives into
    the next."""
    try:
        objective = Theorem2Objective(sets, depth)
    except SingularMatrixError:
        return
    rng = np.random.default_rng(list(case_id.encode()))
    x1, x2 = rng.normal(scale=4.0, size=(2, depth * depth))
    first = objective(x1)
    grad = objective.gradient(x2)
    again = objective(x1)
    assert first == again == Theorem2Objective(sets, depth)(x1)
    assert_same_bits(grad, Theorem2Objective(sets, depth).gradient(x2))
    assert_same_bits(objective.gradient(x1), Theorem2Objective(sets, depth).gradient(x1))


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


def central_differences(f, x, h):
    """``∂f/∂x_j ≈ (f(x + h·e_j) − f(x − h·e_j)) / 2h`` for every ``j``."""
    steps = h * np.eye(x.size)
    return np.array([(f(x + e) - f(x - e)) / (2.0 * h) for e in steps])


def assert_gradient_matches(objective, depth, seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        scale = rng.uniform(0.5, 10.0)
        x = rng.normal(scale=scale, size=depth * depth)
        # Each |det| is piecewise linear in one entry of L, so central
        # differences are exact up to rounding away from a kink.
        np.testing.assert_allclose(
            objective.gradient(x),
            central_differences(objective, x, 1e-6 * scale),
            rtol=1e-5,
            atol=1e-6 * max(1.0, objective(x)),
        )


GRADIENT_CASES = [c for c in CASES if c[1] <= 3]


@pytest.mark.parametrize(
    "case_id,depth,sets", GRADIENT_CASES, ids=[c[0] for c in GRADIENT_CASES]
)
def test_gradient_matches_central_differences(case_id, depth, sets):
    try:
        objective = Theorem2Objective(sets, depth)
    except SingularMatrixError:
        return
    assert_gradient_matches(objective, depth, list(case_id.encode()))


def test_gradient_depth4_with_zero_spread_class():
    # B's pair spreads along the skewed G; A is a lone reference, so its
    # â = 0 and every replaced matrix of its class is singular.
    g_skew = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 2, 1, 1]])
    sets = partition_references([
        AffineRef("B", g_skew, np.array([0, 0, 0, 0])),
        AffineRef("B", g_skew, np.array([1, -2, 0, 3])),
        AffineRef("A", np.eye(4, dtype=np.int64), np.array([0, 0, 0, 0])),
    ])
    objective = Theorem2Objective(sets, 4)
    x = np.random.default_rng(4).normal(size=16)
    singular = np.linalg.det(objective._stack(x)) == 0.0
    assert singular.sum() == 4 and singular[:, 1:].any(axis=1).sum() == 1
    assert_gradient_matches(objective, 4, 4)


def test_gradient_zero_spread_class_at_every_depth():
    for depth in (1, 2, 3):
        sets = partition_references([
            AffineRef("A", np.eye(depth, dtype=np.int64), np.zeros(depth, dtype=np.int64)),
        ])
        objective = Theorem2Objective(sets, depth)
        x = np.random.default_rng(depth).normal(size=depth * depth)
        # |det L| alone: the replaced matrices contribute neither value
        # nor gradient.
        expected = np.sign(np.linalg.det(x.reshape(depth, depth))) * cofactors(
            x.reshape(depth, depth)
        )
        np.testing.assert_allclose(objective.gradient(x), expected.ravel())
        assert_gradient_matches(objective, depth, depth)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_volume_constraint_jacobian_is_det_times_inverse_transpose(depth):
    rng = np.random.default_rng(depth)
    con = _volume_constraint(depth, 10.0)
    assert con["type"] == "eq"
    for _ in range(10):
        lm = rng.normal(scale=3.0, size=(depth, depth))
        expected = np.linalg.det(lm) * np.linalg.inv(lm).T
        np.testing.assert_allclose(
            con["jac"](lm.ravel()), expected.reshape(1, -1), rtol=1e-9, atol=1e-12
        )
        assert con["fun"](lm.ravel()) == np.linalg.det(lm) - 10.0
