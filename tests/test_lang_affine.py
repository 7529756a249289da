"""Subscript parsing equals AffineExpr arithmetic on the same expression."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import LoweringError, ParseError
from repro.lang.ast_nodes import AffineExpr
from repro.lang.parser import parse_program


@st.composite
def _expr(draw, depth=3):
    """``(text, expected AffineExpr or None when non-affine)``."""
    kind = draw(st.sampled_from(["int", "var"] if depth == 0 else
                                ["int", "var", "neg", "add", "sub", "mul", "imp", "paren"]))
    if kind == "int":
        v = draw(st.integers(0, 9))
        return str(v), AffineExpr.constant(v)
    if kind == "var":
        v = draw(st.sampled_from(["i", "j", "N"]))
        return v, AffineExpr.variable(v)
    if kind == "imp":
        c = draw(st.integers(0, 9))
        v = draw(st.sampled_from(["i", "j"]))
        return f"{c}{v}", AffineExpr.variable(v).scale(c)
    a, ea = draw(_expr(depth=depth - 1))
    if kind == "neg":
        return f"-({a})", None if ea is None else -ea
    if kind == "paren":
        return f"({a})", ea
    b, eb = draw(_expr(depth=depth - 1))
    if ea is None or eb is None:
        expected = None
    elif kind == "add":
        expected = ea + eb
    elif kind == "sub":
        expected = ea - eb
    else:
        try:
            expected = ea.multiply(eb)
        except LoweringError:
            expected = None
    op = {"add": "+", "sub": "-", "mul": "*"}[kind]
    return f"({a}) {op} ({b})", expected


def _subscript(text):
    prog = parse_program(f"Doall (i, 1, 4)\n A[{text}] = 1\nEndDoall\n")
    return prog.nests[0].body[0].lhs.subscripts[0]


@given(_expr())
def test_subscript_matches_affine_arithmetic(case):
    text, expected = case
    if expected is None:
        with pytest.raises(LoweringError, match="non-affine product"):
            _subscript(text)
    else:
        assert _subscript(text) == expected


def test_non_affine_message_names_both_factors():
    with pytest.raises(LoweringError) as err:
        _subscript("(i + 1) * (2j - i)")
    expected = AffineExpr((("i", 1),), 1).multiply
    with pytest.raises(LoweringError) as want:
        expected(AffineExpr((("i", -1), ("j", 2)), 0))
    assert str(err.value) == str(want.value)


def test_missing_operand_position():
    with pytest.raises(ParseError) as err:
        _subscript("i + ")
    assert (err.value.line, err.value.column) == (2, 8)
