"""Tests for the Doall-language lexer."""

import pytest

from repro.exceptions import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(src):
    return [t.kind for t in tokenize(src)]


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert kinds("Doall")[0] is TokenKind.DOALL
        assert kinds("DOALL")[0] is TokenKind.DOALL
        assert kinds("doseq")[0] is TokenKind.DOSEQ
        assert kinds("EndDoall")[0] is TokenKind.ENDDOALL
        assert kinds("enddoseq")[0] is TokenKind.ENDDOSEQ

    def test_identifiers(self):
        toks = tokenize("Alpha b_2")
        assert toks[0].kind is TokenKind.IDENT and toks[0].text == "Alpha"
        assert toks[1].text == "b_2"

    def test_integers(self):
        toks = tokenize("123 4")
        assert toks[0].kind is TokenKind.INT and toks[0].value == 123

    def test_value_on_non_int_raises(self):
        with pytest.raises(ValueError):
            tokenize("abc")[0].value

    def test_punctuation(self):
        expected = [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.COMMA,
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.EQUALS,
        ]
        assert kinds("()[],+-*/=")[: len(expected)] == expected

    def test_newlines_and_eof(self):
        toks = tokenize("a\nb\n")
        assert [t.kind for t in toks] == [
            TokenKind.IDENT,
            TokenKind.NEWLINE,
            TokenKind.IDENT,
            TokenKind.NEWLINE,
            TokenKind.EOF,
        ]

    def test_blank_lines_skipped(self):
        toks = tokenize("a\n\n\nb")
        newlines = sum(1 for t in toks if t.kind is TokenKind.NEWLINE)
        assert newlines == 2  # one per non-empty line


class TestSyncPrefix:
    def test_l_dollar(self):
        toks = tokenize("l$C[i,j]")
        assert toks[0].kind is TokenKind.SYNC
        assert toks[1].text == "C"

    def test_one_dollar(self):
        """Figure 11 prints '1$C'."""
        toks = tokenize("1$C[i,j]")
        assert toks[0].kind is TokenKind.SYNC

    def test_bare_l_is_ident(self):
        toks = tokenize("l + 1")
        assert toks[0].kind is TokenKind.IDENT


class TestCommentsAndErrors:
    def test_double_slash_comment(self):
        toks = tokenize("a // comment here\nb")
        assert [t.text for t in toks if t.kind is TokenKind.IDENT] == ["a", "b"]

    def test_hash_comment(self):
        toks = tokenize("a # comment\n")
        assert [t.text for t in toks if t.kind is TokenKind.IDENT] == ["a"]

    def test_comment_only_line_no_newline_token(self):
        toks = tokenize("// nothing\na")
        assert toks[0].kind is TokenKind.IDENT

    def test_illegal_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("a @ b")
        assert exc.value.line == 1

    def test_position_tracking(self):
        toks = tokenize("ab cd\nef")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (1, 4)
        assert (toks[3].line, toks[3].column) == (2, 1)


def test_kind_constants_name_their_members():
    """``tokens`` unpacks every kind into a module constant of its name."""
    from repro.lang import tokens

    for kind in tokens.TokenKind:
        assert getattr(tokens, kind.name) is kind
