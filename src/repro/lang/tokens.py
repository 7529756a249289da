"""Token definitions for the Doall language."""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = ["TokenKind", "Token", "KEYWORDS"]


class TokenKind(enum.Enum):
    IDENT = "ident"
    INT = "int"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    EQUALS = "="
    SYNC = "l$"           # also lexes '1$' (Figure 11's typeface)
    NEWLINE = "newline"
    EOF = "eof"
    # keywords
    DOALL = "Doall"
    DOSEQ = "Doseq"
    ENDDOALL = "EndDoall"
    ENDDOSEQ = "EndDoseq"


# Every kind as a module constant (definition order): a global read costs a
# fraction of an Enum member read, and lexing and parsing test several per token.
(IDENT, INT, LPAREN, RPAREN, LBRACKET, RBRACKET, COMMA, PLUS, MINUS, STAR, SLASH, EQUALS,
 SYNC, NEWLINE, EOF, DOALL, DOSEQ, ENDDOALL, ENDDOSEQ) = TokenKind

KEYWORDS = {
    "doall": TokenKind.DOALL,
    "doseq": TokenKind.DOSEQ,
    "enddoall": TokenKind.ENDDOALL,
    "enddoseq": TokenKind.ENDDOSEQ,
}


class Token(NamedTuple):
    """A lexeme with 1-based source position.

    A named tuple: the lexer builds one per lexeme, and a tuple is the
    cheapest immutable record to build.
    """

    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def value(self) -> int:
        if self.kind is not TokenKind.INT:
            raise ValueError(f"token {self} has no integer value")
        return int(self.text)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"
