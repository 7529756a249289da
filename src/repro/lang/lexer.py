"""Lexer for the Doall language.

Line-oriented: newlines are significant (they terminate statements);
``//`` and ``#`` start comments to end of line.  The sync prefix lexes as
one token from either ``l$`` or ``1$`` (the paper's Figure 11 prints the
latter).
"""

from __future__ import annotations

from ..exceptions import ParseError
from .tokens import EOF, IDENT, INT, KEYWORDS, NEWLINE, SYNC, Token, TokenKind

__all__ = ["tokenize"]

#: One-character tokens, keyed by their text (the kind's value).
_SINGLE = {k.value: k for k in TokenKind if len(k.value) == 1}


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into tokens (ending with NEWLINE-collapsed EOF).

    Raises :class:`~repro.exceptions.ParseError` on illegal characters.
    """
    tokens: list[Token] = []
    line_no = 0
    for raw_line in source.splitlines():
        line_no += 1
        line = raw_line
        # comments
        for marker in ("//", "#"):
            pos = line.find(marker)
            if pos >= 0:
                line = line[:pos]
        col = 0
        n = len(line)
        emitted = False
        while col < n:
            ch = line[col]
            if ch in " \t\r":
                col += 1
                continue
            start_col = col + 1
            kind = _SINGLE.get(ch)
            if kind is not None:
                tokens.append(Token(kind, ch, line_no, start_col))
                col += 1
            elif ch in "l1" and line[col + 1 : col + 2] == "$":  # sync prefix
                tokens.append(Token(SYNC, line[col : col + 2], line_no, start_col))
                col += 2
            elif ch.isdigit():
                j = col + 1
                while j < n and line[j].isdigit():
                    j += 1
                tokens.append(Token(INT, line[col:j], line_no, start_col))
                col = j
            elif ch.isalpha() or ch == "_":
                j = col + 1
                while j < n and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                text = line[col:j]
                tokens.append(Token(KEYWORDS.get(text.lower(), IDENT), text, line_no, start_col))
                col = j
            else:
                raise ParseError(f"illegal character {ch!r}", line_no, start_col)
            emitted = True
        if emitted:
            tokens.append(Token(NEWLINE, "\n", line_no, n + 1))
    tokens.append(Token(EOF, "", line_no + 1, 1))
    return tokens
