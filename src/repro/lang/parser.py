"""Recursive-descent parser for the Doall language.

Grammar (newline-terminated statements)::

    program   := nest*
    nest      := loop
    loop      := ("Doall" | "Doseq") "(" IDENT "," expr "," expr ")" NL
                 (loop | assign)* end NL
    end       := "EndDoall" | "EndDoseq"
    assign    := ref "=" rhs NL
    rhs       := term (("+" | "-") term)*
    term      := factor (("*" | "/") factor)*
    factor    := ref | expr-atom | "(" rhs ")"
    ref       := [SYNC] IDENT ("[" expr-list "]" | "(" expr-list ")")
    expr      := affine expression over idents and ints with + - * and
                 implicit products like "2i"

Only the *references* of the right-hand side are retained (the arithmetic
combining them is irrelevant to partitioning).  An identifier followed by
``[`` or ``(`` inside an expression is a reference; a bare identifier is a
scalar/index variable.
"""

from __future__ import annotations

from ..exceptions import ParseError
from .ast_nodes import (
    AffineExpr,
    Assign,
    BinOp,
    Const,
    LoopNode,
    Neg,
    Program,
    RefNode,
    Scalar,
)
from .lexer import tokenize
from .tokens import (
    COMMA, DOALL, DOSEQ, ENDDOALL, ENDDOSEQ, EOF, EQUALS, IDENT, INT, LBRACKET, LPAREN,
    MINUS, NEWLINE, PLUS, RBRACKET, RPAREN, SLASH, STAR, SYNC, Token, TokenKind,
)

__all__ = ["parse_program", "Parser"]


class Parser:
    """Token-stream parser; see module docstring for the grammar.

    ``tokens`` ends with the EOF token, as :func:`tokenize` returns it.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- stream helpers ---------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        if not ahead:
            # EOF is the last token and next() never moves past it.
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not EOF:
            self.pos += 1
        return tok

    def expect(self, kind: TokenKind) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {tok.text!r}", tok.line, tok.column
            )
        return self.next()

    def skip_newlines(self) -> None:
        while self.peek().kind is NEWLINE:
            self.next()

    # -- entry points -----------------------------------------------------
    def parse_program(self) -> Program:
        nests = []
        self.skip_newlines()
        while self.peek().kind is not EOF:
            nests.append(self.parse_loop())
            self.skip_newlines()
        if not nests:
            raise ParseError("empty program", 1, 1)
        return Program(tuple(nests))

    def parse_loop(self) -> LoopNode:
        head = self.peek()
        if head.kind not in (DOALL, DOSEQ):
            raise ParseError(
                f"expected Doall/Doseq, found {head.text!r}", head.line, head.column
            )
        self.next()
        kind = "doall" if head.kind is DOALL else "doseq"
        self.expect(LPAREN)
        index = self.expect(IDENT).text
        self.expect(COMMA)
        lower = self.parse_affine()
        self.expect(COMMA)
        upper = self.parse_affine()
        self.expect(RPAREN)
        self.expect(NEWLINE)
        body: list = []
        self.skip_newlines()
        while True:
            tok = self.peek()
            if tok.kind in (ENDDOALL, ENDDOSEQ):
                self.next()
                if self.peek().kind is NEWLINE:
                    self.next()
                break
            if tok.kind in (DOALL, DOSEQ):
                body.append(self.parse_loop())
            elif tok.kind in (IDENT, SYNC):
                body.append(self.parse_assign())
            elif tok.kind is EOF:
                raise ParseError(
                    f"unterminated {kind} loop opened here", head.line, head.column
                )
            else:
                raise ParseError(
                    f"unexpected {tok.text!r} in loop body", tok.line, tok.column
                )
            self.skip_newlines()
        return LoopNode(kind, index, lower, upper, tuple(body), head.line, head.column)

    # -- statements -------------------------------------------------------
    def parse_assign(self) -> Assign:
        lhs = self.parse_ref()
        self.expect(EQUALS)
        rhs = self.parse_rhs()
        if self.peek().kind is NEWLINE:
            self.next()
        return Assign(lhs, rhs, lhs.line, lhs.column)

    def parse_rhs(self):
        expr = self.parse_rhs_term()
        while self.peek().kind in (PLUS, MINUS):
            op = self.next()
            expr = BinOp(op.text, expr, self.parse_rhs_term())
        return expr

    def parse_rhs_term(self):
        expr = self.parse_rhs_factor()
        while self.peek().kind in (STAR, SLASH):
            op = self.next()
            expr = BinOp(op.text, expr, self.parse_rhs_factor())
        return expr

    def parse_rhs_factor(self):
        tok = self.peek()
        if tok.kind is LPAREN:
            self.next()
            inner = self.parse_rhs()
            self.expect(RPAREN)
            return inner
        if tok.kind is SYNC or (
            tok.kind is IDENT
            and self.peek(1).kind in (LBRACKET, LPAREN)
        ):
            return self.parse_ref()
        if tok.kind is IDENT:
            self.next()
            return Scalar(tok.text)
        if tok.kind is INT:
            self.next()
            return Const(tok.value)
        if tok.kind is MINUS:  # unary minus
            self.next()
            return Neg(self.parse_rhs_factor())
        raise ParseError(f"unexpected {tok.text!r} in expression", tok.line, tok.column)

    def parse_ref(self) -> RefNode:
        sync = False
        tok = self.peek()
        if tok.kind is SYNC:
            sync = True
            self.next()
        name_tok = self.expect(IDENT)
        open_tok = self.peek()
        if open_tok.kind is LBRACKET:
            close = RBRACKET
        elif open_tok.kind is LPAREN:
            close = RPAREN
        else:
            raise ParseError(
                f"expected subscripts after {name_tok.text!r}",
                open_tok.line,
                open_tok.column,
            )
        self.next()
        subs = [self.parse_affine()]
        while self.peek().kind is COMMA:
            self.next()
            subs.append(self.parse_affine())
        self.expect(close)
        return RefNode(name_tok.text, tuple(subs), sync, name_tok.line, name_tok.column)

    # -- affine expressions ------------------------------------------------
    # A subscript is accumulated as a ``(coefficients, constant)`` pair
    # and becomes one AffineExpr at the end of :meth:`parse_affine`.
    def parse_affine(self) -> AffineExpr:
        coeffs, const = self._affine_sum()
        return _affine_expr(coeffs, const)

    def _affine_sum(self) -> tuple[dict[str, int], int]:
        coeffs, const = self._affine_term()
        while self.peek().kind in (PLUS, MINUS):
            sign = 1 if self.next().kind is PLUS else -1
            rhs, rconst = self._affine_term()
            for v, c in rhs.items():
                coeffs[v] = coeffs.get(v, 0) + sign * c
            const += sign * rconst
        return coeffs, const

    def _affine_term(self) -> tuple[dict[str, int], int]:
        coeffs, const = self._affine_atom()
        while True:
            tok = self.peek()
            if tok.kind is STAR:
                self.next()
                rhs, rconst = self._affine_atom()
                if not any(rhs.values()):
                    coeffs = {v: c * rconst for v, c in coeffs.items()}
                    const *= rconst
                elif not any(coeffs.values()):
                    coeffs = {v: c * const for v, c in rhs.items()}
                    const *= rconst
                else:
                    # Raised by the product itself, with its message.
                    _affine_expr(coeffs, const).multiply(_affine_expr(rhs, rconst))
            elif tok.kind is IDENT and not any(coeffs.values()):
                # implicit product "2i" / "2 i": constant followed by ident
                self.next()
                coeffs, const = {tok.text: const}, 0
            else:
                return coeffs, const

    def _affine_atom(self) -> tuple[dict[str, int], int]:
        tok = self.peek()
        if tok.kind is INT:
            self.next()
            return {}, int(tok.value)
        if tok.kind is IDENT:
            self.next()
            return {tok.text: 1}, 0
        if tok.kind is MINUS:
            self.next()
            coeffs, const = self._affine_atom()
            return {v: -c for v, c in coeffs.items()}, -const
        if tok.kind is PLUS:
            self.next()
            return self._affine_atom()
        if tok.kind is LPAREN:
            self.next()
            inner = self._affine_sum()
            self.expect(RPAREN)
            return inner
        raise ParseError(
            f"expected affine expression, found {tok.text!r}", tok.line, tok.column
        )


def _affine_expr(coeffs: dict[str, int], const: int) -> AffineExpr:
    return AffineExpr(tuple(sorted((v, c) for v, c in coeffs.items() if c)), const)


def parse_program(source: str) -> Program:
    """Parse Doall-language source into a :class:`Program` AST."""
    return Parser(tokenize(source)).parse_program()
