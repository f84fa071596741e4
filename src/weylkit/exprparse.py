"""Expression parsing for the two symbol modes.

Weyl mode admits the symbols p and q and evaluates products
noncommutatively left to right; polynomial mode admits X and Y.  The
grammar is

    expr   := ('-')? term (('+' | '-') term)*
    factor := atom ('^' nat)?
    term   := factor ('*'? factor)*
    atom   := rational | symbol | '(' expr ')'

with juxtaposition meaning multiplication.  Each production computes its
value as the input is read, so there is no expression tree and no second
pass; the first fault in reading order is the one reported.  Exponents
are capped by the WEYL_MAX_DEGREE environment variable (default 64).
Every product, and base^n as n products by base, goes through
bipoly._checked_product, which holds the resource budget: it raises
ResourceLimitError before a product could pass the degree cap or have
coefficients past the interpreter's integer-string digit limit.  A sum
can also pass that limit, so the parsed value is checked once more.  A
long sum or product is a loop, and recursion happens only through
parentheses, which nest at most 100 deep (deeper input is a resource
error too), so no input exhausts the interpreter stack.  A number past
the digit limit is a parse error as a coefficient and a resource error
as an exponent.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly, _checked_product, _digit_limit, weyl_max_degree
from .errors import ParseError, ResourceLimitError
from .weyl import WeylElement

__all__ = ["parse_element", "weyl_max_degree"]

_ALGEBRAS = {"weyl": WeylElement, "poly": BiPoly}
_MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    at = 0
    n = len(text)
    while at < n:
        ch = text[at]
        if ch.isspace():
            at += 1
            continue
        if ch.isdigit():
            start = at
            while at < n and text[at].isdigit():
                at += 1
            if at < n and text[at] == "/":
                probe = at + 1
                while probe < n and text[probe].isdigit():
                    probe += 1
                if probe == at + 1:
                    raise ParseError("expected digits after '/'", at + 1)
                at = probe
            tokens.append(_Token("number", text[start:at], start))
            continue
        if ch.isalpha():
            tokens.append(_Token("symbol", ch, at))
            at += 1
            continue
        if ch in "+-*^()":
            tokens.append(_Token(ch, ch, at))
            at += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", at)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser that returns the value of what it reads."""

    def __init__(self, text: str, mode: str):
        if mode not in _ALGEBRAS:
            raise ValueError(f"unknown mode {mode!r}")
        self.cls = _ALGEBRAS[mode]
        self.gens = dict(zip(self.cls._SYMBOLS, self.cls._gens()))
        self.tokens = _lex(text)
        self.pos = 0
        self.depth = 0
        self.mode = mode

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected {tail.text!r}", tail.position)
        digits = sys.get_int_max_str_digits()
        if digits and any(max(abs(c.numerator), c.denominator) >= _digit_limit(digits)
                          for _, c in value.items()):
            raise ResourceLimitError(
                f"a coefficient passes the interpreter's {digits}-digit integer limit")
        return value

    def expr(self):
        if self.peek().kind == "-":
            self.take()
            value = -self.term()
        else:
            value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            right = self.term()
            value = value + right if op.kind == "+" else value - right
        return value

    def term(self):
        value = self.factor()
        while True:
            nxt = self.peek()
            if nxt.kind == "*":
                self.take()
            elif nxt.kind not in ("number", "symbol", "("):
                return value
            value = _checked_product(value, self.factor())

    def factor(self):
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.take()
            exp = self.peek()
            if exp.kind != "number" or "/" in exp.text:
                raise ParseError("exponent must be a natural number",
                                 exp.position if exp.kind != "end" else caret.position)
            self.take()
            cap = weyl_max_degree()
            try:
                n = int(exp.text)
            except ValueError:  # past the interpreter's digit limit, so above any cap
                raise ResourceLimitError(f"exponent exceeds WEYL_MAX_DEGREE={cap} "
                                         f"(at position {exp.position})") from None
            if n > cap:
                raise ResourceLimitError(f"exponent {n} exceeds WEYL_MAX_DEGREE={cap}")
            value = self.cls.one()
            for _ in range(n):
                value = _checked_product(value, base)
            return value
        return base

    def atom(self):
        tok = self.take()
        if tok.kind == "number":
            try:
                coeff = Fraction(tok.text)
            except ZeroDivisionError:
                raise ParseError("zero denominator", tok.position) from None
            except ValueError:  # digits only: the interpreter's digit limit
                raise ParseError("number has too many digits", tok.position) from None
            return self.cls.constant(coeff)
        if tok.kind == "symbol":
            if tok.text not in self.gens:
                hint = next((f" (did you mean {mode} mode?)" for mode, cls in _ALGEBRAS.items()
                             if tok.text in cls._SYMBOLS), "")
                raise ParseError(
                    f"symbol {tok.text!r} is not available in {self.mode} mode; "
                    f"use {', '.join(self.gens)}{hint}", tok.position)
            return self.gens[tok.text]
        if tok.kind == "(":
            if self.depth == _MAX_NESTING:
                raise ResourceLimitError(f"parentheses nested deeper than {_MAX_NESTING} "
                                         f"(at position {tok.position})")
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            closer = self.take()
            if closer.kind != ")":
                raise ParseError("expected ')'", closer.position)
            return value
        raise ParseError(f"unexpected {tok.text!r}" if tok.kind != "end"
                         else "unexpected end of input", tok.position)


def parse_element(text: str, mode: str):
    """Read text as a WeylElement (weyl mode) or a BiPoly (poly mode)."""
    return _Parser(text, mode).parse()
