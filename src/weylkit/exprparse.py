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
are capped by the WEYL_MAX_DEGREE environment variable (default 64); so
is the largest exponent of any intermediate value, checked before each
product or power is formed (a sum never raises one), which turns runaway
products into an explicit resource error instead of a memory blowup.
Coefficient size has a budget too: before each product or power, a
bound on its numerators and denominators (from the _coeff_bits of the
factors, plus what normal ordering can add) is checked against the
interpreter's integer-string digit limit, sys.get_int_max_str_digits(),
so a value whose coefficients could not be printed is a resource error
before it is formed, and a parsed value that could not be printed (a sum
can reach one) is a resource error too; with no digit limit there is no
budget.  A long sum or product is
a loop, and recursion happens only through parentheses, which nest at
most 100 deep (deeper input is a resource error too), so no input
exhausts the interpreter stack.  A number past the interpreter's
integer-string digit limit is a parse error as a coefficient and a
resource error as an exponent.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .bipoly import BiPoly, _tops, weyl_max_degree
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


@cache
def _digit_limit(digits: int) -> tuple[int, int]:
    """10^digits, below which a number prints under the interpreter's
    digit limit, and the largest h with 2^h below it: the budget in bits."""
    top = 10 ** digits
    return top, top.bit_length() - 1


def _coeff_bits(value) -> int:
    """Bits h with max(|F|_1, D) <= 2^h, where value = F / D, D the lcm of its denominators.

    Every numerator and denominator of value is at most 2^h.  Since
    F G / (D_f D_g) is the product cleared, a product's bits are at most
    the sum of its factors' bits plus _reorder_bits.
    """
    coeffs = [c for _, c in value.items()]
    den = lcm(*[c.denominator for c in coeffs])
    norm = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    return (max(norm, den) - 1).bit_length()


def _reorder_bits(left_q: int, right_p: int) -> int:
    """Bits by which normal ordering can grow coefficient sums in a Weyl product.

    p^s1 q^i1 * p^s2 q^i2 has coefficients of absolute sum
    sum_t t! C(i1, t) C(s2, t), which is at most (1 + s2)^i1 and (1 + i1)^s2.
    """
    return (min((1 + right_p) ** left_q, (1 + left_q) ** right_p) - 1).bit_length()


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
        self.cap = weyl_max_degree()
        self.digits = sys.get_int_max_str_digits()
        self.top, self.budget = _digit_limit(self.digits) if self.digits else (None, None)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def check_cap(self, worst: int) -> None:
        if worst > self.cap:
            raise ResourceLimitError(
                f"intermediate exponent {worst} exceeds WEYL_MAX_DEGREE={self.cap}")

    def check_budget(self, bits: int) -> None:
        if self.budget is not None and bits > self.budget:
            raise ResourceLimitError(
                f"intermediate coefficients could pass the interpreter's "
                f"{self.digits}-digit integer limit")

    def reorder_bits(self, left_q: int, right_p: int) -> int:
        return _reorder_bits(left_q, right_p) if self.mode == "weyl" else 0

    def parse(self):
        value = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected {tail.text!r}", tail.position)
        # sums are not budgeted before they are formed, but they at most
        # add the digits of their terms, so checking the result suffices
        top = self.top
        if top is not None and any(abs(c.numerator) >= top or c.denominator >= top
                                   for _, c in value.items()):
            raise ResourceLimitError(
                f"a coefficient passes the interpreter's {self.digits}-digit integer limit")
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
            right = self.factor()
            (i, j), (k, m) = _tops(value), _tops(right)
            self.check_cap(max(i + k, j + m))
            self.check_budget(_coeff_bits(value) + _coeff_bits(right) + self.reorder_bits(j, k))
            value = value * right

    def factor(self):
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.take()
            exp = self.peek()
            if exp.kind != "number" or "/" in exp.text:
                raise ParseError("exponent must be a natural number",
                                 exp.position if exp.kind != "end" else caret.position)
            self.take()
            try:
                n = int(exp.text)
            except ValueError:  # past the interpreter's digit limit, so above any cap
                raise ResourceLimitError(f"exponent exceeds WEYL_MAX_DEGREE={self.cap} "
                                         f"(at position {exp.position})") from None
            if n > self.cap:
                raise ResourceLimitError(
                    f"exponent {n} exceeds WEYL_MAX_DEGREE={self.cap}")
            a, b = _tops(base)
            self.check_cap(n * max(a, b))
            # base^n = base^(n-1) * base, whose left factor has q-exponent (n-1) b
            self.check_budget(n * _coeff_bits(base)
                              + sum(self.reorder_bits(k * b, a) for k in range(1, n)))
            return base ** n
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
