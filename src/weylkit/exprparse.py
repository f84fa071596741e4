"""Expression parsing for the two symbol modes.

Weyl mode admits the symbols p and q and evaluates products
noncommutatively left to right; polynomial mode admits X and Y.  The
grammar is

    expr   := ('-')? term (('+' | '-') term)*
    factor := atom ('^' nat)?
    term   := factor ('*'? factor)*
    atom   := rational | symbol | '(' expr ')'

with juxtaposition meaning multiplication.  Exponents are capped by the
WEYL_MAX_DEGREE environment variable (default 64); so is the largest
exponent of any intermediate value, which turns runaway products into an
explicit resource error instead of a memory blowup.  Parentheses nest at
most 100 deep (deeper input is a resource error too), and evaluation walks
the tree without recursion, so no input exhausts the interpreter stack.
A number past the interpreter's integer-string digit limit is a parse
error as a coefficient and a resource error as an exponent.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .bipoly import BiPoly
from .errors import ParseError, ResourceLimitError
from .weyl import WeylElement

__all__ = ["Expr", "Num", "Sym", "Add", "Sub", "Mul", "Pow", "Neg",
           "parse", "evaluate", "parse_element", "weyl_max_degree"]

_ALGEBRAS = {"weyl": WeylElement, "poly": BiPoly}
_MAX_NESTING = 100


def _algebra(mode: str):
    if mode not in _ALGEBRAS:
        raise ValueError(f"unknown mode {mode!r}")
    return _ALGEBRAS[mode]


def weyl_max_degree() -> int:
    raw = os.environ.get("WEYL_MAX_DEGREE", "64")
    try:
        cap = int(raw)
    except ValueError:
        raise ResourceLimitError(f"WEYL_MAX_DEGREE must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ResourceLimitError("WEYL_MAX_DEGREE must be positive")
    return cap


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


Expr = Union[Num, Sym, Add, Sub, Mul, Pow, Neg]


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
    """Recursive-descent parser over the lexed token stream."""

    def __init__(self, text: str, mode: str):
        self.symbols = _algebra(mode)._SYMBOLS
        self.tokens = _lex(text)
        self.pos = 0
        self.depth = 0
        self.mode = mode
        self.cap = weyl_max_degree()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected {tail.text!r}", tail.position)
        return node

    def expr(self) -> Expr:
        if self.peek().kind == "-":
            self.take()
            node: Expr = Neg(self.term())
        else:
            node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            right = self.term()
            node = Add(node, right) if op.kind == "+" else Sub(node, right)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            nxt = self.peek()
            if nxt.kind == "*":
                self.take()
                node = Mul(node, self.factor())
            elif nxt.kind in ("number", "symbol", "("):
                node = Mul(node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        node = self.atom()
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
            return Pow(node, n)
        return node

    def atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "number":
            try:
                return Num(Fraction(tok.text))
            except ZeroDivisionError:
                raise ParseError("zero denominator", tok.position) from None
            except ValueError:  # digits only: the interpreter's digit limit
                raise ParseError("number has too many digits", tok.position) from None
        if tok.kind == "symbol":
            if tok.text not in self.symbols:
                hint = next((f" (did you mean {mode} mode?)" for mode, cls in _ALGEBRAS.items()
                             if tok.text in cls._SYMBOLS), "")
                raise ParseError(
                    f"symbol {tok.text!r} is not available in {self.mode} mode; "
                    f"use {', '.join(self.symbols)}{hint}", tok.position)
            return Sym(tok.text)
        if tok.kind == "(":
            if self.depth == _MAX_NESTING:
                raise ResourceLimitError(f"parentheses nested deeper than {_MAX_NESTING} "
                                         f"(at position {tok.position})")
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            closer = self.take()
            if closer.kind != ")":
                raise ParseError("expected ')'", closer.position)
            return node
        raise ParseError(f"unexpected {tok.text!r}" if tok.kind != "end"
                         else "unexpected end of input", tok.position)


def parse(text: str, mode: str) -> Expr:
    """Parse an expression in the given mode without evaluating it."""
    return _Parser(text, mode).parse()


def _check_cap(value, cap: int):
    exps = value.support()
    if exps:
        worst = max(max(i, j) for i, j in exps)
        if worst > cap:
            raise ResourceLimitError(
                f"intermediate exponent {worst} exceeds WEYL_MAX_DEGREE={cap}")
    return value


def evaluate(node: Expr, mode: str):
    """Evaluate a parsed tree to a WeylElement or BiPoly.

    Weyl-mode products multiply noncommutatively in source order.
    """
    cls = _algebra(mode)
    cap = weyl_max_degree()
    sym = dict(zip(cls._SYMBOLS, cls._gens()))

    # Post-order walk on an explicit stack: a long sum or product is a deep
    # left-leaning tree.  Left operands are evaluated before right ones.
    todo: list[tuple[Expr, bool]] = [(node, False)]
    values: list = []
    while todo:
        n, expanded = todo.pop()
        if isinstance(n, Num):
            values.append(cls.constant(n.value))
        elif isinstance(n, Sym):
            values.append(sym[n.name])
        elif not expanded:
            todo.append((n, True))
            todo.extend((child, False) for child in reversed(_children(n)))
        elif isinstance(n, Neg):
            values.append(-values.pop())
        elif isinstance(n, Pow):
            values.append(_check_cap(values.pop() ** n.exponent, cap))
        else:
            right = values.pop()
            values.append(_check_cap(_BINARY[type(n)](values.pop(), right), cap))
    return values.pop()


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _children(n: Expr) -> tuple[Expr, ...]:
    if isinstance(n, (Add, Sub, Mul)):
        return (n.left, n.right)
    if isinstance(n, Pow):
        return (n.base,)
    if isinstance(n, Neg):
        return (n.operand,)
    raise TypeError(f"not an expression node: {n!r}")


def parse_element(text: str, mode: str):
    """Parse and evaluate in one call."""
    return evaluate(parse(text, mode), mode)
