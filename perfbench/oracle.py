"""Result checks that share no code with weylkit.

Weyl elements are checked through their action on Q[x], with p acting as
d/dx and q as multiplication by x; commutative polynomials are checked by
evaluation at seeded points.  Both are randomized identity tests carried
out modulo the prime 2**61 - 1: a wrong result passes one test with
probability at most (degree + 1) / 2**61.  Only the term maps of the
library's objects are read (``items()``); no weylkit arithmetic is called.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from random import Random
from typing import Iterable, Sequence

P = (1 << 61) - 1

Terms = Iterable[tuple[tuple[int, int], Fraction]]


def to_mod(c) -> int:
    c = Fraction(c)
    return c.numerator % P * pow(c.denominator, -1, P) % P


def _mod_terms(terms: Terms) -> list[tuple[int, int, int]]:
    return [(i, j, to_mod(c)) for (i, j), c in terms]


def p_degree(el) -> int:
    return max((i for (i, _), _ in el.items()), default=0)


# ---------------------------------------------------------------------------
# Weyl side: action on Q[x] (coefficient lists, constant term first)

def act(el, f: Sequence[int]) -> list[int]:
    """Image of f under the operator sum c p^i q^j, i.e. d^i/dx^i (x^j f)."""
    terms = _mod_terms(el.items())
    top = max((len(f) - 1 + j - i for i, j, _ in terms), default=0)
    out = [0] * (max(top, 0) + 1)
    for i, j, c in terms:
        for k, a in enumerate(f):
            n = k + j
            if a and n >= i:
                out[n - i] = (out[n - i] + c * a * perm(n, i)) % P
    return out


def _sub(f: Sequence[int], g: Sequence[int]) -> list[int]:
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return [(a - b) % P for a, b in zip(f, g)]


def _same(f: Sequence[int], g: Sequence[int]) -> bool:
    return not any(_sub(f, g))


def random_polys(rng: Random, degree: int, count: int = 2) -> list[list[int]]:
    """Random test polynomials; degree must reach the operator order checked."""
    return [[rng.randrange(P) for _ in range(degree + 1)] for _ in range(count)]


def check_weyl_product(rng: Random, a, b, result) -> bool:
    order = max(p_degree(result), p_degree(a) + p_degree(b))
    return all(_same(act(result, f), act(a, act(b, f)))
               for f in random_polys(rng, order + 1))


def check_weyl_commutator(rng: Random, a, b, result) -> bool:
    order = max(p_degree(result), p_degree(a) + p_degree(b))
    return all(_same(act(result, f), _sub(act(a, act(b, f)), act(b, act(a, f))))
               for f in random_polys(rng, order + 1))


def commutator_is_one(rng: Random, z, w) -> bool:
    """Whether z w - w z acts as the identity on random test polynomials."""
    order = p_degree(z) + p_degree(w)
    return all(_same(_sub(act(z, act(w, f)), act(w, act(z, f))), f)
               for f in random_polys(rng, order + 1))


# ---------------------------------------------------------------------------
# commutative side: evaluation at points

def evaluate(poly, x: int, y: int) -> int:
    return sum(c * pow(x, i, P) * pow(y, j, P) for i, j, c in _mod_terms(poly.items())) % P


def _partials(poly, x: int, y: int) -> tuple[int, int]:
    fx = fy = 0
    for i, j, c in _mod_terms(poly.items()):
        if i:
            fx += c * i * pow(x, i - 1, P) * pow(y, j, P)
        if j:
            fy += c * j * pow(x, i, P) * pow(y, j - 1, P)
    return fx % P, fy % P


def points(rng: Random, count: int = 2) -> list[tuple[int, int]]:
    return [(rng.randrange(P), rng.randrange(P)) for _ in range(count)]


def check_poly_product(rng: Random, f, g, result) -> bool:
    return all(evaluate(result, x, y) == evaluate(f, x, y) * evaluate(g, x, y) % P
               for x, y in points(rng))


def check_poisson(rng: Random, f, g, result) -> bool:
    """{f, g} = f_X g_Y - f_Y g_X, compared at random points."""
    for x, y in points(rng):
        fx, fy = _partials(f, x, y)
        gx, gy = _partials(g, x, y)
        if evaluate(result, x, y) != (fx * gy - fy * gx) % P:
            return False
    return True


def check_power_decomposition(rng: Random, f, m_built: int, result) -> bool:
    """f = lam * h**m with m equal to the exponent f was built with."""
    lam, h, m = result
    if m != m_built:
        return False
    lam = to_mod(lam)
    return all(evaluate(f, x, y) == lam * pow(evaluate(h, x, y), m, P) % P
               for x, y in points(rng))
