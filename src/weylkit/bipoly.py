"""Sparse bivariate elements over Q with direction-graded tools.

An element is stored as a map from exponent pairs (i, j) to nonzero
Fraction coefficients; all arithmetic is exact.  One element class serves
both algebras, Q[X, Y] (BiPoly) and the Weyl algebra on the basis p^i q^j
(weyl.WeylElement), which differ only in the product rule that the
integer kernel below runs.  On top of the ring structure this module
provides the weighted degree, leading form and homogeneous decomposition
for an integer direction (rho, sigma), plus exact m-th roots and the
maximal power decomposition f = lam * h^m used by the centralizer machinery.
"""

from __future__ import annotations

import os
import struct
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import index, itemgetter
from typing import Optional, Union

from .errors import ResourceLimitError

NEG_INF = float("-inf")  # degree of the zero polynomial

Exponent = tuple[int, int]
Scalar = Union[Fraction, int, str]


def _fr(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _glex_key(e: Exponent) -> tuple[int, int]:
    # graded lexicographic order with X > Y
    return (e[0] + e[1], e[0])


class _SparseTerms:
    """The element class of both algebras: an exponent->coefficient map.

    A subclass sets two class attributes and nothing else is per algebra:
    _RULE, the product rule the kernel runs (_TIMES or _WEYL), and
    _SYMBOLS, the two generator names used for printing and parsing.
    The kernel's two other rules have their own entry points:
    poisson.poisson_bracket runs _BRACKET and weyl.commutator runs
    _COMMUTATOR, which never forms the two products it is the difference of.

    Instances are treated as immutable after construction; the term map is
    canonical (no zero coefficients, exponents are nonnegative ints).
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Union[Mapping[Exponent, Scalar], Iterable[tuple[Exponent, Scalar]], None] = None):
        canon: dict[Exponent, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for (i, j), raw in items:
            try:
                e = (index(i), index(j))
            except TypeError:
                raise ValueError(f"non-integer exponent in term ({i!r}, {j!r})") from None
            if e[0] < 0 or e[1] < 0:
                raise ValueError(f"negative exponent in term ({i}, {j})")
            c = _fr(raw)
            if c:
                c0 = canon.get(e)
                c = c if c0 is None else c0 + c
                if c:
                    canon[e] = c
                else:
                    canon.pop(e, None)
        self._terms = canon
        self._hash: Optional[int] = None

    @classmethod
    def _from_canonical(cls, terms: dict[Exponent, Fraction]):
        """Wrap a term map that is already canonical, without re-checking it."""
        obj = cls.__new__(cls)
        obj._terms = terms
        obj._hash = None
        return obj

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c: Scalar):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c: Scalar = 1):
        return cls({(i, j): c})

    @classmethod
    def _gens(cls):
        return cls({(1, 0): 1}), cls({(0, 1): 1})

    # -- queries ---------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self._terms.items())

    def coeff(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def support(self) -> frozenset[Exponent]:
        """Exponent pairs carrying a nonzero coefficient (empty for 0)."""
        return frozenset(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def constant_coeff(self) -> Fraction:
        return self.coeff(0, 0)

    def total_degree(self) -> int | float:
        if not self._terms:
            return NEG_INF
        return max(i + j for (i, j) in self._terms)

    def glex_lead(self) -> tuple[Exponent, Fraction]:
        """Leading (exponent, coefficient) in graded-lex order with X > Y."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._terms, key=_glex_key)
        return e, self._terms[e]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, frozenset(self._terms.items())))
        return self._hash

    def __str__(self) -> str:
        """Render the terms deterministically; round-trips through the parser."""
        terms = self._terms
        if not terms:
            return "0"
        sym1, sym2 = self._SYMBOLS
        parts: list[str] = []
        for (i, j) in sorted(terms, key=_glex_key, reverse=True):
            c = terms[(i, j)]
            mono = []
            if i:
                mono.append(sym1 if i == 1 else f"{sym1}^{i}")
            if j:
                mono.append(sym2 if j == 1 else f"{sym2}^{j}")
            mag = abs(c)
            if mono and mag == 1:
                body = " ".join(mono)
            elif mono:
                body = " ".join([str(mag)] + mono)
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    # -- ring structure shared by both algebras --------------------------

    def _add_terms(self, other: "_SparseTerms", sign: int) -> dict[Exponent, Fraction]:
        out = dict(self._terms)
        for e, c in other._terms.items():
            c2 = out.get(e, Fraction(0)) + sign * c
            if c2:
                out[e] = c2
            else:
                out.pop(e, None)
        return out

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(self._add_terms(other, +1))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(self._add_terms(other, -1))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return type(self)({e: -c for e, c in self._terms.items()})

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.constant(other)
        return NotImplemented

    def _scaled(self, c: Fraction):
        if not c:
            return self.zero()
        return type(self)({e: c * v for e, v in self._terms.items()})

    def __mul__(self, other):
        """Exact product under the class's rule; scalars scale.

        Both operands' denominators are cleared once and the product runs
        in Python ints: Kronecker packing when the term pairs are more than
        twice the packed slot count, an integer schoolbook loop otherwise.
        Each output coefficient is built as a single Fraction.
        """
        if isinstance(other, (int, Fraction)):
            return self._scaled(_fr(other))
        if type(other) is not type(self):
            return NotImplemented
        return self._from_canonical(_product(self._terms, other._terms, self._RULE))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(_fr(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, x_image: "_SparseTerms", y_image: "_SparseTerms",
                   y_powers: Optional[list] = None):
        """Sum of c * x_image^i * y_image^j over the terms c (i, j) of self.

        x_image and y_image belong to one algebra, commutative or not, which
        need not be the algebra of self; the result is in theirs.  It is
        formed by Horner's rule in x_image: the terms are grouped by i into
        rows P_i = sum_j c_ij y_image^j, each built as a linear combination
        of the powers of y_image in one coefficient dict, with no product,
        and the rows are folded from the top i down as
        acc = x_image * acc + P_i.  x_image stays on the left, so the normal
        order p^i q^j holds in either algebra.  That is one product per
        degree of self in its first generator, plus one per power of
        y_image not formed before; y_powers, a list [1, y_image, ...] read
        and extended in place, lets substitutions of one y_image share them.

        Before any row or product is formed, the largest exponent of the
        result is bounded by i * _tops(x_image) + j * _tops(y_image) over the
        terms (i, j); over WEYL_MAX_DEGREE it raises ResourceLimitError.  So
        do its coefficient bits, over the budget: with (I, J) = _tops(self),
        self = F / D, x_image = X / D_x and y_image = Y / D_y, the result
        times D D_x^I D_y^J is integral, with coefficients summing to at most
        |F|_1 max |X|_1^i D_x^(I-i) |Y|_1^j D_y^(J-j) over the terms (i, j),
        times what normal ordering adds in forming x_image^I, y_image^J (each
        step adding at most what the last does) and their product.  Horner's
        partial sums substitute parts of self, so they obey the same bound.
        """
        (a1, b1), (a2, b2) = _tops(x_image), _tops(y_image)
        worst = max((max(i * a1 + j * a2, i * b1 + j * b2) for i, j in self._terms), default=0)
        cap = weyl_max_degree()
        if worst > cap:
            raise ResourceLimitError(
                f"substitution would reach exponent {worst}, over WEYL_MAX_DEGREE={cap}")
        big_i, big_j = _tops(self)
        bits = _coeff_bits(self) + big_i * _coeff_bits(x_image) + big_j * _coeff_bits(y_image)
        if x_image._RULE == _WEYL:
            i1, j1 = max(big_i - 1, 0), max(big_j - 1, 0)
            bits += (i1 * _reorder_bits(i1 * b1, a1) + j1 * _reorder_bits(j1 * b2, a2)
                     + _reorder_bits(big_i * b1, big_j * a2))
        _check_bits(bits)
        rows: dict[int, list[tuple[int, Fraction]]] = {}
        for (i, j), c in self._terms.items():
            rows.setdefault(i, []).append((j, c))
        if y_powers is None:
            y_powers = [y_image.one()]
        acc = x_image.zero()
        for i in range(max(rows, default=-1), -1, -1):
            # a product's term map is fresh, so the row is added into it in place
            terms = (x_image * acc)._terms if acc else {}
            for j, c in rows.get(i, ()):
                while len(y_powers) <= j:
                    y_powers.append(y_powers[-1] * y_image)
                for e, v in y_powers[j]._terms.items():
                    s = c * v
                    old = terms.get(e)
                    if old is not None:
                        s += old
                        if not s:
                            del terms[e]
                            continue
                    terms[e] = s
            acc = x_image._from_canonical(terms)
        return acc


def weyl_max_degree() -> int:
    """The degree cap: WEYL_MAX_DEGREE from the environment, 64 if unset.

    _checked_product and substitute both read it here, on every use.
    """
    raw = os.environ.get("WEYL_MAX_DEGREE", "64")
    try:
        cap = int(raw)
    except ValueError:
        raise ResourceLimitError(f"WEYL_MAX_DEGREE must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ResourceLimitError("WEYL_MAX_DEGREE must be positive")
    return cap


def _tops(value: _SparseTerms) -> tuple[int, int]:
    """The largest exponent of each generator in value; (0, 0) for zero.

    In both algebras these add up under multiplication (the Weyl product's
    correction terms lower both), so they bound the exponents of a product,
    power or substitution before it is formed.
    """
    exps = value._terms
    return (max(i for i, _ in exps), max(j for _, j in exps)) if exps else (0, 0)


# -- the coefficient budget ----------------------------------------------
# Coefficients of parsed products and of substitutions stay printable under
# sys.get_int_max_str_digits(); with no digit limit there is no budget.

@cache
def _digit_limit(digits: int) -> int:
    """10^digits, below which a number prints under a digits-digit limit."""
    return 10 ** digits


def _coeff_bits(value: _SparseTerms) -> int:
    """Bits h with max(|F|_1, D) <= 2^h, where value = F / D, D the lcm of its denominators.

    Every numerator and denominator of value is at most 2^h, and a product's
    bits are at most its factors' bits plus _reorder_bits.
    """
    coeffs = value._terms.values()
    den = lcm(*[c.denominator for c in coeffs])
    norm = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    return (max(norm, den) - 1).bit_length()


def _reorder_bits(left_q: int, right_p: int) -> int:
    """Bits by which normal ordering can grow coefficient sums in a Weyl product.

    p^s1 q^i1 * p^s2 q^i2 has coefficients of absolute sum
    sum_t t! C(i1, t) C(s2, t), which is at most (1 + s2)^i1 and (1 + i1)^s2.
    """
    return (min((1 + right_p) ** left_q, (1 + left_q) ** right_p) - 1).bit_length()


def _check_bits(bits: int) -> None:
    """Raise ResourceLimitError if coefficients of that many bits could pass the digit limit."""
    digits = sys.get_int_max_str_digits()
    if digits and bits >= _digit_limit(digits).bit_length():
        raise ResourceLimitError(f"intermediate coefficients could pass the interpreter's "
                                 f"{digits}-digit integer limit")


def _checked_product(f: _SparseTerms, g: _SparseTerms) -> _SparseTerms:
    """f * g, once its exponents are known to stay under WEYL_MAX_DEGREE and
    its coefficients inside the budget; ResourceLimitError otherwise."""
    (i, j), (k, m) = _tops(f), _tops(g)
    worst, cap = max(i + k, j + m), weyl_max_degree()
    if worst > cap:
        raise ResourceLimitError(f"intermediate exponent {worst} exceeds WEYL_MAX_DEGREE={cap}")
    _check_bits(_coeff_bits(f) + _coeff_bits(g) + (_reorder_bits(j, k) if f._RULE == _WEYL else 0))
    return f * g


# -- the exact product kernel --------------------------------------------
#
# Four bilinear products share one integer kernel: the commutative
# product, the normal-ordered Weyl product, the Poisson bracket and the
# Weyl commutator.  Each operand's denominators are cleared once
# (f = F / D_f with F integral), the product runs on Python ints, and each
# output coefficient becomes one Fraction n / (D_f * D_g).  Exponents
# (i, j) are keyed as i * w + j, with w larger than any output j, so
# exponents add when keys add.  The commutator [f, g] is computed in one
# pass, never as f * g - g * f: the t = 0 terms of the Weyl product are the
# commutative product, which cancels between the two orders, so only the
# t >= 1 terms of both orders are formed, into one accumulator.
#
# Dense operands are multiplied by Kronecker substitution: an integer
# polynomial becomes one big int with a fixed-width slot per key, and
# CPython's Karatsuba multiplies those.  Sparse or tiny operands, whose
# term pairs len(f) * len(g) are at most twice the packed slot count, go
# through an integer schoolbook loop instead, because packing and unpacking
# every slot would cost more than the pairs themselves.

_TIMES, _WEYL, _BRACKET, _COMMUTATOR = "times", "weyl", "bracket", "commutator"
_PAIRS_PER_SLOT = 2  # schoolbook while len(f) * len(g) <= this * slot count


def _cleared(terms: Mapping[Exponent, Fraction], w: int) -> tuple[int, list[tuple[int, ...]]]:
    """Common denominator D of a term map, and its terms (i * w + j, i, j, D * c)."""
    den = lcm(*[c.denominator for c in terms.values()])
    return den, [(i * w + j, i, j, c.numerator * (den // c.denominator))
                 for (i, j), c in terms.items()]


# struct codes of little-endian unsigned slots of 1, 2, 4 and 8 bytes: such
# slots are converted in one call, wider ones one at a time.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_width(bound: int) -> int:
    """Bytes per slot for integers of absolute value at most bound, plus a sign bit."""
    width = (bound.bit_length() + 8) // 8
    return next((w for w in _STRUCT_CODES if w >= width), width)


def _bias(nslots: int, width: int) -> int:
    """Half a slot in each of nslots slots: 2^(8 width - 1) * sum_k 2^(8 width k)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * nslots, "little")


def _pack(terms: list[tuple[int, int]], width: int) -> int:
    """Kronecker image sum n * 2^(8 width key) of (key, n) integer terms.

    Every slot is written biased by half a slot, so it is nonnegative; the
    bias is subtracted from the packed int as a whole.
    """
    half = 1 << (8 * width - 1)
    slots = [half] * (max(k for k, _ in terms) + 1)
    for k, n in terms:
        slots[k] = half + n
    code = _STRUCT_CODES.get(width)
    if code is None:
        raw = b"".join([v.to_bytes(width, "little") for v in slots])
    else:
        raw = struct.pack(f"<{len(slots)}{code}", *slots)
    return int.from_bytes(raw, "little") - _bias(len(slots), width)


def _unpack(x: int, nslots: int, width: int) -> dict[int, int]:
    """Nonzero slots {key: n} of a Kronecker image whose slots hold |n| < 2^(8 width - 1)."""
    half = 1 << (8 * width - 1)
    raw = (x + _bias(nslots, width)).to_bytes(nslots * width, "little")
    code = _STRUCT_CODES.get(width)
    if code is None:
        slots = [int.from_bytes(raw[at:at + width], "little") for at in range(0, len(raw), width)]
    else:
        slots = struct.unpack(f"<{nslots}{code}", raw)
    return {k: v - half for k, v in enumerate(slots) if v != half}


def _kronecker(factors: list[tuple[int, list, list]], nslots: int) -> dict[int, int]:
    """Sum of sign * F * G over (sign, F, G) integer polynomials, by packing.

    The slot width bounds every output coefficient plus a sign bit.  A term
    of F meets at most one term of G in any slot, so a slot of F * G is at
    most min(max|F| * sum|G|, sum|F| * max|G|); the bound adds these over
    the factors.  The packed products are summed into one accumulator,
    which is unpacked once.
    """
    bound = 0
    for _, f, g in factors:
        abs_f, abs_g = [abs(n) for _, n in f], [abs(n) for _, n in g]
        bound += min(max(abs_f) * sum(abs_g), sum(abs_f) * max(abs_g))
    width = _slot_width(bound)
    acc = 0
    for sign, f, g in factors:
        if sign > 0:
            acc += _pack(f, width) * _pack(g, width)
        else:
            acc -= _pack(f, width) * _pack(g, width)
    return _unpack(acc, nslots, width)


def _product(f: Mapping[Exponent, Fraction], g: Mapping[Exponent, Fraction],
             rule: str) -> dict[Exponent, Fraction]:
    """Exact bilinear product of two canonical term maps.

    rule _TIMES is the commutative product in Q[X, Y]; _WEYL the
    normal-ordered product, where p^i q^j is keyed as (i, j) and

        f * g = sum_t (-1)^t (d_q^t f / t!) (d_p^t g);

    _BRACKET the Poisson bracket f_X g_Y - f_Y g_X; _COMMUTATOR the Weyl
    commutator

        [f, g] = sum_{t>=1} (-1)^t / t! ((d_q^t f)(d_p^t g) - (d_q^t g)(d_p^t f)),

    whose t = 0 terms cancel and are never formed.  The result is a
    canonical term map.
    """
    if not f or not g:
        return {}
    w = max(map(itemgetter(1), f)) + max(map(itemgetter(1), g)) + 1
    nslots = (max(f)[0] + max(g)[0] + 1) * w
    den_f, a = _cleared(f, w)
    den_g, b = _cleared(g, w)
    if len(a) * len(b) <= _PAIRS_PER_SLOT * nslots:
        acc = _schoolbook(a, b, w, rule)
    else:
        acc = _kronecker(_factors(a, b, w, rule), nslots)
    den = den_f * den_g
    return {divmod(k, w): Fraction(n, den) for k, n in acc.items() if n}


def _schoolbook(a: list, b: list, w: int, rule: str) -> dict[int, int]:
    """Integer term-pair loop over keyed terms (key, i, j, n)."""
    acc: dict[int, int] = {}
    get = acc.get
    if rule == _TIMES:
        for ka, _, _, x in a:
            for kb, _, _, y in b:
                k = ka + kb
                acc[k] = get(k, 0) + x * y
    elif rule == _BRACKET:
        # {X^i Y^j, X^k Y^l} = (i l - j k) X^(i+k-1) Y^(j+l-1)
        shift = w + 1
        for ka, i, j, x in a:
            for kb, i2, j2, y in b:
                s = i * j2 - j * i2
                if s:
                    k = ka + kb - shift
                    acc[k] = get(k, 0) + s * x * y
    elif rule == _WEYL:
        # p^s1 q^i1 * p^s2 q^i2 = sum_t (-1)^t t! C(i1, t) C(s2, t) p^(s1+s2-t) q^(i1+i2-t)
        step = w + 1
        for ka, _, i1, x in a:
            for kb, s2, _, y in b:
                k = ka + kb
                c = x * y
                acc[k] = get(k, 0) + c
                for t in range(1, min(i1, s2) + 1):
                    c = -c * (i1 - t + 1) * (s2 - t + 1) // t
                    k -= step
                    acc[k] = get(k, 0) + c
    else:
        # [p^s1 q^i1, p^s2 q^i2]
        #   = sum_{t>=1} (-1)^t t! (C(i1, t) C(s2, t) - C(i2, t) C(s1, t)) p^(s1+s2-t) q^(i1+i2-t)
        step = w + 1
        for ka, s1, i1, x in a:
            for kb, s2, i2, y in b:
                top = max(min(i1, s2), min(i2, s1))
                if not top:
                    continue
                k = ka + kb
                c = d = x * y
                for t in range(1, top + 1):
                    c = -c * (i1 - t + 1) * (s2 - t + 1) // t
                    d = -d * (i2 - t + 1) * (s1 - t + 1) // t
                    k -= step
                    acc[k] = get(k, 0) + c - d
    return acc


def _factors(a: list, b: list, w: int, rule: str) -> list[tuple[int, list, list]]:
    """The commutative products (sign, F, G) whose sum is the product under rule."""
    if rule == _TIMES:
        return [(1, [(k, n) for k, _, _, n in a], [(k, n) for k, _, _, n in b])]
    if rule == _COMMUTATOR:
        # the Weyl factors of both orders without their t = 0 factor, the
        # reversed order's with the opposite sign
        return (_factors(a, b, w, _WEYL)[1:]
                + [(-s, f, g) for s, f, g in _factors(b, a, w, _WEYL)[1:]])
    if rule == _BRACKET:
        f_x = [(k - w, i * n) for k, i, _, n in a if i]
        f_y = [(k - 1, j * n) for k, _, j, n in a if j]
        g_x = [(k - w, i * n) for k, i, _, n in b if i]
        g_y = [(k - 1, j * n) for k, _, j, n in b if j]
        return [(s, f, g) for s, f, g in ((1, f_x, g_y), (-1, f_y, g_x)) if f and g]
    # Weyl: the t-th factor pairs d_q^t f / t! with d_p^t g; each entry
    # (key, exponent left to differentiate, coefficient) is derived from the last.
    out = []
    f = [(k, j, n) for k, _, j, n in a]
    g = [(k, i, n) for k, i, _, n in b]
    t = 0
    while f and g:
        out.append((-1 if t & 1 else 1, [(k, n) for k, _, n in f], [(k, n) for k, _, n in g]))
        t += 1
        f = [(k - 1, e - 1, n * e // t) for k, e, n in f if e]
        g = [(k - w, e - 1, n * e) for k, e, n in g if e]
    return out


def _poly_eval(coeffs: Iterable[Scalar], base: _SparseTerms):
    """Sum of c_k * base^k over coeffs, listed from the constant term up."""
    acc = base.zero()
    power = base.one()
    for c in coeffs:
        acc = acc + power._scaled(_fr(c))
        power = power * base
    return acc


class BiPoly(_SparseTerms):
    """Element of Q[X, Y] with commutative multiplication."""

    _RULE = _TIMES
    _SYMBOLS = ("X", "Y")

    def partial_x(self) -> "BiPoly":
        return BiPoly({(i - 1, j): i * c for (i, j), c in self._terms.items() if i})

    def partial_y(self) -> "BiPoly":
        return BiPoly({(i, j - 1): j * c for (i, j), c in self._terms.items() if j})

    @staticmethod
    def var_x() -> "BiPoly":
        return BiPoly({(1, 0): 1})

    @staticmethod
    def var_y() -> "BiPoly":
        return BiPoly({(0, 1): 1})


@dataclass(frozen=True)
class Direction:
    """Integer direction (rho, sigma) != (0, 0), normalized to coprime form."""

    rho: int
    sigma: int

    def __post_init__(self):
        if self.rho == 0 and self.sigma == 0:
            raise ValueError("direction (0, 0) is not allowed")
        g = gcd(abs(self.rho), abs(self.sigma))
        if g > 1:
            object.__setattr__(self, "rho", self.rho // g)
            object.__setattr__(self, "sigma", self.sigma // g)

    def value(self, e: Exponent) -> int:
        return self.rho * e[0] + self.sigma * e[1]

    def as_tuple(self) -> tuple[int, int]:
        return (self.rho, self.sigma)

    def __str__(self) -> str:
        return f"({self.rho},{self.sigma})"


DirectionLike = Union[Direction, tuple[int, int]]


def as_direction(d: DirectionLike) -> Direction:
    return d if isinstance(d, Direction) else Direction(*d)


def v_deg(f: BiPoly, d: DirectionLike) -> int | float:
    """Weighted degree max(rho*i + sigma*j) over the support; NEG_INF for 0."""
    dd = as_direction(d)
    if f.is_zero():
        return NEG_INF
    return max(dd.value(e) for e in f.support())


def leading_form(f: BiPoly, d: DirectionLike) -> BiPoly:
    """Sum of the terms of maximal weighted degree.  Errors on 0."""
    dd = as_direction(d)
    if f.is_zero():
        raise ValueError("leading form of the zero polynomial is undefined")
    top = max(dd.value(e) for e in f.support())
    return BiPoly({e: c for e, c in f.items() if dd.value(e) == top})


@dataclass(frozen=True)
class HomogDecomp:
    """Homogeneous decomposition along a direction, degrees strictly decreasing."""

    direction: Direction
    parts: tuple[tuple[int, _SparseTerms], ...]

    def total(self) -> _SparseTerms:
        acc = self.parts[0][1].zero()
        for _, part in self.parts:
            acc = acc + part
        return acc


def homog_decomp(f: _SparseTerms, d: DirectionLike) -> HomogDecomp:
    """Split f, of either algebra, by the d-degree of its terms; parts have f's class."""
    dd = as_direction(d)
    if f.is_zero():
        raise ValueError("homogeneous decomposition of the zero polynomial is undefined")
    buckets: dict[int, dict[Exponent, Fraction]] = {}
    for e, c in f.items():
        buckets.setdefault(dd.value(e), {})[e] = c
    parts = tuple((tau, f._from_canonical(buckets[tau])) for tau in sorted(buckets, reverse=True))
    return HomogDecomp(dd, parts)


def is_homogeneous(f: BiPoly, d: DirectionLike) -> Optional[int]:
    """The degree if f is homogeneous along d, else None.  0 reports degree 0."""
    dd = as_direction(d)
    if f.is_zero():
        return 0
    values = {dd.value(e) for e in f.support()}
    return values.pop() if len(values) == 1 else None


def mth_root(f: BiPoly, m: int) -> Optional[tuple[Fraction, BiPoly]]:
    """Exact decomposition f = lam * h^m with h monic, or None.

    h is built by descending graded-lex induction: each residual's leading
    term pins the next coefficient of h, and the result is verified exactly.
    """
    if f.is_zero():
        raise ValueError("cannot take a root of the zero polynomial")
    if m < 1:
        raise ValueError("root exponent must be >= 1")
    (a, b), lam = f.glex_lead()
    if a % m or b % m:
        return None
    if m == 1:
        return lam, f._scaled(1 / lam)
    target = f._scaled(1 / lam)
    lead = (a // m, b // m)
    h = BiPoly({lead: 1})
    last = lead
    while True:
        residual = target - h ** m
        if residual.is_zero():
            return lam, h
        (ti, tj), rc = residual.glex_lead()
        u = (ti - (m - 1) * lead[0], tj - (m - 1) * lead[1])
        if u[0] < 0 or u[1] < 0 or _glex_key(u) >= _glex_key(last):
            return None
        h = h + BiPoly({u: rc / m})
        last = u


def power_decomposition(f: BiPoly) -> tuple[Fraction, BiPoly, int]:
    """Maximal exact decomposition f = lam * h^m with h monic, m maximal.

    Candidate exponents divide both leading graded-lex exponents and the
    total degree; they are tried in decreasing order so the first success
    is maximal and h itself is not a proper power.
    """
    if f.is_constant():
        raise ValueError("power decomposition requires a nonconstant polynomial")
    (a, b), _ = f.glex_lead()
    bound = gcd(gcd(a, b), int(f.total_degree()))
    for m in sorted((k for k in range(1, bound + 1) if bound % k == 0), reverse=True):
        root = mth_root(f, m)
        if root is not None:
            lam, h = root
            return lam, h, m
    raise AssertionError("unreachable: m = 1 always succeeds")
