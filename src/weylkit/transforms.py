"""Generator words for the symplectic automorphisms used by the analyzer.

A word is a sequence of generator tokens applied left to right.  Each
generator is written once, as the images of an algebra's two generators,
and acts on an element of either algebra (p, q or X, Y) by substituting
them (Horner's rule in the first image, see _SparseTerms.substitute);
pairs are acted on entry by entry, and the token that swaps the two
entries with a sign exists only at pair level.  Every substitution checks
the degree cap and the coefficient budget before it forms anything, so a
word whose image would pass either raises ResourceLimitError at once.
Words are plain data, recorded inside certificates and replayed exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .bipoly import BiPoly, _SparseTerms
from .errors import InvariantViolation, NotAWeylPairError, ParseError
from .weyl import WeylElement, is_weyl_pair


def _fractions(values: Iterable[Union[int, Fraction, str]]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class Linear:
    """p -> a p + b q, q -> c p + d q with a d - b c = 1."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("linear generator must have determinant 1")


@dataclass(frozen=True)
class TriUpper:
    """p -> p + f(q), q -> q; coeffs list f from the constant term up."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(_fractions(self.coeffs)))


@dataclass(frozen=True)
class TriLower:
    """p -> p, q -> q + f(p); coeffs list f from the constant term up."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(_fractions(self.coeffs)))


@dataclass(frozen=True)
class Scale:
    """p -> lam p, q -> (1/lam) q for nonzero lam."""

    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if not self.lam:
            raise ValueError("scale factor must be nonzero")


@dataclass(frozen=True)
class Rot90:
    """Quarter turn p -> q, q -> -p."""


@dataclass(frozen=True)
class PairSwap:
    """Pair-level token (z, w) -> (w, -z); not an algebra map."""


AlgebraGen = Union[Linear, TriUpper, TriLower, Scale, Rot90]
WordToken = Union[AlgebraGen, PairSwap]
Word = tuple[WordToken, ...]


def _images(gen: AlgebraGen, cls):
    """Images under gen of the generators (p, q) or (X, Y) of cls.

    Each image is a linear polynomial or a polynomial in one generator, so
    it is written down term by term: no power, product or sum is formed.
    """
    if isinstance(gen, Linear):
        return cls({(1, 0): gen.a, (0, 1): gen.b}), cls({(1, 0): gen.c, (0, 1): gen.d})
    if isinstance(gen, TriUpper):
        return cls({(1, 0): 1} | {(0, k): c for k, c in enumerate(gen.coeffs)}), cls({(0, 1): 1})
    if isinstance(gen, TriLower):
        return cls({(1, 0): 1}), cls({(0, 1): 1} | {(k, 0): c for k, c in enumerate(gen.coeffs)})
    if isinstance(gen, Scale):
        return cls({(1, 0): gen.lam}), cls({(0, 1): 1 / gen.lam})
    if isinstance(gen, Rot90):
        return cls({(0, 1): 1}), cls({(1, 0): -1})
    raise TypeError(f"not an algebra generator: {gen!r}")


def _act(gen: AlgebraGen, el: _SparseTerms) -> _SparseTerms:
    return el.substitute(*_images(gen, type(el)))


def _act_word(word: Sequence[WordToken], el: _SparseTerms) -> _SparseTerms:
    for gen in word:
        if isinstance(gen, PairSwap):
            raise ValueError("pair-level token cannot act on a single element")
        el = _act(gen, el)
    return el


def apply_aut(word: Sequence[WordToken], z: _SparseTerms) -> _SparseTerms:
    """Apply a word's generators, left to right, to an element of either algebra."""
    return _act_word(word, z)


def apply_poisson_aut(word: Sequence[WordToken], f: BiPoly) -> BiPoly:
    """The action on Q[X, Y]; apply_aut on a BiPoly, kept as its own name."""
    return _act_word(word, f)


def apply_to_pair(word: Sequence[WordToken],
                  z: WeylElement, w: WeylElement) -> tuple[WeylElement, WeylElement]:
    """Act on a Weyl pair; the pair property is required and re-asserted."""
    if not is_weyl_pair(z, w):
        raise NotAWeylPairError("input pair does not have commutator 1")
    z, w = apply_to_poly_pair(word, z, w)
    if not is_weyl_pair(z, w):
        raise InvariantViolation("generator word failed to preserve the commutator")
    return z, w


def apply_to_poly_pair(word: Sequence[WordToken],
                       f: BiPoly, g: BiPoly) -> tuple[BiPoly, BiPoly]:
    """Act on a pair entry by entry; either algebra, and no pair property is checked.

    Both entries are substituted into one token's images, which share the
    powers of the second image.
    """
    for gen in word:
        if isinstance(gen, PairSwap):
            f, g = g, -f
        else:
            images = _images(gen, type(f))
            y_powers = [images[1].one()]
            f, g = f.substitute(*images, y_powers), g.substitute(*images, y_powers)
    return f, g


def jacobian_det(word: Sequence[WordToken]) -> Fraction:
    """Determinant of the composed polynomial map; constant by construction."""
    if any(isinstance(gen, PairSwap) for gen in word):
        raise ValueError("pair-level token has no polynomial map")
    u, v = apply_to_poly_pair(word, *BiPoly._gens())
    det = u.partial_x() * v.partial_y() - u.partial_y() * v.partial_x()
    if not det.is_constant():
        raise InvariantViolation("jacobian of a generator word must be constant")
    return det.constant_coeff()


def _rat(token: str, position: int) -> Fraction:
    if not re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", token.strip()):  # den is nonzero
        raise ParseError(f"bad rational {token!r}", position)
    try:
        return Fraction(token.strip())
    except ValueError:  # digits only: the interpreter's digit limit
        raise ParseError("number has too many digits", position) from None


def _split_top_level(text: str) -> list[tuple[str, int]]:
    """Split on commas outside brackets; keeps each piece with its offset."""
    pieces: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for at, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ']'", at)
        elif ch == "," and depth == 0:
            pieces.append((text[start:at], start))
            start = at + 1
    if depth:
        raise ParseError("unbalanced '['", len(text))
    pieces.append((text[start:], start))
    return pieces


def _coeff_list(body: str, at: int) -> tuple[Fraction, ...]:
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError("coefficient list must be bracketed", at)
    inner = body[1:-1].strip()
    if not inner:
        return ()
    return tuple(_rat(part, at) for part in inner.split(","))


def parse_word(text: str) -> Word:
    """Parse a comma-separated generator word.

    Tokens: lin:a,b,c,d and scale:lam and triu:[c0,c1,...] and
    tril:[c0,c1,...] plus the bare rot and swap.  Rationals use num or
    num/den with an optional leading minus; coefficient lists run from
    the constant term up.
    """
    pieces = _split_top_level(text)
    word: list[WordToken] = []
    k = 0
    while k < len(pieces):
        raw, offset = pieces[k]
        token = raw.strip()
        at = offset + raw.index(token) if token else offset
        if not token:
            raise ParseError("empty generator token", at)
        head, sep, body = token.partition(":")
        try:
            if head == "lin":
                tail = [body if sep else ""] + [pieces[k + n][0] for n in range(1, 4)
                                                if k + n < len(pieces)]
                if not sep or len(tail) != 4:
                    raise ParseError("lin takes exactly 4 arguments", at)
                word.append(Linear(*(_rat(a, at) for a in tail)))
                k += 4
                continue
            if head == "triu":
                word.append(TriUpper(_coeff_list(body.strip(), at)))
            elif head == "tril":
                word.append(TriLower(_coeff_list(body.strip(), at)))
            elif head == "scale":
                if not sep or not body.strip():
                    raise ParseError("scale takes exactly 1 argument", at)
                word.append(Scale(_rat(body, at)))
            elif head == "rot" and not sep:
                word.append(Rot90())
            elif head == "swap" and not sep:
                word.append(PairSwap())
            else:
                raise ParseError(f"unknown generator {head!r}", at)
        except ValueError as exc:
            raise ParseError(str(exc), at) from None
        k += 1
    return tuple(word)


def word_to_string(word: Sequence[WordToken]) -> str:
    parts = []
    for gen in word:
        if isinstance(gen, Linear):
            parts.append(f"lin:{gen.a},{gen.b},{gen.c},{gen.d}")
        elif isinstance(gen, TriUpper):
            parts.append("triu:[" + ",".join(str(c) for c in gen.coeffs) + "]")
        elif isinstance(gen, TriLower):
            parts.append("tril:[" + ",".join(str(c) for c in gen.coeffs) + "]")
        elif isinstance(gen, Scale):
            parts.append(f"scale:{gen.lam}")
        elif isinstance(gen, Rot90):
            parts.append("rot")
        elif isinstance(gen, PairSwap):
            parts.append("swap")
        else:
            raise TypeError(f"not a word token: {gen!r}")
    return ",".join(parts)
