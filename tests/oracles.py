"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code under test: products are
normal-ordered by literal symbol rewriting, roof chains are rebuilt by
sweeping explicit support functionals, and the three term-pair loops
below multiply one Fraction pair at a time, with none of the product
kernel's denominator clearing or packing.  The commutator is the
difference of two such products, as its definition reads.  Substitution
forms x^i * y^j for every term on its own, and a generator's images are
built from the generator elements by sums and powers, so a word acts as
the definition of each token reads.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Tuple

from weylkit.bipoly import BiPoly, _poly_eval
from weylkit.transforms import Linear, PairSwap, Rot90, Scale, TriLower, TriUpper
from weylkit.weyl import WeylElement

Word = Tuple[str, ...]
Terms = Dict[Tuple[int, int], Fraction]


@lru_cache(maxsize=None)
def _normal_order(word: Word) -> Tuple[Tuple[Tuple[int, int], int], ...]:
    """Normal order a p/q symbol string using only q p = p q - 1."""
    for k in range(len(word) - 1):
        if word[k] == "q" and word[k + 1] == "p":
            swapped = _normal_order(word[:k] + ("p", "q") + word[k + 2:])
            dropped = _normal_order(word[:k] + word[k + 2:])
            acc: Dict[Tuple[int, int], int] = dict(swapped)
            for exp, c in dropped:
                acc[exp] = acc.get(exp, 0) - c
            return tuple(sorted((e, c) for e, c in acc.items() if c))
    return (((word.count("p"), word.count("q")), 1),)


def rewrite_product(z: WeylElement, w: WeylElement) -> WeylElement:
    """Product of two elements computed by the rewriting oracle."""
    acc: Terms = {}
    for (i1, j1), c1 in z.items():
        for (i2, j2), c2 in w.items():
            word = ("p",) * i1 + ("q",) * j1 + ("p",) * i2 + ("q",) * j2
            for exp, c in _normal_order(word):
                acc[exp] = acc.get(exp, Fraction(0)) + c1 * c2 * c
    return WeylElement(acc)


def closed_sum_product(z: WeylElement, w: WeylElement) -> WeylElement:
    """Normal-ordered product by the closed reordering sum per monomial pair.

    p^s1 q^i1 * p^s2 q^i2
        = sum_j (-1)^j j! C(i1, j) C(s2, j) p^(s1+s2-j) q^(i1+i2-j)
    """
    acc: dict[tuple[int, int], Fraction] = {}
    for (s1, i1), c1 in z.items():
        for (s2, i2), c2 in w.items():
            c12 = c1 * c2
            for j in range(min(i1, s2) + 1):
                coeff = c12 * ((-1) ** j * factorial(j) * comb(i1, j) * comb(s2, j))
                e = (s1 + s2 - j, i1 + i2 - j)
                c = acc.get(e, Fraction(0)) + coeff
                if c:
                    acc[e] = c
                else:
                    acc.pop(e, None)
    return WeylElement(acc)


def closed_sum_commutator(z: WeylElement, w: WeylElement) -> WeylElement:
    """[z, w] as the difference of the two closed-sum products z w and w z."""
    return closed_sum_product(z, w) - closed_sum_product(w, z)


def schoolbook_product(f: BiPoly, g: BiPoly) -> BiPoly:
    """Commutative product, one Fraction multiply-add per term pair."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            e = (i1 + i2, j1 + j2)
            c = out.get(e, Fraction(0)) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return BiPoly(out)


def monomial_bracket(f: BiPoly, g: BiPoly) -> BiPoly:
    """Poisson bracket by {X^i Y^j, X^k Y^l} = (i l - j k) X^(i+k-1) Y^(j+l-1)."""
    out = BiPoly()
    acc: dict[tuple[int, int], Fraction] = {}
    for (i, j), a in f.items():
        for (k, l), b in g.items():
            s = i * l - j * k
            if not s:
                continue
            e = (i + k - 1, j + l - 1)
            c = acc.get(e, Fraction(0)) + s * a * b
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)
    return BiPoly(acc) if acc else out


def termwise_substitute(el, x_image, y_image):
    """Sum of c * x_image^i * y_image^j, each term's product formed on its own."""
    one = x_image.one()
    powers_x, powers_y = [one], [one]

    def power(cache, base, n):
        while len(cache) <= n:
            cache.append(cache[-1] * base)
        return cache[n]

    acc = x_image.zero()
    for (i, j), c in el.items():
        acc = acc + power(powers_x, x_image, i) * power(powers_y, y_image, j) * c
    return acc


def evaluated_images(gen, cls):
    """A generator's images of the generators of cls, by sums and powers."""
    x, y = cls._gens()
    if isinstance(gen, Linear):
        return x * gen.a + y * gen.b, x * gen.c + y * gen.d
    if isinstance(gen, TriUpper):
        return x + _poly_eval(gen.coeffs, y), y
    if isinstance(gen, TriLower):
        return x, y + _poly_eval(gen.coeffs, x)
    if isinstance(gen, Scale):
        return x * gen.lam, y * (1 / gen.lam)
    if isinstance(gen, Rot90):
        return y, -x
    raise TypeError(f"not an algebra generator: {gen!r}")


def word_action(word, f, g):
    """A word acting on a pair token by token, through the two oracles above."""
    for gen in word:
        if isinstance(gen, PairSwap):
            f, g = g, -f
        else:
            images = evaluated_images(gen, type(f))
            f, g = termwise_substitute(f, *images), termwise_substitute(g, *images)
    return f, g


def swept_roof_points(z: WeylElement) -> Tuple[Tuple[int, int], ...]:
    """Roof vertices recovered by sweeping explicit direction functionals.

    Every vertex of the exposed chain is the unique support maximizer of
    some integer direction (a, b) with a + b > 0; with exponents bounded
    by E the relevant normals have coordinates bounded by the coordinate
    spread, so scanning |a|, |b| <= 2 * spread + 1 finds them all.
    """
    pts = list(z.support())
    if not pts:
        raise ValueError("zero element")
    spread = max(
        max(p[0] for p in pts) - min(p[0] for p in pts),
        max(p[1] for p in pts) - min(p[1] for p in pts),
        1,
    )
    bound = 2 * spread + 1
    exposed = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a + b <= 0:
                continue
            best = max(a * x + b * y for x, y in pts)
            winners = [p for p in pts if a * p[0] + b * p[1] == best]
            if len(winners) == 1:
                exposed.add(winners[0])
    return tuple(sorted(exposed, key=lambda p: p[1] - p[0]))
