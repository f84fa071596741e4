import operator
from fractions import Fraction
from random import Random

import pytest

from weylkit.bipoly import (
    BiPoly,
    Direction,
    as_direction,
    homog_decomp,
    is_homogeneous,
    leading_form,
    mth_root,
    power_decomposition,
    v_deg,
)
from weylkit.weyl import WeylElement, graded_decomp

import gen

X = BiPoly({(1, 0): 1})
Y = BiPoly({(0, 1): 1})


def test_constructor_canonicalizes():
    assert BiPoly({(1, 1): 0}).is_zero()
    assert BiPoly({(0, 0): Fraction(3, 2)}).constant_coeff() == Fraction(3, 2)
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})
    # exponents must be integers, never truncated: 1.5 is not p, 2.9 not X^2
    for cls in (BiPoly, WeylElement):
        for bad in ((1.5, 0), (2.9, 1), (0, 2.0), (Fraction(1), 0), ("1", 0)):
            with pytest.raises(ValueError):
                cls({bad: 3})


def test_one_class_two_products_that_do_not_mix():
    p = WeylElement.gen_p()
    for a, b in ((X, p), (p, X)):
        for op in (operator.mul, operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(a, b)
    for cls, x in ((BiPoly, "X"), (WeylElement, "p")):
        for el in (cls.zero(), cls.one(), cls.constant(2), cls.monomial(1, 0)):
            assert type(el) is cls
        assert repr(cls.monomial(1, 0)) == f"{cls.__name__}({x})"
        assert repr(cls.monomial(1, 0, -2)) == f"{cls.__name__}(-2 {x})"


def test_ring_arithmetic():
    assert (X + Y) ** 2 == X ** 2 + 2 * X * Y + Y ** 2
    assert (X - Y) * (X + Y) == X ** 2 - Y ** 2
    assert X ** 0 == BiPoly({(0, 0): 1})
    assert Fraction(1, 2) * X == X * Fraction(1, 2)
    assert (X * Y).coeff(1, 1) == 1
    assert (X * Y).coeff(2, 0) == 0


def test_printer_is_graded_lex_descending():
    f = X ** 2 * Y - 3 * X + Y - Fraction(1, 2)
    assert str(f) == "X^2 Y - 3 X + Y - 1/2"
    assert str(BiPoly()) == "0"
    assert str(-X) == "-X"


def test_glex_lead():
    f = X ** 2 * Y + X * Y ** 2 + Y ** 3
    assert f.glex_lead() == ((2, 1), Fraction(1))


def test_direction_normalization():
    assert as_direction((2, 4)) == Direction(1, 2)
    assert as_direction((-2, 4)) == Direction(-1, 2)
    with pytest.raises(ValueError):
        as_direction((0, 0))


def test_weighted_degree_and_leading_form():
    f = X ** 2 * Y + X ** 5
    assert v_deg(f, (1, 1)) == 5
    assert v_deg(f, (1, 3)) == 5
    assert leading_form(f, (1, 1)) == X ** 5
    assert leading_form(f, (1, 3)) == f
    assert leading_form(f, (0, 1)) == X ** 2 * Y
    assert v_deg(BiPoly(), (1, 1)) == float("-inf")
    with pytest.raises(ValueError):
        leading_form(BiPoly(), (1, 1))


def test_homog_decomp_partitions_and_orders():
    rng = Random(101)
    for _ in range(40):
        f = gen.bipoly(rng, nonzero=True)
        d = gen.direction(rng)
        dec = homog_decomp(f, d)
        degrees = [k for k, _ in dec.parts]
        assert degrees == sorted(degrees, reverse=True)
        assert dec.total() == f
        for k, part in dec.parts:
            assert is_homogeneous(part, d) == k


def test_graded_decomp_is_homog_decomp_along_minus1_1():
    rng = Random(102)
    for _ in range(30):
        z = gen.weyl_element(rng, nonzero=True)
        dec = homog_decomp(z, (-1, 1))
        assert dec.parts == graded_decomp(z).parts
        assert all(type(part) is WeylElement for _, part in dec.parts)
        assert dec.total() == z


def test_is_homogeneous():
    assert is_homogeneous(X + Y, (1, 1)) == 1
    assert is_homogeneous(X + Y, (1, 2)) is None
    assert is_homogeneous(BiPoly(), (1, 1)) == 0


def test_mth_root_recovers_exact_powers():
    base = X + 2 * Y
    assert mth_root(8 * base ** 3, 3) == (Fraction(8), base)
    assert mth_root(X ** 2 + Y ** 2, 2) is None
    assert mth_root(X ** 2 * Y, 2) is None
    rng = Random(202)
    for _ in range(30):
        h = gen.bipoly(rng, max_terms=3, max_exp=2, nonzero=True)
        if h.is_constant():
            continue
        lead, c = h.glex_lead()
        h = h * (1 / c)
        m = rng.randint(2, 4)
        lam = gen.rational(rng, nonzero=True)
        assert mth_root(lam * h ** m, m) == (lam, h)


def test_power_decomposition_is_maximal():
    f = 9 * (X * Y + Y ** 2) ** 4
    lam, base, m = power_decomposition(f)
    assert (lam, base, m) == (Fraction(9), X * Y + Y ** 2, 4)
    lam, base, m = power_decomposition(X + Y)
    assert (lam, base, m) == (Fraction(1), X + Y, 1)
    lam, base, m = power_decomposition(X ** 4 * Y ** 2)
    assert (lam, base, m) == (Fraction(1), X ** 2 * Y, 2)
    with pytest.raises(ValueError):
        power_decomposition(BiPoly({(0, 0): 2}))
