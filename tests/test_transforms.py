from fractions import Fraction
from random import Random

import pytest

from weylkit.bipoly import BiPoly, leading_form
from weylkit.errors import NotAWeylPairError, ParseError
from weylkit.transforms import (
    Linear,
    PairSwap,
    Rot90,
    Scale,
    TriLower,
    TriUpper,
    apply_aut,
    apply_poisson_aut,
    apply_to_pair,
    apply_to_poly_pair,
    jacobian_det,
    parse_word,
    word_to_string,
)
from weylkit.weyl import WeylElement, commutator, phi, weyl_mul

import gen

P = WeylElement.gen_p()
Q = WeylElement.gen_q()
X = BiPoly({(1, 0): 1})
Y = BiPoly({(0, 1): 1})


def test_generator_images():
    assert apply_aut([Rot90()], P) == Q
    assert apply_aut([Rot90()], Q) == -P
    assert apply_aut([Scale(Fraction(3))], P) == 3 * P
    assert apply_aut([Scale(Fraction(3))], Q) == Fraction(1, 3) * Q
    assert apply_aut([TriUpper((0, 0, 1))], P) == P + Q ** 2
    assert apply_aut([TriUpper((0, 0, 1))], Q) == Q
    assert apply_aut([TriLower((5,))], Q) == Q + 5 * WeylElement.one()
    assert apply_aut([Linear(1, 2, 0, 1)], P) == P + 2 * Q


def test_rot90_is_a_special_linear():
    rng = Random(1414)
    lin = Linear(0, 1, -1, 0)
    for _ in range(10):
        z = gen.weyl_element(rng)
        assert apply_aut([Rot90()], z) == apply_aut([lin], z)


def test_linear_requires_unit_determinant():
    with pytest.raises(ValueError):
        Linear(1, 1, 1, 1)


def test_words_preserve_commutators():
    rng = Random(1515)
    for _ in range(25):
        word = gen.algebra_word(rng)
        z = gen.weyl_element(rng)
        w = gen.weyl_element(rng)
        lhs = commutator(apply_aut(word, z), apply_aut(word, w))
        assert lhs == apply_aut(word, commutator(z, w))


def test_apply_aut_acts_on_either_algebra():
    rng = Random(1616)
    for _ in range(25):
        word = gen.algebra_word(rng)
        f = gen.bipoly(rng)
        assert apply_aut(word, f) == apply_poisson_aut(word, f)


def test_jacobian_is_always_one():
    rng = Random(1616)
    for _ in range(25):
        assert jacobian_det(gen.algebra_word(rng)) == 1


def test_single_tokens_match_poisson_side_on_generators():
    rng = Random(1717)
    for _ in range(25):
        token = gen.algebra_word(rng, max_len=1)
        assert phi(apply_aut(token, P)) == apply_poisson_aut(token, X)
        assert phi(apply_aut(token, Q)) == apply_poisson_aut(token, Y)


def test_scaling_words_commute_with_linearization_exactly():
    rng = Random(1718)
    for _ in range(25):
        word = tuple(
            Scale(gen.rational(rng, num_max=4, den_max=3, nonzero=True))
            for _ in range(rng.randint(1, 4))
        )
        z = gen.weyl_element(rng)
        assert phi(apply_aut(word, z)) == apply_poisson_aut(word, phi(z))


def test_rotation_acts_exactly_on_leading_forms():
    # Pointwise the rotated image differs from the substituted polynomial
    # by normal-ordering corrections of strictly smaller weighted degree,
    # so the two routes agree on every leading form once the direction is
    # transported by the swap (rho, sigma) -> (sigma, rho).
    rng = Random(1719)
    rot = (Rot90(),)
    pq = weyl_mul(P, Q)
    assert phi(apply_aut(rot, pq)) == -phi(pq) + BiPoly({(0, 0): 1})
    for _ in range(25):
        z = gen.weyl_element(rng, nonzero=True)
        rho, sigma = gen.direction(rng)
        if rho + sigma <= 0:
            continue
        image = leading_form(phi(apply_aut(rot, z)), (rho, sigma))
        source = leading_form(phi(z), (sigma, rho))
        assert image == apply_poisson_aut(rot, source)


def test_pair_application_validates():
    z, w = apply_to_pair([PairSwap()], P, Q)
    assert (z, w) == (Q, -P)
    z, w = apply_to_pair([Rot90(), PairSwap()], P, Q)
    assert (z, w) == (-P, -Q)
    with pytest.raises(NotAWeylPairError):
        apply_to_pair([Rot90()], Q, P)


def test_poly_pair_application():
    f, g = apply_to_poly_pair([PairSwap(), Scale(Fraction(2))], X, Y)
    assert (f, g) == (Fraction(1, 2) * Y, -2 * X)


def test_word_string_round_trip():
    text = "lin:1,0,2,1,triu:[0,1/2],tril:[3],scale:-2/3,rot,swap"
    word = parse_word(text)
    assert word_to_string(word) == text
    assert parse_word(word_to_string(word)) == word


def test_parse_word_rejects_garbage():
    with pytest.raises(ParseError):
        parse_word("spin:1")
    # rationals are num or num/den with an optional minus, nothing else
    for text in ("scale:1.5", "scale:1e3", "scale:+2", "scale:1/0", "triu:[0,1_000]",
                 "lin:1,0,0.5,1", "scale:1e5000", "scale: 1 / 2"):
        with pytest.raises(ParseError, match="bad rational"):
            parse_word(text)
    with pytest.raises(ParseError, match="number has too many digits .at position 0"):
        parse_word("scale:" + "1" * 5000)
    assert parse_word("scale: -3/4 ,lin:1,0,-1/2,1") == (Scale(Fraction(-3, 4)),
                                                         Linear(1, 0, Fraction(-1, 2), 1))
    with pytest.raises((ParseError, ValueError)):
        parse_word("lin:1,1,1,1")
    with pytest.raises((ParseError, ValueError)):
        parse_word("scale:0")
