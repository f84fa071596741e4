from fractions import Fraction
from random import Random

import pytest

from weylkit.bipoly import BiPoly, is_homogeneous, v_deg
from weylkit.errors import InvariantViolation
from weylkit.poisson import (
    PairKind,
    bracket_degree_bound,
    classify_commuting_pair,
    cone_containment_check,
    centralizer_generator,
    lemma_fu_gv_check,
    poisson_bracket,
    poisson_bracket_via_jacobian,
)

import gen
import oracles

X = BiPoly({(1, 0): 1})
Y = BiPoly({(0, 1): 1})


def test_monomial_bracket_rule():
    # {X^i Y^j, X^k Y^l} = (i l - j k) X^(i+k-1) Y^(j+l-1)
    assert poisson_bracket(X, Y) == BiPoly({(0, 0): 1})
    assert poisson_bracket(Y, X) == BiPoly({(0, 0): -1})
    assert poisson_bracket(X ** 2 * Y, X * Y ** 3) == 5 * X ** 2 * Y ** 3
    assert poisson_bracket(X * Y, X * Y) .is_zero()
    assert poisson_bracket(X ** 3, X) .is_zero()


def test_two_bracket_routes_agree():
    rng = Random(303)
    for _ in range(60):
        f = gen.bipoly(rng)
        g = gen.bipoly(rng)
        expected = oracles.monomial_bracket(f, g)
        assert poisson_bracket(f, g) == expected
        assert poisson_bracket_via_jacobian(f, g) == expected


def test_bracket_degree_bound():
    rng = Random(404)
    for _ in range(60):
        f = gen.bipoly(rng, nonzero=True)
        g = gen.bipoly(rng, nonzero=True)
        d = gen.direction(rng)
        assert bracket_degree_bound(f, g, d)
        b = poisson_bracket(f, g)
        rho, sigma = d
        assert v_deg(b, d) <= v_deg(f, d) + v_deg(g, d) - rho - sigma


def test_lemma_fu_gv_on_shared_powers():
    rng = Random(505)
    d = (1, 1)
    h = X ** 2 + X * Y
    rep = lemma_fu_gv_check(3 * h ** 2, -2 * h ** 3, d)
    assert rep.bracket_zero and rep.power_relation_holds
    rep = lemma_fu_gv_check(X ** 2, Y ** 2, d)
    assert not rep.bracket_zero and not rep.power_relation_holds
    for _ in range(30):
        dd = gen.direction(rng)
        base = gen.homogeneous_bipoly(rng, dd, max_exp=3)
        if base.is_constant():
            continue
        f = gen.rational(rng, nonzero=True) * base ** rng.randint(1, 3)
        g = gen.rational(rng, nonzero=True) * base ** rng.randint(1, 3)
        rep = lemma_fu_gv_check(f, g, dd)
        assert rep.bracket_zero == rep.power_relation_holds


def test_lemma_fu_gv_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lemma_fu_gv_check(X + Y ** 2, Y, (1, 1))
    with pytest.raises(ValueError):
        lemma_fu_gv_check(BiPoly({(0, 0): 1}), Y, (1, 1))


def test_classify_commuting_pair():
    d = (1, 1)
    h = X * Y + Y ** 2
    rep = classify_commuting_pair(2 * h ** 2, 5 * h ** 3, d)
    assert rep.kind is PairKind.COMMON_POWER
    assert rep.base == h
    assert (rep.exp_f, rep.exp_g) == (2, 3)
    # Degree-zero pairs along (1, -1) sit on the diagonal ray.
    diag = X * Y
    rep = classify_commuting_pair(diag, diag ** 2 + diag, (1, -1))
    assert rep.kind is PairKind.DEGREE_ZERO


def test_centralizer_generator():
    d = (1, 1)
    h = X ** 2 + Y ** 2
    base, m = centralizer_generator(4 * h ** 3, d)
    assert (base, m) == (h, 3)
    base, m = centralizer_generator(X + Y, d)
    assert (base, m) == (X + Y, 1)
    with pytest.raises(ValueError):
        centralizer_generator(X * Y, (1, -1))


def test_cone_containment():
    d = (1, 1)
    h = X * Y ** 2
    assert cone_containment_check(h ** 2, h + 3 * h ** 4, d)


def test_jacobi_and_leibniz_spot():
    f, g, h = X ** 2, X * Y, Y ** 3
    assert poisson_bracket(f, g * h) == poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
    jac = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert jac.is_zero()
