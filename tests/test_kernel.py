"""Property tests of the exact product kernel against the reference loops.

All four rules of the kernel are covered: the Weyl and BiPoly products,
the Poisson bracket and the Weyl commutator.  Every case is run three
ways: as the library picks the multiply, and with the choice forced to
the integer schoolbook loop and to Kronecker packing.  Operands come
from both sides of the dense/sparse rule.

Substitution by Horner's rule, the generators' images and the action of
words are checked against the term-by-term oracles, in both algebras
and across them.
"""

from contextlib import contextmanager
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from weylkit import bipoly
from weylkit.bipoly import BiPoly, _coeff_bits
from weylkit.errors import ResourceLimitError
from weylkit.poisson import poisson_bracket
from weylkit.transforms import (Linear, PairSwap, Rot90, Scale, TriLower, TriUpper, _images,
                                apply_to_pair, apply_to_poly_pair)
from weylkit.weyl import WeylElement, commutator

import oracles

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

# Slot edges of 1-, 2-, 4- and 8-byte slots and of wider ones.
EDGES = [s * (2 ** k + d) for k in (7, 8, 15, 16, 31, 32, 63, 64, 100)
         for d in (-1, 0) for s in (1, -1)]
NEAR_1E30 = st.integers(10 ** 30 - 3, 10 ** 30 + 3)

numerators = st.one_of(st.integers(-9, 9), st.sampled_from(EDGES), NEAR_1E30,
                       NEAR_1E30.map(lambda n: -n))
denominators = st.one_of(st.integers(1, 12), st.sampled_from([2 ** 8, 2 ** 32 - 1, 2 ** 64]),
                         NEAR_1E30)
rationals = st.builds(Fraction, numerators, denominators)


@st.composite
def dense_terms(draw, max_degree=5):
    """Every monomial of total degree <= d (zero coefficients allowed)."""
    d = draw(st.integers(0, max_degree))
    keys = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    return dict(zip(keys, draw(st.lists(rationals, min_size=len(keys), max_size=len(keys)))))


def sparse_terms(max_exp):
    exps = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(exps, rationals, max_size=4)


operands = st.one_of(dense_terms(), sparse_terms(12))


@contextmanager
def forced(pairs_per_slot):
    """Run with the dense/sparse threshold replaced (0: always pack)."""
    saved = bipoly._PAIRS_PER_SLOT
    bipoly._PAIRS_PER_SLOT = pairs_per_slot
    try:
        yield
    finally:
        bipoly._PAIRS_PER_SLOT = saved


def three_ways(op, *args):
    """op(*args) as the kernel picks, forced schoolbook, forced Kronecker."""
    out = [op(*args)]
    for threshold in (float("inf"), 0):
        with forced(threshold):
            out.append(op(*args))
    return out


def assert_all_equal(results, expected):
    for got in results:
        assert got == expected
        assert all(c and type(c) is Fraction for _, c in got.items())


@PROPERTY
@given(operands, operands)
def test_weyl_product_matches_closed_sum(f, g):
    z, w = WeylElement(f), WeylElement(g)
    assert_all_equal(three_ways(WeylElement.__mul__, z, w), oracles.closed_sum_product(z, w))


@PROPERTY
@given(operands, operands)
def test_bipoly_product_matches_schoolbook(f, g):
    f, g = BiPoly(f), BiPoly(g)
    assert_all_equal(three_ways(BiPoly.__mul__, f, g), oracles.schoolbook_product(f, g))


@PROPERTY
@given(operands, operands)
def test_bracket_matches_monomial_rule(f, g):
    f, g = BiPoly(f), BiPoly(g)
    assert_all_equal(three_ways(poisson_bracket, f, g), oracles.monomial_bracket(f, g))


@PROPERTY
@given(operands, operands)
def test_commutator_matches_difference_of_products(f, g):
    z, w = WeylElement(f), WeylElement(g)
    assert_all_equal(three_ways(commutator, z, w), oracles.closed_sum_commutator(z, w))


@PROPERTY
@given(operands, operands)
def test_commutator_is_antisymmetric(f, g):
    z, w = WeylElement(f), WeylElement(g)
    for zw, wz in zip(three_ways(commutator, z, w), three_ways(commutator, w, z)):
        assert zw == -wz


@PROPERTY
@given(operands)
def test_element_commutes_with_itself(f):
    z = WeylElement(f)
    assert_all_equal(three_ways(commutator, z, z), WeylElement())


@PROPERTY
@given(st.integers(0, 12), st.integers(0, 12), rationals)
def test_commutator_with_pq_is_the_grade(i, j, c):
    pq, mono = WeylElement.monomial(1, 1), WeylElement.monomial(i, j, c)
    assert_all_equal(three_ways(commutator, pq, mono), mono * (j - i))


def test_commutator_forms_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("commutator formed a product or a difference")
    z = WeylElement({(i, j): i - 2 * j + 1 for i in range(6) for j in range(6 - i)})
    w = WeylElement.monomial(0, 3) + WeylElement.gen_p()
    expected = oracles.closed_sum_commutator(z, w)
    monkeypatch.setattr(WeylElement, "__mul__", refuse)
    monkeypatch.setattr(WeylElement, "__sub__", refuse)
    assert_all_equal(three_ways(commutator, z, w), expected)


def test_commutator_with_no_kronecker_factor_left():
    # polynomials in p alone commute: no t >= 1 factor is left to pack
    z = WeylElement({(i, 0): i + 1 for i in range(6)})
    w = WeylElement({(i, 0): Fraction(1, i + 2) for i in range(6)})
    a, b = (bipoly._cleared(x._terms, 1)[1] for x in (z, w))
    assert bipoly._factors(a, b, 1, bipoly._COMMUTATOR) == []
    assert_all_equal(three_ways(commutator, z, w), WeylElement())


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.one_of(dense_terms(2), sparse_terms(3)), st.one_of(dense_terms(2), sparse_terms(3)))
def test_weyl_product_matches_rewriting(f, g):
    z, w = WeylElement(f), WeylElement(g)
    assert_all_equal(three_ways(WeylElement.__mul__, z, w), oracles.rewrite_product(z, w))


def test_both_multiplies_are_chosen_from_the_operands():
    calls = []
    saved = bipoly._schoolbook, bipoly._kronecker
    bipoly._schoolbook = lambda *a: calls.append("schoolbook") or saved[0](*a)
    bipoly._kronecker = lambda *a: calls.append("kronecker") or saved[1](*a)
    try:
        dense = WeylElement({(i, j): i - j + 1 for i in range(7) for j in range(7 - i)})
        dense * dense
        WeylElement.monomial(0, 40) * WeylElement.monomial(40, 0)
        BiPoly.var_x() * BiPoly.var_y()
    finally:
        bipoly._schoolbook, bipoly._kronecker = saved
    assert calls == ["kronecker", "schoolbook", "schoolbook"]


def test_sparse_high_degree_operands():
    q40, p40 = WeylElement.monomial(0, 40), WeylElement.monomial(40, 0)
    for z, w in ((q40, p40), (p40, q40), (q40 * p40, p40 + q40), (q40 - 1, p40 * Fraction(1, 3))):
        assert_all_equal(three_ways(WeylElement.__mul__, z, w), oracles.closed_sum_product(z, w))
    f, g = BiPoly.monomial(40, 3, 7), BiPoly.monomial(2, 40, Fraction(-1, 9)) + 1
    assert_all_equal(three_ways(BiPoly.__mul__, f, g), oracles.schoolbook_product(f, g))
    assert_all_equal(three_ways(poisson_bracket, f, g), oracles.monomial_bracket(f, g))


def test_zero_constants_monomials_and_cancellation():
    X, Y = BiPoly.var_x(), BiPoly.var_y()
    p, q = WeylElement.gen_p(), WeylElement.gen_q()
    for op, a, b in ((BiPoly.__mul__, X + Y, BiPoly()), (BiPoly.__mul__, BiPoly(), X),
                     (WeylElement.__mul__, WeylElement(), p), (poisson_bracket, X, BiPoly()),
                     (poisson_bracket, X + 2, X ** 3 - X)):
        assert_all_equal(three_ways(op, a, b), type(a)())
    assert_all_equal(three_ways(WeylElement.__mul__, WeylElement.constant(Fraction(2, 3)), p),
                     p * Fraction(2, 3))
    assert_all_equal(three_ways(WeylElement.__mul__, q, p), WeylElement.monomial(1, 1) - 1)
    # the cross terms cancel exactly and must leave no zero slot behind
    assert_all_equal(three_ways(BiPoly.__mul__, X + Y, X - Y), X ** 2 - Y ** 2)
    big = Fraction(10 ** 30 + 1, 10 ** 30 - 1)
    dense = WeylElement({(i, j): big * (i + 1) - j for i in range(5) for j in range(5 - i)})
    assert_all_equal(three_ways(lambda a, b: a * b - b * a, dense, dense), WeylElement())


def test_saturated_slots():
    # all coefficients equal and at a slot edge: every pair meeting in a
    # slot adds with the same sign, so slot sums reach the width bound
    for k in (7, 8, 15, 31, 63, 64):
        for c in (2 ** k - 1, -(2 ** k)):
            terms = {(i, j): c for i in range(5) for j in range(5 - i)}
            z, f = WeylElement(terms), BiPoly(terms)
            assert_all_equal(three_ways(WeylElement.__mul__, z, z),
                             oracles.closed_sum_product(z, z))
            assert_all_equal(three_ways(BiPoly.__mul__, f, f), oracles.schoolbook_product(f, f))
            g = BiPoly({(i, j): c * (i + 1) for (i, j) in terms})
            assert_all_equal(three_ways(poisson_bracket, f, g), oracles.monomial_bracket(f, g))


# -- substitution and words ----------------------------------------------

ALGEBRAS = (WeylElement, BiPoly)
sources = st.one_of(dense_terms(3), sparse_terms(6))
images = st.one_of(dense_terms(2), sparse_terms(3))
# rows only at i = 0, 2 and 5: Horner steps that add no row
gapped = st.dictionaries(st.tuples(st.sampled_from((0, 2, 5)), st.integers(0, 3)), rationals,
                         min_size=1, max_size=6)


@PROPERTY
@given(st.sampled_from(ALGEBRAS), st.sampled_from(ALGEBRAS), st.one_of(sources, gapped),
       images, images)
def test_substitute_matches_termwise(source, target, f, x, y):
    el, x, y = source(f), target(x), target(y)
    got = el.substitute(x, y)
    assert type(got) is target
    assert_all_equal([got], oracles.termwise_substitute(el, x, y))


@PROPERTY
@given(st.sampled_from(ALGEBRAS), st.one_of(sources, gapped))
def test_substitute_into_images_that_do_not_commute(source, f):
    p, q = WeylElement._gens()
    x, y = p + q ** 2 * Fraction(1, 3), q * 2 - p ** 3 + 1
    assert commutator(x, y)
    el = source(f)
    assert_all_equal([el.substitute(x, y)], oracles.termwise_substitute(el, x, y))


def test_substitute_zero_constants_and_shared_powers():
    for source in ALGEBRAS:
        for target in ALGEBRAS:
            x, y = target({(1, 1): 2, (0, 2): -1}), target({(2, 0): 1, (0, 0): 3})
            assert source().substitute(x, y) == target()
            assert source.constant(Fraction(-2, 7)).substitute(x, y) == target.constant(Fraction(-2, 7))
            el = source({(0, 0): 5, (0, 2): 1, (3, 0): 2, (1, 4): 7})
            assert el.substitute(target(), target()) == target.constant(5)
            assert el.substitute(target(), y) == target.constant(5) + y ** 2
            assert el.substitute(x, target()) == target.constant(5) + x ** 3 * 2
            # x - y with x = y: every term cancels and no zero may be left
            assert_all_equal([source({(1, 0): 1, (0, 1): -1}).substitute(x, x)], target())
            assert_all_equal([source({(1, 1): 1, (2, 0): -1}).substitute(x, x)], target())
            powers = [y.one()]
            other = source({(2, 3): 1, (0, 1): -1})
            assert el.substitute(x, y, powers) == oracles.termwise_substitute(el, x, y)
            assert other.substitute(x, y, powers) == oracles.termwise_substitute(other, x, y)
            assert powers == [y ** k for k in range(5)]


def test_substitute_checks_the_degree_cap_first(monkeypatch):
    monkeypatch.setenv("WEYL_MAX_DEGREE", "12")
    p, q = WeylElement._gens()
    x, y = p + q ** 3, q + p ** 2
    # exponents (i, j) reach i * (1, 3) + j * (2, 1): (2, 2) gives (6, 8), (0, 6) gives (12, 6)
    assert WeylElement({(2, 2): 1, (0, 6): 1}).substitute(x, y).support() >= {(0, 6), (12, 0)}

    def refuse(*args):
        raise AssertionError("a product was formed over the cap")
    monkeypatch.setattr(bipoly, "_product", refuse)
    for terms, worst in (({(4, 1): 1}, 13), ({(0, 7): 1}, 14), ({(0, 0): 1, (5, 0): 1}, 15)):
        with pytest.raises(ResourceLimitError, match=f"exponent {worst}, over WEYL_MAX_DEGREE=12"):
            WeylElement(terms).substitute(x, y)
        with pytest.raises(ResourceLimitError):
            BiPoly(terms).substitute(BiPoly(x._terms), BiPoly(y._terms))


small = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
nonzero = small.filter(bool)
coeff_lists = st.lists(small, max_size=3)
tokens = st.one_of(
    st.builds(lambda a, b, c: Linear(a, b, c, (1 + b * c) / a), nonzero, small, small),
    st.builds(TriUpper, coeff_lists), st.builds(TriLower, coeff_lists),
    st.builds(Scale, nonzero), st.just(Rot90()))


@PROPERTY
@given(st.sampled_from(ALGEBRAS), sparse_terms(3), st.one_of(dense_terms(2), sparse_terms(2)),
       st.one_of(dense_terms(2), sparse_terms(2)), st.lists(tokens, min_size=1, max_size=2))
# (p + q)^64 has 168 bits, 104 of them from normal ordering alone
@example(WeylElement, {(64, 0): 1}, {(1, 0): 1, (0, 1): 1}, {(0, 1): 1}, [Rot90()])
@example(WeylElement, {(3, 3): 1}, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}, [Rot90()])
def test_substitution_bounds_its_coefficient_bits(cls, f, x, y, word):
    # general images first, then a word; drawn exponents stay under
    # 3 * 2 * 2 * 2^2 = 48, and the first example reaches 64
    bounds = []
    check = bipoly._check_bits

    def recording(bits):
        bounds.append(bits)
        check(bits)

    el = cls(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bipoly, "_check_bits", recording)
        for x_image, y_image in [(cls(x), cls(y))] + [_images(gen, cls) for gen in word]:
            el = el.substitute(x_image, y_image)
            assert bounds[-1] >= _coeff_bits(el)
    assert len(bounds) == 1 + len(word)


@PROPERTY
@given(tokens)
def test_images_are_the_evaluated_images(gen):
    for cls in ALGEBRAS:
        assert _images(gen, cls) == oracles.evaluated_images(gen, cls)


@PROPERTY
@given(st.lists(st.one_of(tokens, st.just(PairSwap())), max_size=4))
def test_apply_to_pair_matches_the_word_oracle(word):
    pair = WeylElement._gens()
    assert apply_to_pair(word, *pair) == oracles.word_action(word, *pair)


@PROPERTY
@given(st.sampled_from(ALGEBRAS), st.lists(tokens, max_size=2), sparse_terms(3), sparse_terms(3))
def test_apply_to_poly_pair_matches_the_word_oracle(cls, word, f, g):
    f, g = cls(f), cls(g)
    assert apply_to_poly_pair(word, f, g) == oracles.word_action(word, f, g)
