from fractions import Fraction
from random import Random

import pytest

from weylkit.bipoly import BiPoly
from weylkit.errors import ParseError, ResourceLimitError
from weylkit.exprparse import parse_element
from weylkit.weyl import WeylElement, weyl_mul

import gen

P = WeylElement.gen_p()
Q = WeylElement.gen_q()
X = BiPoly({(1, 0): 1})
Y = BiPoly({(0, 1): 1})


def test_weyl_mode_is_noncommutative():
    assert parse_element("p q", "weyl") == weyl_mul(P, Q)
    assert parse_element("q p", "weyl") == weyl_mul(P, Q) - WeylElement.one()
    assert parse_element("q*p", "weyl") == parse_element("qp", "weyl")


def test_grammar_features():
    assert parse_element("3/2 p^2 - q + 1", "weyl") == (
        Fraction(3, 2) * P ** 2 - Q + WeylElement.one()
    )
    assert parse_element("-(p - q)^2", "weyl") == -weyl_mul(P - Q, P - Q)
    assert parse_element("2(p+q)", "weyl") == 2 * (P + Q)
    assert parse_element("-p", "weyl") == -P
    assert parse_element("7", "weyl") == 7 * WeylElement.one()


def test_poly_mode():
    assert parse_element("X^2 Y - 1/3", "poly") == X ** 2 * Y - Fraction(1, 3) * X ** 0
    assert parse_element("(X+Y)^2", "poly") == X ** 2 + 2 * X * Y + Y ** 2


def test_mode_mismatch_is_reported():
    with pytest.raises(ParseError, match="poly"):
        parse_element("p", "poly")
    with pytest.raises(ParseError, match="weyl"):
        parse_element("X", "weyl")


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError, match="position"):
        parse_element("p +", "weyl")
    with pytest.raises(ParseError):
        parse_element("", "weyl")
    with pytest.raises(ParseError):
        parse_element("p ^ q", "weyl")
    with pytest.raises(ParseError):
        parse_element("(p", "weyl")
    with pytest.raises(ParseError, match="zero denominator .at position 0"):
        parse_element("1/0 p", "weyl")
    # past the interpreter's 4,300-digit limit for int and Fraction
    with pytest.raises(ParseError, match="too many digits .at position 2"):
        parse_element("p " + "1" * 5000, "weyl")


def test_deep_input_is_bounded_not_recursive():
    nested = "(" * 100 + "p" + ")" * 100
    assert parse_element(nested, "weyl") == P
    with pytest.raises(ResourceLimitError, match="nested"):
        parse_element("(" + nested + ")", "weyl")
    with pytest.raises(ResourceLimitError, match="nested"):
        parse_element("(" * 1000 + "p" + ")" * 1000, "weyl")
    assert parse_element(" + ".join(["p"] * 3000), "weyl") == 3000 * P
    assert parse_element(" + ".join(["X Y"] * 3000), "poly") == 3000 * X * Y
    with pytest.raises(ResourceLimitError, match="WEYL_MAX_DEGREE"):
        parse_element(" ".join(["p"] * 3000), "weyl")
    with pytest.raises(ResourceLimitError, match="WEYL_MAX_DEGREE"):
        parse_element("*".join(["q"] * 3000), "weyl")


def test_degree_cap(monkeypatch):
    monkeypatch.setenv("WEYL_MAX_DEGREE", "10")
    assert parse_element("p^10", "weyl") == P ** 10
    with pytest.raises(ResourceLimitError):
        parse_element("p^11", "weyl")
    with pytest.raises(ResourceLimitError):
        parse_element("p^6 * p^6", "weyl")
    with pytest.raises(ResourceLimitError, match="WEYL_MAX_DEGREE=10 .at position 2"):
        parse_element("p^" + "1" * 5000, "weyl")
    monkeypatch.delenv("WEYL_MAX_DEGREE")
    assert parse_element("p^11", "weyl") == P ** 11


def test_printer_output_parses_back():
    rng = Random(1818)
    for _ in range(40):
        z = gen.weyl_element(rng)
        assert parse_element(str(z), "weyl") == z
        f = gen.bipoly(rng)
        assert parse_element(str(f), "poly") == f
