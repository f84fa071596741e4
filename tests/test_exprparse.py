import sys
from fractions import Fraction
from random import Random

import pytest

from weylkit import bipoly
from weylkit.bipoly import BiPoly, _coeff_bits, _reorder_bits, _tops
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
    with pytest.raises(ResourceLimitError, match="intermediate exponent 12 "):
        parse_element("(p^2)^6", "weyl")
    with pytest.raises(ResourceLimitError, match="WEYL_MAX_DEGREE=10 .at position 2"):
        parse_element("p^" + "1" * 5000, "weyl")
    monkeypatch.delenv("WEYL_MAX_DEGREE")
    assert parse_element("p^11", "weyl") == P ** 11


def test_first_fault_in_reading_order_is_reported():
    # values are computed as the input is read: the product is over the
    # cap before the parser reaches the stray parenthesis
    with pytest.raises(ResourceLimitError, match="intermediate exponent 120"):
        parse_element("p^60 p^60 )", "weyl")
    with pytest.raises(ParseError, match="unexpected"):
        parse_element("p^60 )", "weyl")


_GENERATORS = {"weyl": {"p": P, "q": Q}, "poly": {"X": X, "Y": Y}}
_ALGEBRAS = {"weyl": WeylElement, "poly": BiPoly}


def _height(value) -> int:
    return max((max(e) for e in value.support()), default=0)


def _expression(rng: Random, mode: str, depth: int = 0):
    """A random valid expression and its value, computed in source order."""
    text = []
    value = None
    for _ in range(rng.randint(1, 3)):
        part, term = _term(rng, mode, depth)
        if value is None:
            if rng.random() < 0.3:
                text.append("-")
                term = -term
            text.append(part)
            value = term
        elif rng.random() < 0.5:
            text.append(" + " + part)
            value = value + term
        else:
            text.append(" - " + part)
            value = value - term
    return "".join(text), value


def _term(rng: Random, mode: str, depth: int):
    text, value = _factor(rng, mode, depth)
    for _ in range(rng.randint(0, 2)):
        if _height(value) > 12:  # keeps every value far below the degree cap
            break
        part, factor = _factor(rng, mode, depth)
        text += rng.choice((" ", "*", " * ")) + part
        value = value * factor
    return text, value


def _factor(rng: Random, mode: str, depth: int):
    kind = rng.random()
    if depth < 2 and kind < 0.25:
        inner, value = _expression(rng, mode, depth + 1)
        text = f"({inner})"
        if _height(value) <= 8 and rng.random() < 0.5:
            n = rng.randint(0, 2)
            return f"{text}^{n}", value ** n
        return text, value
    if kind < 0.6:
        name, value = rng.choice(sorted(_GENERATORS[mode].items()))
        text = name
    else:
        coeff = Fraction(rng.randint(0, 9), rng.choice((1, 1, 2, 3, 7)))
        text = f"{coeff.numerator}/{coeff.denominator}" if rng.random() < 0.5 else str(coeff)
        value = _ALGEBRAS[mode].constant(coeff)
    if rng.random() < 0.3:
        n = rng.randint(0, 3)
        return f"{text}^{n}", value ** n
    return text, value


@pytest.mark.parametrize("mode", ["weyl", "poly"])
def test_parser_agrees_with_direct_arithmetic(mode):
    rng = Random(2424)
    texts = []
    for _ in range(200):
        text, value = _expression(rng, mode)
        texts.append(text)
        assert parse_element(text, mode) == value, text
    seen = "".join(texts)
    for feature in ("/", "^", "(", "*", " + ", " - ", ")^", "((", "-"):
        assert feature in seen, feature


def test_cap_is_checked_before_a_product_is_formed(monkeypatch):
    formed = []
    product = bipoly._product

    def recording(f, g, rule):
        terms = product(f, g, rule)
        formed.extend(max(e) for e in terms)
        return terms

    monkeypatch.setattr(bipoly, "_product", recording)
    for text, worst in (("(p^3 + q^3 + p q)^22", 66), ("(p^40 + q) (p^30 + 1)", 70),
                        ("(q^40 + p) (q^25 + 1)", 65), ("(p^3 + q^3 + p q)^22 )", 66)):
        with pytest.raises(ResourceLimitError, match=f"intermediate exponent {worst} "):
            parse_element(text, "weyl")
    assert max(formed) <= 64
    assert parse_element("(q^40 + p) (q^24 + 1)", "weyl").support() >= {(0, 64)}


def test_coefficient_budget_is_checked_before_a_product_is_formed(monkeypatch):
    formed = []
    product = bipoly._product

    def recording(f, g, rule):
        terms = product(f, g, rule)
        formed.extend(c for c in terms.values())
        return terms

    monkeypatch.setattr(bipoly, "_product", recording)
    for text, mode in (("(22^60)^60", "weyl"), ("(22^60 X)^60", "poly"),
                       (" ".join(["(22^60)^10"] * 6), "weyl"),
                       (f"(p + 1/{3 ** 600})^20 q", "weyl")):
        with pytest.raises(ResourceLimitError, match="4300-digit integer limit"):
            parse_element(text, mode)
    assert all(len(str(abs(c.numerator))) <= 4300 and len(str(c.denominator)) <= 4300
               for c in formed)
    assert parse_element(" ".join(["(22^60)^10"] * 5), "weyl") == WeylElement.constant(22 ** 3000)


def test_coeff_bits_bounds_products_and_powers():
    rng = Random(2020)
    for _ in range(60):
        f, g = gen.weyl_element(rng, max_exp=4), gen.weyl_element(rng, max_exp=4)
        (a, b), (c, _) = _tops(f), _tops(g)
        assert _coeff_bits(f * g) <= _coeff_bits(f) + _coeff_bits(g) + _reorder_bits(b, c)
        n = rng.randint(1, 4)
        assert _coeff_bits(f ** n) <= n * _coeff_bits(f) + sum(_reorder_bits(k * b, a) for k in range(1, n))
        poly = BiPoly(dict(f.items()))
        assert _coeff_bits(poly ** n) <= n * _coeff_bits(poly)
    p, q = WeylElement._gens()
    # normal ordering alone takes the height of (p + q)^64 from 64 bits to 168
    assert _coeff_bits((p + q) ** 64) == 168
    assert _coeff_bits((p + q) ** 64) <= 64 + sum(_reorder_bits(k, 1) for k in range(1, 64))


def test_coefficient_budget_bounds_what_is_formed(monkeypatch):
    checked = []
    check = bipoly._check_bits

    def recording(bits):
        checked.append(bits)
        return check(bits)

    monkeypatch.setattr(bipoly, "_check_bits", recording)
    for text, mode in (("(p + q)^64", "weyl"), ("(q^8 - 2/3 p^8)^8", "weyl"),
                       ("(p + q)^30 (q + p)^30", "weyl"), ("(3 q^5 + p)^10 (p^4 - q)^10", "weyl"),
                       ("(1/2 X + 3/5 Y)^64", "poly")):
        value = parse_element(text, mode)
        assert checked[-1] >= _coeff_bits(value), text


def test_a_parsed_power_is_n_checked_products(monkeypatch):
    formed = []
    product = bipoly._product

    def recording(f, g, rule):
        terms = product(f, g, rule)
        formed.append(BiPoly._from_canonical(terms))
        return terms

    monkeypatch.setattr(bipoly, "_product", recording)
    budget = bipoly._digit_limit(sys.get_int_max_str_digits()).bit_length() - 1
    for text, mode, n in (("(p + q - 3/7)^40", "weyl", 40), ("(X - Y + 2/3)^32", "poly", 32)):
        formed.clear()
        value = parse_element(text, mode)
        assert len(formed) == n and formed[-1]._terms == value._terms
        assert all(_coeff_bits(v) <= budget for v in formed)
    # a power stops before its first product over the cap or the budget:
    # p^2 is 2 products and p^64 32 more; 22^60 is 60 and 22^3180 53 more
    for text, n, message in (("(p^2)^40", 2 + 32, "intermediate exponent 66 "),
                             ("(22^60)^60", 60 + 53, "intermediate coefficients could pass")):
        formed.clear()
        with pytest.raises(ResourceLimitError, match=message):
            parse_element(text, "weyl")
        assert len(formed) == n
        assert all(_height(v) <= 64 and _coeff_bits(v) <= budget for v in formed)


def test_coefficient_budget_follows_the_interpreter_limit():
    saved = sys.get_int_max_str_digits()
    # 2^14284 < 10^4300 < 2^14285: the budget is 14284 bits
    bipoly._check_bits(14284)
    with pytest.raises(ResourceLimitError, match="4300-digit integer limit"):
        bipoly._check_bits(14285)
    try:
        sys.set_int_max_str_digits(1000)
        with pytest.raises(ResourceLimitError, match="1000-digit integer limit"):
            parse_element("(22^60)^20", "weyl")
        sys.set_int_max_str_digits(0)
        assert parse_element("(22^60)^60", "weyl") == WeylElement.constant(22 ** 3600)
    finally:
        sys.set_int_max_str_digits(saved)


def test_printer_output_parses_back():
    rng = Random(1818)
    for _ in range(40):
        z = gen.weyl_element(rng)
        assert parse_element(str(z), "weyl") == z
        f = gen.bipoly(rng)
        assert parse_element(str(f), "poly") == f
