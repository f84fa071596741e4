import json
import time
from random import Random

import pytest

from weylkit import analysis
from weylkit.cli import main
from weylkit.errors import InvariantViolation, ReplayError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_weyl_normal_orders(capsys):
    code, out, err = run(capsys, "eval", "q p")
    assert (code, err) == (0, "")
    assert out == "p q - 1\n"


def test_eval_json_document(capsys):
    code, out, _ = run(capsys, "eval", "q p", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "weyl"
    assert doc["value"] == [
        {"exp": [1, 1], "coeff": "1"},
        {"exp": [0, 0], "coeff": "-1"},
    ]


def test_eval_poly_mode(capsys):
    code, out, _ = run(capsys, "eval", "(X+Y)^2", "-m", "poly")
    assert code == 0
    assert out == "X^2 + 2 X Y + Y^2\n"


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "p", "q")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "bracket", "X^2", "Y", "-m", "poly")
    assert (code, out) == (0, "2 X\n")


def test_grade_lists_levels_descending(capsys):
    code, out, _ = run(capsys, "grade", "p q + q^3")
    assert code == 0
    assert out == "3: q^3\n0: p q\n"
    code, out, _ = run(capsys, "grade", "0")
    assert code == 0
    assert out == "0\n"


def test_leading(capsys):
    code, out, _ = run(capsys, "leading", "p + p^2 q^3 + p^5", "-r", "1", "-s", "1")
    assert code == 0
    assert out == "degree: 5\nleading: X^5 + X^2 Y^3\n"


def test_ntp_text_output(capsys):
    code, out, _ = run(capsys, "ntp", "p + p^2 q^3 + p^3 q + p^4 q^2 + p^5")
    assert code == 0
    assert out == (
        "vertices: (0,0) (5,0) (4,2) (2,3) (0,1)\n"
        "roof: (5,0) (4,2) (2,3)\n"
    )


def test_ntp_svg_file(capsys, tmp_path):
    target = tmp_path / "fig.svg"
    code, out, _ = run(
        capsys, "ntp", "p + p^2 q^3 + p^3 q + p^4 q^2 + p^5", "--svg", str(target)
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("<svg")
    assert 'id="ntp-hull"' in text
    assert 'id="ntp-roof"' in text
    assert 'viewBox="-1 -4 7 5"' in text
    assert text.endswith("\n")


def test_ntp_svg_unwritable_path_is_an_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "fig.svg"
    code, _, err = run(capsys, "ntp", "p + q", "--svg", str(target))
    assert code == 2
    assert err.startswith("error:")
    assert not target.exists()


def test_classify_omega_json(capsys):
    code, out, _ = run(capsys, "classify-omega", "X + 2 Y^3", "Y")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "Case3-XplusYn"
    assert doc["params"] == {"lam": "2", "n": 3}
    assert doc["witness_word"] == ""


def test_classify_omega_rejects_non_member(capsys):
    code, out, err = run(capsys, "classify-omega", "X", "2 Y")
    assert code == 2
    assert err.startswith("error:")


def test_dc_check_generates(capsys):
    code, out, _ = run(capsys, "dc-check", "p", "q")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "Generates"
    assert doc["certificate"]["criterion"] == "homogeneous"


def test_dc_check_exit_codes(capsys):
    code, out, _ = run(capsys, "dc-check", "q", "p")
    assert code == 3
    assert json.loads(out)["outcome"] == "NotAWeylPair"

    code, out, _ = run(capsys, "dc-check", "p q", "q")
    assert code == 4
    assert json.loads(out)["outcome"] == "NoPartnerPossible"


# Each must end in a parse or resource error, never in a traceback.  The
# fourth and fifth hold numbers past the interpreter's 4,300-digit limit,
# the sixth is over the degree cap before it reaches its syntax error, and
# the last two would have coefficients past that digit limit: a product
# and a sum whose common denominator has 4,952 digits.
_BAD_EXPRESSIONS = ("1/0 p", "(" * 1000 + "p" + ")" * 1000, " ".join(["p"] * 3000),
                    "1" * 5000, "p^" + "1" * 5000, "p^60 p^60 )", "(22^60)^60 p",
                    f"p + 1/{7 ** 2900} + 1/{11 ** 2400}")


def test_eval_bad_expression_exits_2(capsys):
    for expr in _BAD_EXPRESSIONS:
        code, out, err = run(capsys, "eval", expr)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


def test_dc_check_parse_error_is_not_a_pair(capsys):
    for argv in (("p +", "q"),
                 ("p", "q", "--pre-word", "bogus"),
                 ("p", "q", "--pre-word", "triu:[0,1"),
                 ("p", "q", "--pre-word", "scale:1.5"),
                 ("p", "q", "--pre-word", "scale:1e5000"),
                 *((expr, "q") for expr in _BAD_EXPRESSIONS)):
        code, out, err = run(capsys, "dc-check", *argv)
        assert (code, err) == (3, "")
        doc = json.loads(out)
        assert doc["outcome"] == "NotAWeylPair"
        assert doc["reason"].startswith("input error:")


def test_dc_check_pre_word(capsys):
    code, out, _ = run(capsys, "dc-check", "p", "q", "--pre-word", "rot")
    assert code == 0
    doc = json.loads(out)
    assert doc["pair"] is not None


def test_aut_apply(capsys):
    code, out, _ = run(capsys, "aut", "apply", "rot,scale:2", "p + q")
    assert (code, out) == (0, "-2 p + 1/2 q\n")
    code, out, _ = run(capsys, "aut", "apply", "triu:[0,0,1]", "X", "-m", "poly")
    assert (code, out) == (0, "Y^2 + X\n")


def test_wrong_mode_symbol_reports_hint(capsys):
    code, _, err = run(capsys, "eval", "X")
    assert code == 2
    assert "poly mode" in err


def test_degree_cap_is_a_clean_error(capsys, monkeypatch):
    monkeypatch.setenv("WEYL_MAX_DEGREE", "8")
    code, _, err = run(capsys, "eval", "p^9")
    assert code == 2
    assert err.startswith("error:")


# p -> p + q^5, then q -> q + p^5, then p -> p + q^5 again: degree 125
_UP, _LOW = "triu:[0,0,0,0,0,1]", "tril:[0,0,0,0,0,1]"
_DEGREE_125 = ",".join([_UP, _LOW, _UP])


def test_word_over_the_degree_cap_is_a_clean_error(capsys):
    code, out, err = run(capsys, "aut", "apply", _DEGREE_125, "p")
    assert (code, out) == (2, "")
    assert err == "error: substitution would reach exponent 125, over WEYL_MAX_DEGREE=64\n"
    code, out, _ = run(capsys, "aut", "apply", f"{_UP},{_LOW}", "p")
    assert code == 0 and out.startswith("p^25 ")
    started = time.perf_counter()
    code, _, err = run(capsys, "aut", "apply", f"{_DEGREE_125},{_LOW}", "p + q")
    assert (code, err.startswith("error:")) == (2, True)
    assert time.perf_counter() - started < 1


def test_pre_word_over_the_degree_cap_is_an_input_error(capsys):
    code, out, err = run(capsys, "dc-check", "p", "q", "--pre-word", _DEGREE_125)
    assert (code, err) == (3, "")
    assert json.loads(out) == {
        "outcome": "NotAWeylPair",
        "reason": "input error: substitution would reach exponent 125, over WEYL_MAX_DEGREE=64",
        "pair": None, "attempts": [], "certificate": None}


def test_word_over_the_coefficient_budget_is_a_clean_error(capsys):
    # scale:7^350 takes p^64 to a coefficient of 18,931 digits
    scale = f"scale:{7 ** 350}"
    budget = "intermediate coefficients could pass the interpreter's 4300-digit integer limit"
    code, out, err = run(capsys, "aut", "apply", scale, "p^64")
    assert (code, out, err) == (2, "", f"error: {budget}\n")
    code, out, err = run(capsys, "dc-check", "p", "q + p^20", "--pre-word", scale)
    assert (code, err) == (3, "")
    assert json.loads(out) == {"outcome": "NotAWeylPair", "reason": f"input error: {budget}",
                               "pair": None, "attempts": [], "certificate": None}


def test_coefficients_past_the_digit_limit_are_a_resource_error(capsys):
    code, out, err = run(capsys, "eval", "(22^60)^60")
    assert (code, out) == (2, "")
    assert err.startswith("error: intermediate coefficients could pass")
    code, out, _ = run(capsys, "eval", "22^60")
    assert (code, out) == (0, str(22 ** 60) + "\n")
    code, out, err = run(capsys, "eval", f"1/{7 ** 2900} + 1/{11 ** 2400}")
    assert (code, out) == (2, "")
    assert err.startswith("error: a coefficient passes")
    # the largest number that prints passes the check on the parsed value
    code, out, _ = run(capsys, "eval", "p + " + "9" * 4300)
    assert (code, out) == (0, "p + " + "9" * 4300 + "\n")


_FUZZ_TOKENS = ("p", "q", "X", "Y", "0", "1", "2", "3", "/", "+", "-", "*", "^", "(", ")", " ")
_FUZZ_WORD_TOKENS = (("rot", "swap", "scale:2", "scale:-1/2", "lin:1,1,0,1", "triu:[0,1]",
                      "tril:[1,0,1/2]"),
                     ("scale:0", "lin:2,0,0,1", "triu:[a]", "tril:[", "bogus"))


def _fuzz_expr(rng):
    if rng.random() < 0.5:
        text = "".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(0, 8)))
    else:  # well formed more often than not: operands and operators alternate
        symbols = rng.choice(("pq", "XY"))
        text = rng.choice(("", "-"))
        for k in range(rng.randint(1, 3)):
            text += rng.choice(" +-*") if k else ""
            text += rng.choice(symbols + "0123") + rng.choice(("", "", "^2", "^3"))
    return " " + text if text.startswith("-") else text  # not an option to argparse


def _fuzz_word(rng):
    return ",".join(rng.choice(_FUZZ_WORD_TOKENS[rng.random() < 0.2])
                    for _ in range(rng.randint(0, 3)))


def _fuzz_argv(rng):
    mode = ["-m", rng.choice(("weyl", "poly"))]
    command = rng.choice(("eval", "bracket", "grade", "leading", "ntp", "classify-omega",
                          "dc-check", "aut"))
    if command in ("eval", "grade", "ntp"):
        argv = [command, _fuzz_expr(rng)] + (mode if command == "eval" else [])
    elif command == "bracket":
        argv = [command, _fuzz_expr(rng), _fuzz_expr(rng)] + mode
    elif command == "leading":
        argv = [command, _fuzz_expr(rng), "-r", str(rng.randint(-2, 2)),
                "-s", str(rng.randint(-2, 2))]
    elif command == "classify-omega":
        argv = [command, *rng.choice(((_fuzz_expr(rng), _fuzz_expr(rng)), ("X", "Y"),
                                      ("X + 2 Y^3", "Y")))]
    elif command == "dc-check":
        pair = rng.choice(((_fuzz_expr(rng), _fuzz_expr(rng)), ("p", "q"), ("q", "p + q^2"),
                           ("p q", "q")))
        argv = [command, *pair, "--pre-word", _fuzz_word(rng)]
    else:
        argv = ["aut", "apply", _fuzz_word(rng), _fuzz_expr(rng)] + mode
    return argv + (["--json"] if rng.random() < 0.5 else [])


def test_random_argvs_end_in_an_exit_code(capsys):
    rng = Random(2525)
    for _ in range(500):
        argv = _fuzz_argv(rng)
        assert main(argv) in (0, 2, 3, 4), argv
        capsys.readouterr()


@pytest.mark.parametrize("error", [InvariantViolation, ReplayError])
def test_internal_error_exits_5_without_a_traceback(capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("self-check failed")

    monkeypatch.setattr(analysis, "_homogeneous", broken)
    code, out, err = run(capsys, "dc-check", "p", "q")
    assert code == 5
    assert out == ""
    assert err == "error: internal error: self-check failed\n"
