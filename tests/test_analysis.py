from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from weylkit import analysis
from weylkit.analysis import (
    Certificate,
    OmegaCase,
    Outcome,
    ReduceStep,
    WordStep,
    criterion_cf_kf,
    criterion_D_ge_minus1,
    criterion_grading,
    criterion_homogeneous,
    criterion_leading_bracket,
    criterion_support,
    criterion_two_homogeneous,
    criterion_v01,
    dc_check,
    omega_classify,
    replay_certificate,
)
from weylkit.bipoly import BiPoly
from weylkit.errors import NotAWeylPairError, ReplayError
from weylkit.transforms import (
    PairSwap,
    Rot90,
    Scale,
    TriLower,
    apply_to_pair,
    apply_to_poly_pair,
    parse_word,
)
from weylkit.weyl import WeylElement, is_weyl_pair, weyl_mul

import gen

P = WeylElement.gen_p()
Q = WeylElement.gen_q()
X = BiPoly({(1, 0): 1})
Y = BiPoly({(0, 1): 1})


def zpow(z, k):
    acc = WeylElement.one()
    for _ in range(k):
        acc = weyl_mul(acc, z)
    return acc


# ---------------------------------------------------------------- omega


def test_omega_canonical_cases():
    oc = omega_classify(X, Y)
    assert oc.case is OmegaCase.CASE1_XY
    assert oc.witness_word == ()

    oc = omega_classify(X + 2 * Y ** 3, Y)
    assert oc.case is OmegaCase.CASE3_X_PLUS_YN
    assert oc.params == (Fraction(2), 3)

    oc = omega_classify(2 * X + Y, X + Y)
    assert oc.case is OmegaCase.CASE2_LINEAR
    assert oc.params == (Fraction(2), Fraction(1), Fraction(1), Fraction(1))

    oc = omega_classify(X + BiPoly({(0, 0): 3}), Y)
    assert oc.case is OmegaCase.CASE4_X_SHIFT
    assert oc.params == (Fraction(3),)


def test_omega_rotated_monomials():
    oc = omega_classify(Y, -X)
    assert oc.case is OmegaCase.CASE1_XY
    assert oc.witness_word == (PairSwap(), Scale(Fraction(-1)))
    assert apply_to_poly_pair(oc.witness_word, Y, -X) == (X, Y)


def test_omega_degenerate_linear_pair():
    # Both entries are unit-bracket linear forms, but the second has a
    # zero coefficient, so the pair normalizes into the deg-1 power case.
    oc = omega_classify(X, X + Y)
    assert oc.case is OmegaCase.CASE3_X_PLUS_YN
    assert oc.params == (Fraction(-1), 1)
    assert oc.canonical == (X - Y, Y)


def test_omega_two_point_support_is_homogeneous():
    oc = omega_classify(X + Y ** 2, Y)
    assert oc.case is OmegaCase.CASE3_X_PLUS_YN
    assert oc.params == (Fraction(1), 2)


def test_omega_witness_replays():
    rng = Random(2020)
    for _ in range(40):
        word = gen.scaling_word(rng)
        f, g = apply_to_poly_pair(word, X + 2 * Y ** 3, Y)
        oc = omega_classify(f, g)
        assert oc.case is OmegaCase.CASE3_X_PLUS_YN
        assert apply_to_poly_pair(oc.witness_word, f, g) == oc.canonical


def test_omega_rejects_non_members():
    with pytest.raises(ValueError):
        omega_classify(X, 2 * Y)
    with pytest.raises(ValueError):
        omega_classify(X + Y + Y ** 3, Y)


# ------------------------------------------------------------- criteria


def test_criterion_homogeneous_single_part_sides():
    cert = criterion_homogeneous(Q, -P + Q ** 5)
    assert cert is not None
    nf = cert.normal_form
    assert nf["shape"] == "homogeneous-q"
    assert nf["lam"] == 1 and nf["mu"] == -1
    assert nf["l"] == (0, 0, 0, 0, 0, Fraction(1))
    assert cert.trace == ()
    replay_certificate(cert, Q, -P + Q ** 5)

    # Swap side: the first entry has two graded parts, the second one.
    cert = criterion_homogeneous(2 * Q + P ** 2, Fraction(-1, 2) * P)
    assert cert is not None
    assert cert.normal_form["shape"] == "homogeneous-p"
    replay_certificate(cert, 2 * Q + P ** 2, Fraction(-1, 2) * P)

    z = P + Q
    assert criterion_homogeneous(z, Q + 2 * zpow(z, 2) + z) is None


def test_criterion_v01_reduction_loop():
    z = P + Q
    w = Q + 2 * zpow(z, 2) + z
    cert = criterion_v01(z, w)
    assert cert is not None
    nf = cert.normal_form
    assert nf["shape"] == "v01-q"
    assert nf["alpha"] == 1 and nf["gamma"] == 0
    assert nf["g"] == (0, Fraction(1))
    assert nf["h"] == (0, Fraction(2), Fraction(2))
    degrees = [s.degree for s in cert.trace if isinstance(s, ReduceStep)]
    assert degrees == [2, 1]
    assert cert.final_pair == (P + Q, -P)
    replay_certificate(cert, z, w)


def test_criterion_grading_direct_membership():
    cert = criterion_grading(Q, -P + Q ** 5)
    assert cert is not None
    nf = cert.normal_form
    assert nf["shape"] == "grading-q"
    assert nf["alpha"] == 1 and nf["gamma"] == 0
    assert nf["g"] == (0, 0, 0, 0, 0, Fraction(1))
    replay_certificate(cert, Q, -P + Q ** 5)
    z = P + Q
    assert criterion_grading(z, Q + 2 * zpow(z, 2) + z) is None


def test_criterion_D_ge_minus1_strips_negative_levels():
    z = P + Q ** 3
    w = Q + 2 * zpow(z, 2) + zpow(z, 4)
    cert = criterion_D_ge_minus1(z, w)
    assert cert is not None
    assert cert.normal_form["route"] == ("D_ge_minus1", "grading")
    assert cert.normal_form["s"] == 1
    reduce_steps = [s for s in cert.trace if isinstance(s, ReduceStep)]
    assert [(s.degree, s.coefficient, s.exponent) for s in reduce_steps] == [
        (4, Fraction(1), 4),
        (2, Fraction(2), 2),
    ]
    replay_certificate(cert, z, w)


def test_criterion_D_ge_minus1_gates_deep_strips():
    # A lowest level below -1 is only stripped under the explicit
    # cyclicity assumption, and even then only when the bounded search
    # confirms nothing extra commutes with the lowest part.  Both gates
    # decline on this conjugated pair: its lowest part is a power of p,
    # and p itself commutes with that power.
    base_z = P + Q ** 3
    base_w = Q + 2 * zpow(base_z, 2) + zpow(base_z, 4)
    word = (TriLower((0, 0, 1)),)
    z, w = apply_to_pair(word, base_z, base_w)
    assert criterion_D_ge_minus1(z, w) is None
    assert criterion_D_ge_minus1(z, w, assume_centralizer_cyclic=True) is None


def test_criterion_two_homogeneous():
    cert = criterion_two_homogeneous(P + Q ** 3, Q)
    assert cert is not None
    assert cert.normal_form["route"][0] == "two_homogeneous"
    assert cert.normal_form["direction"] == (3, 1)
    assert cert.normal_form["omega_case"] == "Case3-XplusYn"
    replay_certificate(cert, P + Q ** 3, Q)
    z = P + Q + WeylElement.one()
    assert criterion_two_homogeneous(z, Q + 2 * zpow(z, 2) + z) is None


def test_criterion_support():
    cert = criterion_support(P + Q, Q)
    assert cert is not None
    assert cert.normal_form["route"][0] == "support"
    assert cert.normal_form["direction"] == (1, 1)
    replay_certificate(cert, P + Q, Q)


def test_strip_then_unit_bracket_resolves_through_omega():
    z, w = P + Q ** 2, Q + P + Q ** 2
    cert = criterion_support(z, w)
    assert cert is not None
    assert cert.normal_form["route"] == ("support", "cf_kf", "omega", "v01")
    first, word, last = cert.trace
    assert (first.direction.as_tuple(), first.degree, first.exponent) == ((2, 1), 2, 1)
    assert isinstance(word, WordStep)
    assert (last.direction.as_tuple(), last.degree, last.exponent) == ((0, 1), 2, 2)
    replay_certificate(cert, z, w)


def test_criterion_leading_bracket():
    cert = criterion_leading_bracket(Q, -P + Q ** 5)
    assert cert is not None
    assert cert.normal_form["route"][0] == "leading_bracket"
    assert cert.normal_form["omega_case"] == "Case1-XY"
    assert cert.final_pair == (Q, -P)
    replay_certificate(cert, Q, -P + Q ** 5)


def test_criterion_cf_kf():
    z = P + Q
    w = Q + 2 * zpow(z, 2)
    cert = criterion_cf_kf(z, w)
    assert cert is not None
    assert cert.normal_form["route"] == ("cf_kf", "rotate", "v01")
    assert cert.normal_form["direction"] == (1, 0)
    assert cert.final_pair == (-P + Q, -P)
    replay_certificate(cert, z, w)


def test_criteria_reject_non_pairs():
    for criterion in (criterion_homogeneous, criterion_v01, criterion_grading,
                      criterion_D_ge_minus1, criterion_two_homogeneous, criterion_support,
                      criterion_leading_bracket, criterion_cf_kf):
        with pytest.raises(NotAWeylPairError):
            criterion(2 * P, Q)


# ----------------------------------------------------------- replaying


def test_replay_rejects_tampered_certificates():
    z = P + Q
    w = Q + 2 * zpow(z, 2) + z
    cert = criterion_v01(z, w)
    assert cert is not None
    replay_certificate(cert, z, w)

    step = cert.trace[0]
    bad_trace = (replace(step, coefficient=step.coefficient + 1),) + cert.trace[1:]
    with pytest.raises(ReplayError):
        replay_certificate(replace(cert, trace=bad_trace), z, w)
    with pytest.raises(ReplayError):
        replay_certificate(replace(cert, final_pair=(P, Q)), z, w)
    with pytest.raises(ReplayError):
        replay_certificate(cert, z, w + WeylElement.one())
    zero_slope = {**cert.normal_form, "alpha": 0}
    with pytest.raises(ReplayError):
        replay_certificate(replace(cert, normal_form=zero_slope), z, w)
    missing = {k: v for k, v in cert.normal_form.items() if k != "gamma"}
    with pytest.raises(ReplayError):
        replay_certificate(replace(cert, normal_form=missing), z, w)
    for key, value in (("alpha", "x"), ("g", 5), ("g", ("a",))):
        malformed = {**cert.normal_form, key: value}
        with pytest.raises(ReplayError):
            replay_certificate(replace(cert, normal_form=malformed), z, w)


# ------------------------------------------------------------ dc_check


def test_dc_check_generates():
    rep = dc_check(P, Q)
    assert rep.outcome is Outcome.GENERATES
    assert rep.certificate is not None
    assert rep.certificate.criterion == "homogeneous"
    assert rep.pair == (P, Q)


def test_dc_check_no_partner_for_diagonal_roof():
    rep = dc_check(weyl_mul(P, Q), Q)
    assert rep.outcome is Outcome.NO_PARTNER_POSSIBLE
    assert rep.certificate is None
    assert rep.attempts == ()
    rep = dc_check(Q, weyl_mul(P, Q) + Q)
    assert rep.outcome is Outcome.NO_PARTNER_POSSIBLE


def test_dc_check_checks_the_pair_once(monkeypatch):
    calls = []

    def counting(z, w):
        calls.append((z, w))
        return is_weyl_pair(z, w)

    monkeypatch.setattr(analysis, "is_weyl_pair", counting)
    rep = dc_check(Q, -P + Q ** 5)
    assert rep.certificate.criterion == "homogeneous"
    assert rep.certificate.trace == ()
    assert calls == [(Q, -P + Q ** 5)]


def test_dc_check_rejects_non_pairs():
    rep = dc_check(Q, P)
    assert rep.outcome is Outcome.NOT_A_WEYL_PAIR
    assert rep.pair == (Q, P)
    rep = dc_check(P, P)
    assert rep.outcome is Outcome.NOT_A_WEYL_PAIR


def test_dc_check_pre_word():
    rep = dc_check(P, Q, pre_word=(Rot90(),))
    assert rep.outcome is Outcome.GENERATES
    assert rep.pair == (Q, -P)
    rep = dc_check(Q, P, pre_word=(Rot90(),))
    assert rep.outcome is Outcome.NOT_A_WEYL_PAIR
    assert rep.pair is None


def test_dc_check_attempts_record_declines():
    z = P + Q ** 3
    w = Q + 2 * zpow(z, 2) + zpow(z, 4)
    rep = dc_check(z, w)
    assert rep.outcome is Outcome.GENERATES
    assert rep.certificate.criterion == "D_ge_minus1"
    declined = [a.criterion for a in rep.attempts if not a.fired]
    assert declined == ["homogeneous", "v01", "grading"]
    assert all(a.note for a in rep.attempts if not a.fired)
    assert rep.attempts[-1].fired
    assert rep.attempts[-1].criterion == "D_ge_minus1"


def test_dc_check_verdict_stable_under_words():
    rng = Random(2121)
    for _ in range(10):
        word = gen.scaling_word(rng, max_len=4)
        rep = dc_check(P + Q, Q, pre_word=word)
        assert rep.outcome is Outcome.GENERATES


def test_dc_check_decomposes_each_entry_once(monkeypatch):
    # an Inconclusive pair: every criterion runs, on both orientations
    z, w = apply_to_pair(parse_word("triu:[0,0,1],tril:[0,0,1],triu:[0,0,1]"), P, Q)
    seen = []
    real = analysis.graded_decomp

    def counting(el):
        seen.append(el)
        return real(el)

    monkeypatch.setattr(analysis, "graded_decomp", counting)
    assert dc_check(z, w).outcome is Outcome.INCONCLUSIVE
    assert sorted(map(str, seen)) == sorted([str(z), str(w)])
    seen.clear()
    assert criterion_two_homogeneous(z, w) is None
    assert len(seen) == 2
