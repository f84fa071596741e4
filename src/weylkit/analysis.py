"""Generation analysis for Weyl pairs.

Given a pair (z, w) with commutator 1, the battery of criteria in this
module tries to certify that z and w generate the whole algebra.  A
successful run yields a Certificate whose reduction trace can be replayed
step by step; the orchestrator dc_check additionally screens for elements
that admit no partner at all and reports honest inconclusiveness when no
criterion applies.

The pair property [z, w] = 1 is checked once in dc_check, and once in
each public criterion_* function, whose callers may pass anything.
Behind those checks the criteria run unchecked: a pair one criterion
hands to another is an automorphic image of a checked pair or differs
from one by a polynomial in z, so its commutator is still 1.
replay_certificate keeps its check after every reduction step, and
apply_to_pair its checks around every word: they verify certificates
and automorphisms on their own, without trusting the code that made them.

Every ReduceStep comes from one loop, _strip, which subtracts forced
multiples of powers of z from the partner along a direction; the v01,
D_ge_minus1 and cf_kf reductions differ only in what they do with the
partner it leaves.  replay_certificate redoes each subtraction itself
instead of calling _strip, so a fault in the loop cannot vouch for its
own output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from math import gcd
from typing import Callable, Mapping, Optional, Sequence, Union

from .bipoly import BiPoly, Direction, as_direction, is_homogeneous, v_deg
from .errors import InvariantViolation, NotAWeylPairError, ReplayError
from .geometry import roof
from .poisson import centralizer_generator, poisson_bracket
from .transforms import (PairSwap, Rot90, Scale, Word, WordToken, apply_poisson_aut,
                         apply_to_pair, apply_to_poly_pair)
from .weyl import (WeylElement, centralizer_counterexamples, grade, graded_decomp,
                   in_D_geq, in_D_leq, is_weyl_pair, leading_form_weyl, phi, v_deg_weyl)

__all__ = [
    "OmegaCase", "OmegaClass", "omega_classify",
    "WordStep", "ReduceStep", "Certificate", "replay_certificate",
    "criterion_homogeneous", "criterion_v01", "criterion_grading",
    "criterion_D_ge_minus1", "criterion_two_homogeneous", "criterion_support",
    "criterion_leading_bracket", "criterion_cf_kf",
    "Outcome", "AttemptRecord", "DCReport", "dc_check", "is_weyl_pair",
]


# ---------------------------------------------------------------------------
# small coefficient helpers

def _coeffs(f: BiPoly, var: int) -> tuple[Fraction, ...]:
    """Coefficients of a polynomial in X alone (var 0) or Y alone (var 1).

    The constant term comes first and the last entry is nonzero, so the
    tuple never needs trimming.
    """
    out: dict[int, Fraction] = {}
    for e, c in f.items():
        if e[1 - var]:
            raise InvariantViolation("expected a polynomial in one variable")
        out[e[var]] = c
    if not out:
        return ()
    return tuple(out.get(k, Fraction(0)) for k in range(max(out) + 1))


def _weyl_poly(coeffs: Sequence[Fraction], var: int) -> WeylElement:
    """The polynomial in p alone (var 0) or q alone (var 1) with these coefficients."""
    return WeylElement({((k, 0), (0, k))[var]: c for k, c in enumerate(coeffs)})


def _layer(el: WeylElement, j: int) -> BiPoly:
    """The terms of el with q-exponent j, as a polynomial in X."""
    return BiPoly({(i, 0): c for (i, k), c in el.items() if k == j})


def _require_pair(z: WeylElement, w: WeylElement) -> None:
    if not is_weyl_pair(z, w):
        raise NotAWeylPairError("commutator of the input pair is not 1")


# ---------------------------------------------------------------------------
# classification of unit-bracket homogeneous pairs

class OmegaCase(Enum):
    CASE1_XY = "Case1-XY"
    CASE2_LINEAR = "Case2-Linear"
    CASE3_X_PLUS_YN = "Case3-XplusYn"
    CASE4_X_SHIFT = "Case4-Xshift"


@dataclass(frozen=True)
class OmegaClass:
    """Canonical-case tag for a unit-bracket homogeneous pair.

    witness_word maps the classified pair onto the recorded canonical pair;
    params hold the case parameters: () for Case1, (alpha, beta, gamma,
    delta) for Case2, (lam, n) for Case3 and (lam,) for Case4.
    """

    case: OmegaCase
    params: tuple
    witness_word: Word
    canonical: tuple[BiPoly, BiPoly]

    def __post_init__(self) -> None:
        if self.case is OmegaCase.CASE1_XY:
            if self.params:
                raise InvariantViolation("Case1 carries no parameters")
        elif self.case is OmegaCase.CASE2_LINEAR:
            a, b, c, d = self.params
            if a * d - b * c != 1:
                raise InvariantViolation("Case2 coefficient matrix must have determinant 1")
            if a * b * c * d == 0:
                raise InvariantViolation("Case2 requires all four coefficients nonzero")
        elif self.case is OmegaCase.CASE3_X_PLUS_YN:
            lam, n = self.params
            if lam == 0 or not isinstance(n, int) or n < 1:
                raise InvariantViolation("Case3 requires lam != 0 and n >= 1")
        else:
            (lam,) = self.params
            if lam == 0:
                raise InvariantViolation("Case4 requires a nonzero shift")


def _canonical_pair(case: OmegaCase, params: tuple) -> tuple[BiPoly, BiPoly]:
    X, Y = BiPoly.var_x(), BiPoly.var_y()
    if case is OmegaCase.CASE1_XY:
        return X, Y
    if case is OmegaCase.CASE2_LINEAR:
        a, b, c, d = params
        return a * X + b * Y, c * X + d * Y
    if case is OmegaCase.CASE3_X_PLUS_YN:
        lam, n = params
        return X + lam * Y**n, Y
    (lam,) = params
    return X + BiPoly.constant(lam), Y


def _support_line_normal(f: BiPoly) -> Direction:
    """Homogeneity direction of a non-monomial polynomial.

    The support must be collinear; the returned normal is primitive with
    rho+sigma >= 0, preferring rho > 0 when the sum is zero.
    """
    pts = sorted(f.support())
    (x0, y0), (x1, y1) = pts[0], pts[1]
    dx, dy = x1 - x0, y1 - y0
    g = gcd(abs(dx), abs(dy))
    dx, dy = dx // g, dy // g
    for (x, y) in pts[2:]:
        if (x - x0) * dy != (y - y0) * dx:
            raise ValueError("not an omega pair: support is not on a single line")
    r, s = dy, -dx
    if r + s < 0 or (r + s == 0 and r < 0):
        r, s = -r, -s
    return as_direction((r, s))


def omega_classify(f: BiPoly, g: BiPoly) -> OmegaClass:
    """Classify a unit-bracket homogeneous pair into its canonical case.

    The pair must satisfy {f, g} = 1 with both entries homogeneous for a
    common direction; otherwise ValueError is raised.  The returned witness
    word (over scalings, quarter rotations and the pair swap) is replayed
    before returning, so it provably maps (f, g) onto the canonical pair.
    """
    if poisson_bracket(f, g) != BiPoly.one():
        raise ValueError("not an omega pair: the bracket is not 1")
    word: list[WordToken] = []
    cf, cg = f, g

    if cf.is_monomial() and cg.is_monomial():
        result = _classify_monomials(cf, cg, word)
    else:
        if cf.is_monomial():
            word.append(PairSwap())
            cf, cg = cg, -cf
        d = _support_line_normal(cf)
        if is_homogeneous(cg, d) is None:
            raise ValueError("not an omega pair: no common homogeneity direction")
        r, s = d.as_tuple()
        if (r, s) == (1, 0) or (s > 0 > r):
            word.append(Rot90())
            cf = apply_poisson_aut((Rot90(),), cf)
            cg = apply_poisson_aut((Rot90(),), cg)
            r, s = s, r
        if r > 0 and s > 0:
            result = _classify_inner(cf, cg, (r, s), word)
        elif (r, s) == (0, 1):
            result = _classify_boundary(cf, cg, word)
        else:
            raise InvariantViolation(
                "a mixed-sign homogeneity direction admits only monomial pairs")

    got = apply_to_poly_pair(result.witness_word, f, g)
    if got != result.canonical:
        raise InvariantViolation("witness word fails to reproduce the canonical pair")
    return result


def _classify_monomials(cf: BiPoly, cg: BiPoly,
                        word: list[WordToken]) -> OmegaClass:
    (ef,) = cf.support()
    if ef == (1, 0):
        lam = cf.coeff(1, 0)
        if cg.support() != frozenset({(0, 1)}) or cg.coeff(0, 1) != 1 / lam:
            raise InvariantViolation("monomial pair with unit bracket must be dual linear")
        if lam != 1:
            word.append(Scale(1 / lam))
    elif ef == (0, 1):
        lam = cf.coeff(0, 1)
        if cg.support() != frozenset({(1, 0)}) or cg.coeff(1, 0) != -1 / lam:
            raise InvariantViolation("monomial pair with unit bracket must be dual linear")
        word.append(PairSwap())
        if -lam != 1:
            word.append(Scale(-lam))
    else:
        raise InvariantViolation("monomial pair with unit bracket must be linear")
    return OmegaClass(OmegaCase.CASE1_XY, (), tuple(word), _canonical_pair(OmegaCase.CASE1_XY, ()))


def _classify_inner(cf: BiPoly, cg: BiPoly, rs: tuple[int, int],
                    word: list[WordToken]) -> OmegaClass:
    """Resolve the strictly interior directions (both weights positive)."""
    r, s = rs
    t, u = v_deg(cf, rs), v_deg(cg, rs)
    if t + u != r + s or u < 1:
        raise InvariantViolation("degree split incompatible with a unit bracket")
    pts = sorted(cf.support())
    if len(pts) != 2 or any(i > 0 and j > 0 for i, j in pts):
        raise InvariantViolation("interior-direction first entry must join the two axes")
    (i1, j_zero), (i_zero, j2) = max(pts), min(pts)
    if j_zero != 0 or i_zero != 0:
        raise InvariantViolation("interior-direction first entry must join the two axes")
    if i1 > 1:
        if j2 != 1:
            raise InvariantViolation("both axis exponents exceed 1")
        word.append(Rot90())
        cf = apply_poisson_aut((Rot90(),), cf)
        cg = apply_poisson_aut((Rot90(),), cg)
        r, s = s, r
        i1, j2 = 1, i1
    n = j2
    lam, mu = cf.coeff(1, 0), cf.coeff(0, n)
    if (r, s) != (n, 1) or lam == 0 or mu == 0:
        raise InvariantViolation("axis pair must determine the direction (n, 1)")
    if n > 1:
        if cg.support() != frozenset({(0, 1)}):
            raise InvariantViolation("steep axis pair forces a monomial second entry")
        if lam * cg.coeff(0, 1) != 1:
            raise InvariantViolation("second-entry coefficient must invert the X coefficient")
        if lam != 1:
            word.append(Scale(1 / lam))
        params: tuple = (mu * lam**n, n)
        case = OmegaCase.CASE3_X_PLUS_YN
    else:
        if not cg.support() <= {(1, 0), (0, 1)}:
            raise InvariantViolation("balanced direction forces a linear second entry")
        gam, delta = cg.coeff(1, 0), cg.coeff(0, 1)
        if lam * delta - mu * gam != 1:
            raise InvariantViolation("linear pair must have determinant 1")
        if gam != 0 and delta != 0:
            case, params = OmegaCase.CASE2_LINEAR, (lam, mu, gam, delta)
        elif gam == 0:
            if lam != 1:
                word.append(Scale(1 / lam))
            case, params = OmegaCase.CASE3_X_PLUS_YN, (mu * lam, 1)
        else:
            word.append(Rot90())
            if -mu != 1:
                word.append(Scale(-1 / mu))
            case, params = OmegaCase.CASE3_X_PLUS_YN, (-lam * mu, 1)
    return OmegaClass(case, params, tuple(word), _canonical_pair(case, params))


def _classify_boundary(cf: BiPoly, cg: BiPoly,
                       word: list[WordToken]) -> OmegaClass:
    """Resolve the direction (0, 1): layers are graded by the Y exponent."""
    t, u = v_deg(cf, (0, 1)), v_deg(cg, (0, 1))
    if t + u != 1 or t < 0 or u < 0:
        raise InvariantViolation("layer degrees incompatible with a unit bracket")
    if t == 1:
        raise InvariantViolation("a width-one top layer forces a monomial first entry")
    coeffs = _coeffs(cf, 0)
    if len(coeffs) != 2 or coeffs[0] == 0 or coeffs[1] == 0:
        raise InvariantViolation("flat first entry must be an affine X polynomial")
    shift, slope = coeffs[0], coeffs[1]
    beta = 1 / slope
    if cg.support() != frozenset({(0, 1)}) or cg.coeff(0, 1) != beta:
        raise InvariantViolation("second entry must be the dual Y monomial")
    if beta != 1:
        word.append(Scale(beta))
    params = (shift,)
    case = OmegaCase.CASE4_X_SHIFT
    return OmegaClass(case, params, tuple(word), _canonical_pair(case, params))


# ---------------------------------------------------------------------------
# certificates and replay

@dataclass(frozen=True)
class WordStep:
    """Apply a generator word to the current pair."""

    word: Word


@dataclass(frozen=True)
class ReduceStep:
    """Subtract coefficient * z**exponent from w.

    degree records the direction-degree of w just before the subtraction,
    so replays can detect any drift.
    """

    direction: Direction
    degree: int
    coefficient: Fraction
    exponent: int


TraceStep = Union[WordStep, ReduceStep]


@dataclass(frozen=True)
class Certificate:
    """Replayable evidence that a pair generates the algebra.

    criterion names the entry point that fired; normal_form carries the
    recovered closed-form data (its "route" entry lists the delegation
    chain and "shape" names the terminal normal form); trace is the replay
    program; final_pair is the pair the trace must land on.
    """

    criterion: str
    normal_form: Mapping[str, object]
    trace: tuple[TraceStep, ...]
    final_pair: tuple[WeylElement, WeylElement]


def _reconstruct_final(shape: str, nf: Mapping[str, object]) -> tuple[WeylElement, WeylElement]:
    p = WeylElement.gen_p()
    q = WeylElement.gen_q()
    try:
        if shape == "v01-q":
            alpha, gamma = nf["alpha"], nf["gamma"]
            zf = alpha * q + _weyl_poly(nf["g"], 0)
            wf = WeylElement.constant(gamma) - (1 / alpha) * p
        elif shape == "v01-p":
            alpha, beta = nf["alpha"], nf["beta"]
            zf = alpha * p + WeylElement.constant(beta)
            wf = (1 / alpha) * q + _weyl_poly(nf["g"], 0)
        elif shape == "homogeneous-q":
            lam, mu = nf["lam"], nf["mu"]
            if lam * mu != -1:
                raise ReplayError("homogeneous q-shape must have lam*mu = -1")
            zf = lam * q
            wf = mu * p + _weyl_poly(nf["l"], 1)
        elif shape == "homogeneous-p":
            lam, mu = nf["lam"], nf["mu"]
            if lam * mu != 1:
                raise ReplayError("homogeneous p-shape must have lam*mu = 1")
            zf = lam * p
            wf = mu * q + _weyl_poly(nf["l"], 0)
        elif shape == "grading-p":
            lam, gamma = nf["lam"], nf["gamma"]
            zf = lam * p + WeylElement.constant(gamma)
            wf = (1 / lam) * q + _weyl_poly(nf["f"], 0)
        elif shape == "grading-q":
            alpha, gamma = nf["alpha"], nf["gamma"]
            zf = alpha * q + WeylElement.constant(gamma)
            wf = -(1 / alpha) * p + _weyl_poly(nf["g"], 1)
        else:
            raise ReplayError(f"unknown terminal shape {shape!r}")
    except KeyError as exc:
        raise ReplayError(f"normal form lacks the entry {exc}") from None
    except ZeroDivisionError:
        raise ReplayError("normal form has a zero slope") from None
    except (TypeError, ValueError) as exc:
        raise ReplayError(f"normal form has a malformed entry: {exc}") from None
    return zf, wf


def replay_certificate(cert: Certificate, z: WeylElement, w: WeylElement) -> None:
    """Replay a certificate against the pair it was issued for.

    Raises ReplayError on any mismatch: a degree drift, a broken pair along
    the way, a final pair differing from the recorded one, or a final pair
    not matching the recorded normal form.
    """
    cur_z, cur_w = z, w
    for step in cert.trace:
        if isinstance(step, WordStep):
            try:
                cur_z, cur_w = apply_to_pair(step.word, cur_z, cur_w)
            except (NotAWeylPairError, InvariantViolation) as exc:
                raise ReplayError(f"word step failed: {exc}") from None
        else:
            if v_deg_weyl(cur_w, step.direction) != step.degree:
                raise ReplayError("recorded degree does not match the replayed pair")
            cur_w = cur_w - step.coefficient * cur_z**step.exponent
            if not is_weyl_pair(cur_z, cur_w):
                raise ReplayError("pair property lost during a reduction step")
    if (cur_z, cur_w) != cert.final_pair:
        raise ReplayError("replayed trace does not land on the recorded final pair")
    shape = cert.normal_form.get("shape")
    if _reconstruct_final(str(shape), cert.normal_form) != cert.final_pair:
        raise ReplayError("final pair does not match the recorded normal form")


def _chain(entry: str, prefix: Sequence[TraceStep], sub: Certificate,
           extra: Optional[dict] = None) -> Certificate:
    nf = dict(extra or {})
    nf.update(sub.normal_form)
    sub_route = sub.normal_form.get("route", (sub.criterion,))
    nf["route"] = (entry,) + tuple(sub_route)
    return Certificate(entry, nf, tuple(prefix) + sub.trace, sub.final_pair)


_SWAP_STEP = WordStep((PairSwap(),))


def _either_side(one_sided: Callable[..., Optional[Certificate]],
                 z: WeylElement, w: WeylElement, **options) -> Optional[Certificate]:
    """Run a one-sided criterion on (z, w), then on the swapped pair (w, -z).

    A certificate found on the swapped side starts with the swap step.
    """
    for pre in ((), (PairSwap(),)):
        zz, ww = (w, -z) if pre else (z, w)
        cert = one_sided(zz, ww, **options)
        if cert is not None:
            return replace(cert, trace=(_SWAP_STEP,) + cert.trace) if pre else cert
    return None


def _strip(z: WeylElement, w: WeylElement,
           d: Direction) -> tuple[list[TraceStep], WeylElement]:
    """Strip the forced powers of z from the partner w along d.

    The d-degree a of z must be positive.  While the d-degree b of w is
    positive, a divides b and the top of w is beta times the top of
    z**(b // a) (beta the ratio of their graded-lex leading coefficients),
    the match is recorded as a ReduceStep and subtracted, which strictly
    lowers b.  Returns the steps and the partner left when a test fails.
    """
    a = v_deg_weyl(z, d)
    steps: list[TraceStep] = []
    while True:
        b = v_deg_weyl(w, d)
        if b <= 0 or b % a:
            return steps, w
        e = b // a
        z_pow = z**e
        top_w, top_z = leading_form_weyl(w, d), leading_form_weyl(z_pow, d)
        beta = top_w.glex_lead()[1] / top_z.glex_lead()[1]
        if top_w != beta * top_z:
            return steps, w
        steps.append(ReduceStep(d, b, beta, e))
        w = w - beta * z_pow
        if v_deg_weyl(w, d) >= b:
            raise InvariantViolation("reduction failed to lower the direction-degree")


# ---------------------------------------------------------------------------
# individual criteria
#
# Each public criterion checks [z, w] = 1 and runs its private code, which
# assumes a checked pair: the first entry of a pair is never constant.

def criterion_homogeneous(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    """Certify a pair whose first entry sits in a single graded level.

    Either entry may qualify; the partner is tried after a pair swap.  A
    validated pair with such an entry is forced into one of two shapes:
    z = lam*q with w = mu*p + l(q) and lam*mu = -1, or z = lam*p with
    w = mu*q + l(p) and lam*mu = 1.
    """
    _require_pair(z, w)
    return _either_side(_homogeneous, z, w)


def _graded_parts(el: WeylElement) -> tuple[tuple[int, WeylElement], ...]:
    return graded_decomp(el).parts


def _homogeneous(z: WeylElement, w: WeylElement, *,
                 parts_of: Callable[[WeylElement], tuple] = _graded_parts) -> Optional[Certificate]:
    parts = parts_of(z)
    if len(parts) != 1:
        return None
    level = parts[0][0]
    p = WeylElement.gen_p()
    q = WeylElement.gen_q()
    if level == 1:
        if z.support() != frozenset({(0, 1)}):
            raise InvariantViolation("level-one entry of a pair must be a multiple of q")
        lam = z.coeff(0, 1)
        mu = w.coeff(1, 0)
        if lam * mu != -1:
            raise InvariantViolation("partner slope must satisfy lam*mu = -1")
        nf = {"shape": "homogeneous-q", "lam": lam, "mu": mu,
              "l": _coeffs(phi(w - mu * p), 1), "route": ("homogeneous",)}
    elif level == -1:
        if z.support() != frozenset({(1, 0)}):
            raise InvariantViolation("level-minus-one entry of a pair must be a multiple of p")
        lam = z.coeff(1, 0)
        mu = w.coeff(0, 1)
        if lam * mu != 1:
            raise InvariantViolation("partner slope must satisfy lam*mu = 1")
        nf = {"shape": "homogeneous-p", "lam": lam, "mu": mu,
              "l": _coeffs(phi(w - mu * q), 0), "route": ("homogeneous",)}
    else:
        raise InvariantViolation(
            f"no pair can have an entry confined to graded level {level}")
    return Certificate("homogeneous", nf, (), (z, w))


def criterion_v01(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    """Certify a pair whose first entry has Y-degree at most 1.

    Either entry may qualify (the partner after a pair swap).  Degree one
    runs the reduction loop stripping powers of z from w and recovers
    z = alpha*q + g(p), w = gamma - p/alpha + h(z); degree zero recovers
    z = alpha*p + beta, w = q/alpha + g(p) directly.
    """
    _require_pair(z, w)
    return _either_side(_v01, z, w)


def _v01(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    v = v_deg_weyl(z, (0, 1))
    if v == 1:
        return _v01_line(z, w)
    if v == 0:
        return _v01_flat(z, w)
    return None


def _v01_line(z: WeylElement, w: WeylElement) -> Certificate:
    steps, cur_w = _strip(z, w, Direction(0, 1))
    if v_deg_weyl(cur_w, (0, 1)) > 0:
        raise InvariantViolation("top layer of the partner must be a power of the top layer")
    h = {step.exponent: step.coefficient for step in steps}
    f_poly = _layer(z, 1)
    l = _coeffs(phi(cur_w), 0)
    f_coeffs = _coeffs(f_poly, 0)
    if len(f_coeffs) != 1:
        raise InvariantViolation("the q coefficient must be a nonzero constant")
    alpha = f_coeffs[0]
    if len(l) > 2 or (len(l) == 2 and l[1] != -1 / alpha):
        raise InvariantViolation("reduced partner must be affine in p with slope -1/alpha")
    gamma = l[0] if l else Fraction(0)
    g_coeffs = _coeffs(_layer(z, 0), 0)
    h_coeffs = tuple(h.get(j, Fraction(0)) for j in range(max(h) + 1)) if h else ()
    rebuilt = (WeylElement.constant(gamma) - (1 / alpha) * WeylElement.gen_p()
               + sum((c * z**j for j, c in enumerate(h_coeffs) if c), WeylElement.zero()))
    if rebuilt != w:
        raise InvariantViolation("normal form fails to rebuild the partner exactly")
    nf = {"shape": "v01-q", "alpha": alpha, "g": g_coeffs, "h": h_coeffs,
          "gamma": gamma, "route": ("v01",)}
    return Certificate("v01", nf, tuple(steps), (z, cur_w))


def _v01_flat(z: WeylElement, w: WeylElement) -> Certificate:
    j = v_deg_weyl(w, (0, 1))
    if j != 1:
        raise InvariantViolation("partner of a p-polynomial must have Y-degree 1")
    l_coeffs = _coeffs(_layer(w, 1), 0)
    f_coeffs = _coeffs(phi(z), 0)
    if len(f_coeffs) != 2:
        raise InvariantViolation("first entry must be affine in p")
    alpha, beta = f_coeffs[1], f_coeffs[0]
    if len(l_coeffs) != 1 or l_coeffs[0] * alpha != 1:
        raise InvariantViolation("partner q coefficient must invert the p slope")
    nf = {"shape": "v01-p", "alpha": alpha, "beta": beta, "g": _coeffs(_layer(w, 0), 0),
          "route": ("v01",)}
    return Certificate("v01", nf, (), (z, w))


def criterion_grading(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    """Certify a pair with an entry inside a graded half.

    Membership is tested directly on z, then on w after a pair swap.  The
    qualifying entry must be a constant-shifted multiple of p (lower half)
    or of q (upper half); the partner shapes are forced.
    """
    _require_pair(z, w)
    return _either_side(_grading, z, w)


def _grading(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    if in_D_leq(z):
        gamma = z.constant_coeff()
        core = z - WeylElement.constant(gamma)
        if core.support() != frozenset({(1, 0)}):
            raise InvariantViolation(
                "a lower-half entry of a pair must be p-linear plus a constant")
        lam = core.coeff(1, 0)
        f = _coeffs(phi(w - (1 / lam) * WeylElement.gen_q()), 0)
        nf = {"shape": "grading-p", "lam": lam, "gamma": gamma, "f": f,
              "route": ("grading",)}
        return Certificate("grading", nf, (), (z, w))
    if in_D_geq(z):
        gamma = z.constant_coeff()
        core = z - WeylElement.constant(gamma)
        if core.support() != frozenset({(0, 1)}):
            raise InvariantViolation(
                "an upper-half entry of a pair must be q-linear plus a constant")
        alpha = core.coeff(0, 1)
        g = _coeffs(phi(w + (1 / alpha) * WeylElement.gen_p()), 1)
        nf = {"shape": "grading-q", "alpha": alpha, "gamma": gamma, "g": g,
              "route": ("grading",)}
        return Certificate("grading", nf, (), (z, w))
    return None


def criterion_D_ge_minus1(z: WeylElement, w: WeylElement, *,
                          assume_centralizer_cyclic: bool = False) -> Optional[Certificate]:
    """Certify a pair whose entry is bounded below in the grading.

    For an entry with lowest graded level -1 the loop strips the negative
    levels of the partner by matched powers of the entry, then hands the
    resulting upper-half pair to the grading criterion.  Deeper lowest
    levels (-s with s > 1) run only under the caller-asserted cyclic
    centralizer hypothesis, screened by the bounded falsifier; a failed
    match then declines instead of claiming anything.
    """
    _require_pair(z, w)
    return _either_side(_D_ge_minus1, z, w, assume_centralizer_cyclic=assume_centralizer_cyclic)


def _D_ge_minus1(z: WeylElement, w: WeylElement, *,
                 assume_centralizer_cyclic: bool) -> Optional[Certificate]:
    low = min(grade(e) for e in z.support())
    if low >= 0:
        sub = _grading(z, w)
        if sub is None:
            raise InvariantViolation("an upper-half entry must satisfy the grading criterion")
        return _chain("D_ge_minus1", (), sub, {"s": 0})
    s = -low
    if s > 1:
        if not assume_centralizer_cyclic:
            return None
        z_low = WeylElement({e: c for e, c in z.items() if grade(e) == low})
        if centralizer_counterexamples(z_low, max_exp=6):
            return None
    steps, cur_w = _strip(z, w, Direction(1, -1))
    if v_deg_weyl(cur_w, (1, -1)) > 0:
        if s == 1:
            raise InvariantViolation(
                "lowest level of the partner must be a power of the entry level")
        return None
    sub = _either_side(_grading, z, cur_w)
    if sub is None:
        raise InvariantViolation("stripped partner must satisfy the grading criterion")
    return _chain("D_ge_minus1", steps, sub, {"s": s})


# ---------------------------------------------------------------------------
# direction fans and the leading-form machinery

def _fan_directions(*elements: WeylElement) -> tuple[Direction, ...]:
    """Candidate directions: roof edge normals plus one ray per gap sector.

    All returned directions are primitive with positive coordinate sum,
    ordered counterclockwise starting near (1, -1).
    """
    rays: set[Direction] = set()
    for el in elements:
        rays.update(roof(el).edge_normals())
    ordered = sorted(rays, key=lambda d: Fraction(d.sigma, d.rho + d.sigma))
    bounds: list[tuple[int, int]] = [(1, -1)]
    bounds += [d.as_tuple() for d in ordered]
    bounds.append((-1, 1))
    out: list[Direction] = []
    for left, right in zip(bounds, bounds[1:]):
        mid = (left[0] + right[0], left[1] + right[1])
        if mid == (0, 0):
            mid = (-left[1], left[0])
        out.append(as_direction(mid))
        if right != (-1, 1):
            out.append(as_direction(right))
    return tuple(dict.fromkeys(out))


def _omega_resolution(z: WeylElement, w: WeylElement, d: Direction,
                      f: BiPoly, g: BiPoly) -> Certificate:
    """Resolve a unit leading-form bracket through the canonical cases.

    The classifier's witness word is applied to the pair itself, after
    which the low-Y-degree or graded-half criterion always closes out.
    """
    oc = omega_classify(f, g)
    steps: list[TraceStep] = []
    zz, ww = z, w
    if oc.witness_word:
        steps.append(WordStep(oc.witness_word))
        zz, ww = apply_to_pair(oc.witness_word, zz, ww)
    sub = _either_side(_v01, zz, ww)
    if sub is None:
        sub = _either_side(_grading, zz, ww)
    if sub is None:
        raise InvariantViolation("canonical case resolution found no terminal reduction")
    extra = {"direction": d.as_tuple(), "omega_case": oc.case.value,
             "omega_params": oc.params}
    return _chain("omega", steps, sub, extra)


def criterion_leading_bracket(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    """Certify a pair whose leading forms in some direction have bracket 1.

    Directions are drawn from the joint roof fan of both entries; the
    first direction with unit bracket is classified and resolved.
    """
    _require_pair(z, w)
    return _leading_bracket(z, w)


def _leading_bracket(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    for d in _fan_directions(z, w):
        f = leading_form_weyl(z, d)
        g = leading_form_weyl(w, d)
        if poisson_bracket(f, g) == BiPoly.one():
            sub = _omega_resolution(z, w, d, f, g)
            return _chain("leading_bracket", (), sub)
    return None


def _reduce_low_degree(z: WeylElement, w: WeylElement, d: Direction) -> Certificate:
    """Close out a direction along which an entry has degree 0 or below."""
    r, s = d.as_tuple()
    if r > 0 and s > 0:
        raise InvariantViolation("entry of a pair cannot be constant")
    if (r, s) == (0, 1):
        sub = _either_side(_v01, z, w)
        if sub is None:
            raise InvariantViolation("a p-polynomial entry must satisfy the Y-degree criterion")
        return sub
    if (r, s) == (1, 0):
        zz, ww = apply_to_pair((Rot90(),), z, w)
        sub = _either_side(_v01, zz, ww)
        if sub is None:
            raise InvariantViolation("a rotated q-polynomial entry must satisfy the Y-degree criterion")
        return _chain("rotate", [WordStep((Rot90(),))], sub)
    sub = _either_side(_grading, z, w)
    if sub is None:
        raise InvariantViolation("a graded-half entry must satisfy the grading criterion")
    return sub


def _cf_kf_along(z: WeylElement, w: WeylElement, d: Direction) -> Certificate:
    """Reduce the partner along a fixed direction, then close out.

    The direction must expose a leading form of z that is not a proper
    power.  _strip removes the forced powers of z from the partner; the
    partner it leaves either has direction-degree at most 0, closed out
    by the low-degree reduction, or a leading form whose bracket with
    that of z is 1, resolved through the canonical cases.
    """
    a = v_deg_weyl(z, d)
    if a <= 0:
        sub = _reduce_low_degree(z, w, d)
        return _chain("cf_kf", (), sub, {"direction": d.as_tuple()})
    f = leading_form_weyl(z, d)
    _, m = centralizer_generator(f, d)
    if m != 1:
        raise InvariantViolation("direction does not expose a primitive leading form")
    steps, cur_w = _strip(z, w, d)
    if v_deg_weyl(cur_w, d) <= 0:
        sub = _reduce_low_degree(z, cur_w, d)
        return _chain("cf_kf", steps, sub, {"direction": d.as_tuple()})
    g = leading_form_weyl(cur_w, d)
    if poisson_bracket(f, g) != BiPoly.one():
        raise InvariantViolation(
            "leading form of the partner must be a scaled power or have bracket 1")
    sub = _omega_resolution(z, cur_w, d, f, g)
    return _chain("cf_kf", steps, sub)


def criterion_cf_kf(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    """Certify a pair via the reduction loop over a primitive leading form.

    Scans the roof fan of z for a direction whose leading form has a
    trivial power decomposition, then runs the three-step loop there.
    """
    _require_pair(z, w)
    return _cf_kf(z, w)


def _cf_kf(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    for d in _fan_directions(z):
        f = leading_form_weyl(z, d)
        if f.is_constant():
            continue
        a = v_deg_weyl(z, d)
        if a == 0:
            continue
        _, m = centralizer_generator(f, d)
        if m != 1:
            continue
        return _cf_kf_along(z, w, d)
    return None


def criterion_support(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    """Certify a pair via a two-point or coprime-monomial leading form.

    Either support shape forces a trivial power decomposition, so the
    matching direction is handed to the reduction loop.
    """
    _require_pair(z, w)
    return _support(z, w)


def _support(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    for d in _fan_directions(z):
        f = leading_form_weyl(z, d)
        sup = f.support()
        if len(sup) == 2:
            sub = _cf_kf_along(z, w, d)
            return _chain("support", (), sub)
        if len(sup) == 1:
            ((i, j),) = sup
            if i >= 1 and j >= 1 and gcd(i, j) == 1:
                sub = _cf_kf_along(z, w, d)
                return _chain("support", (), sub)
    return None


def criterion_two_homogeneous(z: WeylElement, w: WeylElement) -> Optional[Certificate]:
    """Certify a pair whose entry splits into at most two graded parts.

    A single part delegates to the homogeneous criterion.  Two parts pin
    the unique direction under which both contribute to one leading form;
    that form has two support points, so the reduction loop applies.
    """
    _require_pair(z, w)
    return _either_side(_two_homogeneous, z, w)


def _two_homogeneous(z: WeylElement, w: WeylElement, *,
                     parts_of: Callable[[WeylElement], tuple] = _graded_parts) -> Optional[Certificate]:
    parts = parts_of(z)
    if len(parts) == 1:
        sub = _homogeneous(z, w, parts_of=parts_of)
        if sub is None:
            raise InvariantViolation("single graded part must satisfy the homogeneous criterion")
        return _chain("two_homogeneous", (), sub)
    if len(parts) == 2:
        (k1, part1), (k2, part2) = parts
        i1 = max(i for i, _ in part1.support())
        i2 = max(i for i, _ in part2.support())
        j1, j2 = i1 + k1, i2 + k2
        r, s = j2 - j1, i1 - i2
        if r + s < 0:
            r, s = -r, -s
        d = as_direction((r, s))
        f = leading_form_weyl(z, d)
        if len(f.support()) != 2:
            raise InvariantViolation("joint direction must expose exactly two support points")
        sub = _cf_kf_along(z, w, d)
        return _chain("two_homogeneous", (), sub, {"direction": d.as_tuple()})
    return None


# ---------------------------------------------------------------------------
# orchestration

class Outcome(Enum):
    GENERATES = "Generates"
    NO_PARTNER_POSSIBLE = "NoPartnerPossible"
    NOT_A_WEYL_PAIR = "NotAWeylPair"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class AttemptRecord:
    criterion: str
    fired: bool
    note: str


@dataclass(frozen=True)
class DCReport:
    """Verdict of the criteria battery for one input pair."""

    outcome: Outcome
    certificate: Optional[Certificate]
    reason: str
    attempts: tuple[AttemptRecord, ...]
    pair: Optional[tuple[WeylElement, WeylElement]]


def _diagonal_roof_vertex(el: WeylElement) -> Optional[int]:
    """Index i of a roof vertex (i, i) with i >= 1, for graded-half elements."""
    if el.is_zero() or el.is_constant():
        return None
    if not (in_D_geq(el) or in_D_leq(el)):
        return None
    for (i, j) in roof(el).points:
        if i == j and i >= 1:
            return i
    return None


_DECLINE_NOTES = {
    "homogeneous": "neither entry is confined to one graded level",
    "v01": "neither entry has Y-degree at most 1",
    "grading": "neither entry lies in a graded half",
    "D_ge_minus1": "no entry qualifies for the low-level loop",
    "two_homogeneous": "neither entry splits into at most two graded parts",
    "support": "no roof direction exposes a two-point or coprime-monomial form",
    "leading_bracket": "no roof direction gives bracket 1 on leading forms",
    "cf_kf": "no roof direction exposes a primitive leading form",
}


def dc_check(z: WeylElement, w: WeylElement, *,
             pre_word: Sequence[WordToken] = (),
             assume_centralizer_cyclic: bool = False) -> DCReport:
    """Run the full battery on a candidate pair and report the verdict.

    The optional pre_word is applied to the pair first.  Elements with a
    diagonal roof vertex inside a graded half are reported as admitting no
    partner before the commutator is even checked; invalid pairs report
    NotAWeylPair; otherwise the criteria run in a fixed order, on the
    pair checked here once, and the first certificate wins, after an
    internal replay.  Each entry's graded decomposition (with its ad(pq)
    eigenvector check) is computed at most once per call, and shared by
    the criteria that read it.  A pre_word whose image would pass the
    degree cap raises ResourceLimitError before that image is formed.
    """
    if pre_word:
        try:
            z, w = apply_to_pair(pre_word, z, w)
        except NotAWeylPairError as exc:
            return DCReport(Outcome.NOT_A_WEYL_PAIR, None, str(exc), (), None)
    for name, el in (("z", z), ("w", w)):
        i = _diagonal_roof_vertex(el)
        if i is not None:
            reason = (f"{name} lies in a graded half and its roof has the diagonal "
                      f"vertex ({i},{i}); no partner with commutator 1 exists")
            return DCReport(Outcome.NO_PARTNER_POSSIBLE, None, reason, (), (z, w))
    if not is_weyl_pair(z, w):
        return DCReport(Outcome.NOT_A_WEYL_PAIR, None,
                        "commutator of the input pair is not 1", (), (z, w))

    parts_of = cache(_graded_parts)
    battery: tuple[tuple[str, Callable[..., Optional[Certificate]]], ...] = (
        ("homogeneous", partial(_either_side, _homogeneous, parts_of=parts_of)),
        ("v01", partial(_either_side, _v01)),
        ("grading", partial(_either_side, _grading)),
        ("D_ge_minus1", partial(_either_side, _D_ge_minus1,
                                assume_centralizer_cyclic=assume_centralizer_cyclic)),
        ("two_homogeneous", partial(_either_side, _two_homogeneous, parts_of=parts_of)),
        ("support", _support),
        ("leading_bracket", _leading_bracket),
        ("cf_kf", _cf_kf),
    )
    attempts: list[AttemptRecord] = []
    for name, run in battery:
        cert = run(z, w)
        if cert is not None:
            attempts.append(AttemptRecord(name, True, "certificate issued"))
            replay_certificate(cert, z, w)
            return DCReport(Outcome.GENERATES, cert, "", tuple(attempts), (z, w))
        attempts.append(AttemptRecord(name, False, _DECLINE_NOTES[name]))
    return DCReport(Outcome.INCONCLUSIVE, None,
                    "no criterion in the battery applies to this pair",
                    tuple(attempts), (z, w))
