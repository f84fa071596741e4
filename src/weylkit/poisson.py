"""Poisson structure on Q[X, Y] and the commuting-pair classification.

The bracket is defined on monomials by
{X^i Y^j, X^k Y^l} = (i*l - j*k) X^(i+k-1) Y^(j+l-1) and extended
bilinearly; poisson_bracket_via_jacobian computes it through partial
derivatives and BiPoly products instead.  On top of the bracket sit the
facts used by the generation criteria: a vanishing bracket between
nonconstant homogeneous elements forces an exact power relation, and
commuting elements share a common base whose powers explain both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .bipoly import (
    _BRACKET,
    BiPoly,
    Direction,
    DirectionLike,
    _product,
    as_direction,
    is_homogeneous,
    mth_root,
    power_decomposition,
    v_deg,
)
from .errors import InvariantViolation
from .geometry import Point, cone_of


def poisson_bracket(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact Poisson bracket {f, g} = f_X g_Y - f_Y g_X.

    Runs on the integer product kernel in bipoly: both operands'
    denominators are cleared once.  Sparse operands (term pairs at most
    twice the packed slot count) use the monomial rule (i l - j k) in
    integers; dense ones pack f_X, g_Y, f_Y, g_X and form
    f_X g_Y - f_Y g_X in one Kronecker accumulator.
    """
    return BiPoly._from_canonical(_product(f._terms, g._terms, _BRACKET))


def poisson_bracket_via_jacobian(f: BiPoly, g: BiPoly) -> BiPoly:
    """Same bracket through partial derivatives; kept as an independent route."""
    return f.partial_x() * g.partial_y() - f.partial_y() * g.partial_x()


def bracket_degree_bound(f: BiPoly, g: BiPoly, d: DirectionLike) -> bool:
    """Weighted degree of {f, g} never exceeds deg f + deg g - (rho + sigma)."""
    dd = as_direction(d)
    br = poisson_bracket(f, g)
    if br.is_zero():
        return True
    if f.is_zero() or g.is_zero():
        return True
    bound = v_deg(f, dd) + v_deg(g, dd) - (dd.rho + dd.sigma)
    return v_deg(br, dd) <= bound


class FuGvCheck(NamedTuple):
    """Both sides of the bracket / power-relation equivalence.

    The two booleans are computed independently and always agree; a
    mismatch is a library bug and raises before this pair is built.
    """

    bracket_zero: bool
    power_relation_holds: bool


def _power_relation(f: BiPoly, g: BiPoly, exp_f: int, exp_g: int) -> Optional[Fraction]:
    """Scalar lam with f^exp_f == lam * g^exp_g, or None."""
    lhs = f ** exp_f
    rhs = g ** exp_g
    _, a = lhs.glex_lead()
    _, b = rhs.glex_lead()
    lam = a / b
    return lam if lhs == rhs._scaled(lam) else None


def _require_nonconstant_homogeneous(f: BiPoly, g: BiPoly, dd: Direction) -> None:
    for name, h in (("first", f), ("second", g)):
        if h.is_zero() or h.is_constant():
            raise ValueError(f"{name} argument must be nonconstant")
        if is_homogeneous(h, dd) is None:
            raise ValueError(f"{name} argument is not homogeneous along {dd}")


def lemma_fu_gv_check(f: BiPoly, g: BiPoly, d: DirectionLike) -> FuGvCheck:
    """Check that {f, g} = 0 holds exactly when a power relation ties f to g.

    Both inputs must be nonconstant and homogeneous along d, say of
    weighted degrees v and u.  When v and u are both positive or both
    negative the relation reads f^|u| = lam * g^|v| for some nonzero
    scalar; when both are zero it is vacuously true; for any other sign
    pattern no relation can exist and the bracket must be nonzero.  The
    two sides are evaluated independently (bracket expansion vs. exact
    power comparison); a mismatch raises InvariantViolation.
    """
    dd = as_direction(d)
    _require_nonconstant_homogeneous(f, g, dd)
    deg_f = int(v_deg(f, dd))
    deg_g = int(v_deg(g, dd))
    bracket_zero = poisson_bracket(f, g).is_zero()

    if deg_f == 0 and deg_g == 0:
        relation_holds = True
    elif deg_f * deg_g > 0:
        relation_holds = _power_relation(f, g, abs(deg_g), abs(deg_f)) is not None
    else:
        relation_holds = False

    if bracket_zero != relation_holds:
        raise InvariantViolation(
            f"bracket vanishing ({bracket_zero}) disagrees with power relation "
            f"({relation_holds}) at degrees ({deg_f}, {deg_g})"
        )
    return FuGvCheck(bracket_zero, relation_holds)


class PairKind(Enum):
    DEGREE_ZERO = "degree_zero"
    COMMON_POWER = "common_power"


@dataclass(frozen=True)
class CommutingPairClass:
    """Structure explaining why a homogeneous pair commutes.

    DEGREE_ZERO: both supports lie on the single ray where the direction
    functional vanishes.  COMMON_POWER: f = coeff_f * base^exp_f and
    g = coeff_g * base^exp_g for a monic homogeneous base with
    gcd(exp_f, exp_g) = 1, and power_scalar is the scalar lam of the
    relation f^|deg_g| = lam * g^|deg_f|.
    """

    kind: PairKind
    direction: Direction
    deg_f: int
    deg_g: int
    ray: Optional[Point] = None
    base: Optional[BiPoly] = None
    coeff_f: Optional[Fraction] = None
    coeff_g: Optional[Fraction] = None
    exp_f: Optional[int] = None
    exp_g: Optional[int] = None
    power_scalar: Optional[Fraction] = None


def classify_commuting_pair(f: BiPoly, g: BiPoly, d: DirectionLike) -> CommutingPairClass:
    """Explain a commuting nonconstant homogeneous pair constructively.

    Preconditions are checked: both elements nonconstant, homogeneous
    along d, and {f, g} = 0.  The classification is total for such pairs;
    a sign pattern or root failure that the theory excludes raises
    InvariantViolation.
    """
    dd = as_direction(d)
    _require_nonconstant_homogeneous(f, g, dd)
    if not poisson_bracket(f, g).is_zero():
        raise ValueError("arguments do not commute")
    deg_f = int(v_deg(f, dd))
    deg_g = int(v_deg(g, dd))

    if deg_f == 0 and deg_g == 0:
        pts = [e for e in f.support() | g.support() if e != (0, 0)]
        sector = cone_of(pts)
        if len(sector.rays) != 1:
            raise InvariantViolation("degree-zero pair must live on a single ray")
        return CommutingPairClass(
            kind=PairKind.DEGREE_ZERO, direction=dd, deg_f=deg_f, deg_g=deg_g,
            ray=sector.rays[0], power_scalar=Fraction(1),
        )

    if deg_f * deg_g <= 0:
        raise InvariantViolation(
            f"commuting nonconstant pair with degree signs ({deg_f}, {deg_g})"
        )

    t = gcd(abs(deg_f), abs(deg_g))
    exp_f = abs(deg_f) // t
    exp_g = abs(deg_g) // t
    root = mth_root(f, exp_f)
    if root is None:
        raise InvariantViolation("exact root promised by the power relation is missing")
    coeff_f, base = root
    if is_homogeneous(base, dd) is None:
        raise InvariantViolation("common base must be homogeneous")
    rhs = base ** exp_g
    _, a = g.glex_lead()
    _, b = rhs.glex_lead()
    coeff_g = a / b
    if g != rhs._scaled(coeff_g):
        raise InvariantViolation("second element is not a scalar power of the base")
    power_scalar = _power_relation(f, g, abs(deg_g), abs(deg_f))
    if power_scalar is None:
        raise InvariantViolation("power relation must hold for a commuting pair")
    return CommutingPairClass(
        kind=PairKind.COMMON_POWER, direction=dd, deg_f=deg_f, deg_g=deg_g,
        base=base, coeff_f=coeff_f, coeff_g=coeff_g, exp_f=exp_f, exp_g=exp_g,
        power_scalar=power_scalar,
    )


def centralizer_generator(f: BiPoly, d: DirectionLike) -> tuple[BiPoly, int]:
    """Monic homogeneous base whose powers exhaust what commutes with f.

    Requires f nonconstant, homogeneous along d, of nonzero weighted
    degree.  Returns (base, m) with f equal to a scalar times base^m and
    m maximal; everything commuting with f is a polynomial in the base,
    so f generates its own centralizer exactly when m = 1.
    """
    dd = as_direction(d)
    if f.is_zero() or f.is_constant():
        raise ValueError("argument must be nonconstant")
    if is_homogeneous(f, dd) is None:
        raise ValueError(f"argument is not homogeneous along {dd}")
    if v_deg(f, dd) == 0:
        raise ValueError("argument must have nonzero weighted degree")
    _, base, m = power_decomposition(f)
    if is_homogeneous(base, dd) is None:
        raise InvariantViolation("maximal-power base of a homogeneous element must be homogeneous")
    return base, m


def cone_containment_check(f: BiPoly, g: BiPoly, d: DirectionLike) -> bool:
    """Whether every support point of g lies in the cone spanned by f's support.

    Preconditions: f is nonconstant and homogeneous along d of nonzero
    weighted degree, and {f, g} = 0 (g itself need not be homogeneous).
    For such pairs the containment always holds, since each graded part
    of g is a polynomial in a base sharing f's cone; the function just
    reports the geometry so tests can assert it.
    """
    dd = as_direction(d)
    if f.is_zero() or f.is_constant():
        raise ValueError("first argument must be nonconstant")
    if is_homogeneous(f, dd) is None:
        raise ValueError(f"first argument is not homogeneous along {dd}")
    if v_deg(f, dd) == 0:
        raise ValueError("first argument must have nonzero weighted degree")
    if not poisson_bracket(f, g).is_zero():
        raise ValueError("arguments do not commute")
    sector = cone_of(f.support())
    return all(sector.contains(p) for p in g.support())
