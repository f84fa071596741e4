"""Normal-ordered arithmetic in the rational Weyl algebra.

Elements are stored on the basis p^i q^j with exact rational
coefficients, where the generators satisfy p q - q p = 1.  Read as
symbols in X = p, Y = q, the normal-ordered product is the derivative
identity

    f * g = sum_j (-1)^j (d_Y^j f / j!) (d_X^j g),

which on basis monomials is the closed reordering sum

    p^s1 q^i1 * p^s2 q^i2
        = sum_j (-1)^j j! C(i1, j) C(s2, j) p^(s1+s2-j) q^(i1+i2-j)

over 0 <= j <= min(i1, s2).  WeylElement is bipoly's element class with
this product rule and the symbols p, q.  The product runs on the kernel in
bipoly shared with the commutative side, which has four rules: the
commutative product, the Poisson bracket, this product and the
commutator.  Each operand's denominators are cleared once, dense operands
(term pairs more than twice the packed slot count) go through Kronecker
packing with the j terms summed in one packed accumulator, sparse ones
through the closed sum in integers.  The commutator [z, w] never forms
z * w and w * z: their j = 0 terms are equal and cancel, so the kernel
sums only the j >= 1 terms of both orders, in one pass.  The module
also carries the integer grading by q-degree minus p-degree, the
transport of weighted-degree tools along the basis identification with
Q[X, Y], and the leading-form laws that connect the two worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .bipoly import (
    _COMMUTATOR,
    _WEYL,
    NEG_INF,
    BiPoly,
    Direction,
    DirectionLike,
    _SparseTerms,
    _poly_eval,
    _product,
    as_direction,
    homog_decomp,
    leading_form,
    v_deg,
)
from .errors import InvariantViolation
from .linalg import in_span, nullspace
from .poisson import poisson_bracket


class WeylElement(_SparseTerms):
    """Element of the Weyl algebra in the normal-ordered basis p^i q^j."""

    _RULE = _WEYL
    _SYMBOLS = ("p", "q")

    @staticmethod
    def gen_p() -> "WeylElement":
        return WeylElement({(1, 0): 1})

    @staticmethod
    def gen_q() -> "WeylElement":
        return WeylElement({(0, 1): 1})


def phi(z: WeylElement) -> BiPoly:
    """Basis identification sending p^i q^j to X^i Y^j.

    Both sides are immutable and z's term map is already canonical, so the
    image shares it instead of re-checking a copy.
    """
    return BiPoly._from_canonical(z._terms)


def phi_inv(f: BiPoly) -> WeylElement:
    """Inverse of phi, sharing f's canonical term map in the same way."""
    return WeylElement._from_canonical(f._terms)


def weyl_mul(z: WeylElement, w: WeylElement) -> WeylElement:
    """Normal-ordered product (see the module docstring)."""
    return z * w


def commutator(z: WeylElement, w: WeylElement) -> WeylElement:
    """[z, w] = z w - w z in one kernel pass, without forming either product."""
    return WeylElement._from_canonical(_product(z._terms, w._terms, _COMMUTATOR))


def grade(e: tuple[int, int]) -> int:
    return e[1] - e[0]


@dataclass(frozen=True)
class GradedDecomp:
    """Decomposition along the integer grading, grades strictly decreasing."""

    parts: tuple[tuple[int, WeylElement], ...]


def graded_decomp(z: WeylElement) -> GradedDecomp:
    """Split z into its graded components, checked as ad(pq)-eigenvectors."""
    parts = homog_decomp(z, Direction(-1, 1)).parts  # the degree along (-1, 1) is grade
    pq = WeylElement({(1, 1): 1})
    for g, part in parts:
        if commutator(pq, part) != part._scaled(Fraction(g)):
            raise InvariantViolation(f"component at level {g} is not an ad(pq)-eigenvector")
    return GradedDecomp(parts)


def in_D_geq(z: WeylElement, k: int = 0) -> bool:
    """Whether every support monomial has grade at least k."""
    return all(grade(e) >= k for e in z.support())


def in_D_leq(z: WeylElement, k: int = 0) -> bool:
    return all(grade(e) <= k for e in z.support())


def v_deg_weyl(z: WeylElement, d: DirectionLike) -> Union[int, float]:
    return v_deg(phi(z), d)


def leading_form_weyl(z: WeylElement, d: DirectionLike) -> BiPoly:
    return leading_form(phi(z), d)


class BracketCase(Enum):
    """Which branch of the commutator leading-form dichotomy held."""

    EQ = "Eq"
    STRICT_DROP = "StrictDrop"


@dataclass(frozen=True)
class DixmierLeadingReport:
    """Certified leading-form behaviour of a product and a commutator.

    For a direction with rho + sigma > 0 the leading form of z * w always
    factors (product_ok), and the commutator either has leading form equal
    to the bracket of the leading forms at degree deg z + deg w - rho -
    sigma (case Eq) or drops strictly below that degree when the bracket
    vanishes (case StrictDrop).
    """

    direction: Direction
    product_ok: bool
    bracket_case: BracketCase
    deg_z: int
    deg_w: int
    product_deg: int
    bracket_deg: Union[int, float]
    poisson_form: Optional[BiPoly]


def dixmier_leading_check(z: WeylElement, w: WeylElement, d: DirectionLike) -> DixmierLeadingReport:
    """Verify the product and commutator leading-form laws for one pair.

    Requires z, w nonzero and rho + sigma > 0.  Violations of either law
    raise InvariantViolation since both are unconditional theorems here,
    so product_ok is always true in a returned report.
    """
    dd = as_direction(d)
    if dd.rho + dd.sigma <= 0:
        raise ValueError("leading-form laws require rho + sigma > 0")
    if z.is_zero() or w.is_zero():
        raise ValueError("arguments must be nonzero")
    f = leading_form_weyl(z, dd)
    g = leading_form_weyl(w, dd)
    deg_z = int(v_deg(f, dd))
    deg_w = int(v_deg(g, dd))

    prod = z * w
    if leading_form_weyl(prod, dd) != f * g:
        raise InvariantViolation("leading form of a product must factor")
    product_deg = int(v_deg_weyl(prod, dd))
    if product_deg != deg_z + deg_w:
        raise InvariantViolation("degree of a product must add")

    br = commutator(z, w)
    bracket_deg = v_deg_weyl(br, dd)
    expected = deg_z + deg_w - (dd.rho + dd.sigma)
    pb = poisson_bracket(f, g)
    if not pb.is_zero():
        matches = bracket_deg == expected and leading_form_weyl(br, dd) == pb
        if not matches:
            raise InvariantViolation("commutator leading form must equal the bracket of leading forms")
        return DixmierLeadingReport(dd, True, BracketCase.EQ, deg_z, deg_w,
                                    product_deg, bracket_deg, pb)
    if not (bracket_deg == NEG_INF or bracket_deg < expected):
        raise InvariantViolation("commutator degree must drop when leading forms commute")
    return DixmierLeadingReport(dd, True, BracketCase.STRICT_DROP, deg_z, deg_w,
                                product_deg, bracket_deg, None)


def shift_identity_check(coeffs: Sequence[Union[int, Fraction]], k: int) -> bool:
    """Exactness of q^k f(pq) == f(pq - k) q^k for a univariate f.

    coeffs lists f from the constant term up.  Only nonnegative shifts
    are meaningful on this side of the identity.
    """
    if k < 0:
        raise ValueError("shift must be nonnegative")
    pq = WeylElement({(1, 1): 1})
    qk = WeylElement({(0, k): 1})
    lhs = qk * _poly_eval(coeffs, pq)
    rhs = _poly_eval(coeffs, pq - WeylElement.constant(k)) * qk
    return lhs == rhs


def _box_basis(max_exp: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(max_exp + 1) for b in range(max_exp + 1)]


def centralizer_counterexamples(z: WeylElement, max_exp: int = 6) -> list[WeylElement]:
    """Bounded search for commuting elements that are not polynomials in z.

    Solves [z, w] = 0 over all w supported on exponents up to max_exp and
    returns a basis of the solutions that fall outside the span of the
    powers of z.  An empty list means the bounded centralizer is exactly
    the bounded part of those powers.
    """
    if z.is_zero() or z.is_constant():
        raise ValueError("argument must be nonconstant")
    basis = _box_basis(max_exp)
    images = [commutator(z, WeylElement({e: 1})) for e in basis]
    rows_support = sorted(set().union(*(im.support() for im in images)))
    if rows_support:
        mat = [[im.coeff(*e) for im in images] for e in rows_support]
        kernel = nullspace(mat)
    else:
        kernel = [[Fraction(1) if i == k else Fraction(0) for i in range(len(basis))]
                  for k in range(len(basis))]

    max_total = 2 * max_exp
    powers: list[WeylElement] = []
    power = WeylElement.one()
    while power.total_degree() <= max_total:
        powers.append(power)
        power = power * z

    support_union = sorted(set().union(
        set(basis), *(pw.support() for pw in powers)))
    power_vecs = [[pw.coeff(*e) for e in support_union] for pw in powers]

    out: list[WeylElement] = []
    for vec in kernel:
        w = WeylElement({e: c for e, c in zip(basis, vec)})
        w_vec = [w.coeff(*e) for e in support_union]
        if in_span(power_vecs, w_vec) is None:
            out.append(w)
    return out


def is_weyl_pair(z: WeylElement, w: WeylElement) -> bool:
    """Whether the commutator z w - w z is exactly 1."""
    return commutator(z, w) == WeylElement.one()
