"""Lattice geometry attached to the support of an element.

Provides convex hulls of exponent sets, the first-quadrant Newton region
swept toward the origin along (-1, -1), the upper-right boundary chain
(the part of the boundary seen from directions (rho, sigma) with
rho + sigma > 0), and convex cones spanned by support points.  Everything
works on plain integer pairs, so both commutative polynomials and
normal-ordered operators can be fed in through their support() method.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Union

from .bipoly import Direction
from .errors import InvariantViolation

Point = tuple[int, int]


def _cross(a: Point, b: Point) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a -> b -> c: positive means counterclockwise."""
    return _cross((b[0] - a[0], b[1] - a[1]), (c[0] - a[0], c[1] - a[1]))


def _hull_vertices(points: Iterable[Point]) -> tuple[Point, ...]:
    """Vertices of the convex hull, counterclockwise from the lex-smallest.

    Collinear points interior to an edge are dropped.  Degenerate inputs
    yield fewer than three vertices: the empty tuple, a single point, or
    the two endpoints of a segment in lex order.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] > hull[1]:
        hull = [hull[1], hull[0]]
    return tuple(hull)


@dataclass(frozen=True)
class LatticePolygon:
    """Convex lattice polygon in the first quadrant, possibly degenerate.

    Vertices are stored counterclockwise starting from the lex-smallest,
    with no three consecutive vertices collinear.  Two polygons are equal
    exactly when their vertex tuples are equal.  The empty polygon is the
    Newton region of the zero element.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self):
        vs = self.vertices
        if len(vs) != len(set(vs)):
            raise ValueError("repeated vertex")
        for (i, j) in vs:
            if i < 0 or j < 0:
                raise ValueError(f"vertex ({i}, {j}) outside the first quadrant")
        if len(vs) >= 2 and min(vs) != vs[0]:
            raise ValueError("vertices must start at the lex-smallest")
        if len(vs) == 2 and vs[0] >= vs[1]:
            raise ValueError("segment endpoints out of order")
        for k in range(len(vs)):
            if len(vs) >= 3 and _orient(vs[k - 2], vs[k - 1], vs[k]) <= 0:
                raise ValueError("vertices must make strict counterclockwise turns")

    @staticmethod
    def hull_of(points: Iterable[Point]) -> "LatticePolygon":
        return LatticePolygon(_hull_vertices(points))

    def is_empty(self) -> bool:
        return not self.vertices

    def edges(self) -> tuple[tuple[Point, Point], ...]:
        vs = self.vertices
        if len(vs) < 2:
            return ()
        if len(vs) == 2:
            return ((vs[0], vs[1]),)
        return tuple((vs[k], vs[(k + 1) % len(vs)]) for k in range(len(vs)))

    def contains(self, p: Point) -> bool:
        vs = self.vertices
        if not vs:
            return False
        if len(vs) == 1:
            return p == vs[0]
        if len(vs) == 2:
            a, b = vs
            if _orient(a, b, p) != 0:
                return False
            return min(a, b) <= p <= max(a, b)
        return all(_orient(a, b, p) >= 0 for a, b in self.edges())


def convex_hull(points: Iterable[Point]) -> LatticePolygon:
    """Convex hull of a nonempty set of lattice points as a LatticePolygon."""
    pts = list(points)
    if not pts:
        raise ValueError("convex hull of an empty point set is undefined")
    return LatticePolygon.hull_of(pts)


def _support_points(z) -> frozenset[Point]:
    pts = z.support() if hasattr(z, "support") else frozenset(z)
    for (i, j) in pts:
        if i < 0 or j < 0:
            raise ValueError(f"support point ({i}, {j}) outside the first quadrant")
    return frozenset(pts)


def ntp(z) -> LatticePolygon:
    """First-quadrant Newton region of z.

    The convex hull of the support is swept toward the origin along the
    direction (-1, -1) and clipped to the first quadrant.  The result is
    the hull of the original vertices, their diagonal projections onto the
    axes, and the origin whenever the sweep reaches it.  The zero element
    yields the empty polygon.
    """
    pts = _support_points(z)
    if not pts:
        return LatticePolygon(())
    hull = _hull_vertices(pts)
    cand: set[Point] = set(hull)
    for (i, j) in hull:
        t = min(i, j)
        cand.add((i - t, j - t))
    diffs = [j - i for (i, j) in hull]
    if min(diffs) <= 0 <= max(diffs):
        cand.add((0, 0))
    return LatticePolygon.hull_of(cand)


@dataclass(frozen=True)
class RoofChain:
    """Boundary chain exposed to directions (rho, sigma) with rho+sigma > 0.

    Points run from the (1, -1)-extreme end to the (-1, 1)-extreme end;
    a single point means no boundary edge is exposed at all.
    """

    points: tuple[Point, ...]

    def is_point(self) -> bool:
        return len(self.points) == 1

    def edges(self) -> tuple[tuple[Point, Point], ...]:
        vs = self.points
        return tuple((vs[k], vs[k + 1]) for k in range(len(vs) - 1))

    def edge_normals(self) -> tuple[Direction, ...]:
        """Outward normal of each chain edge; every normal has rho+sigma > 0."""
        out = []
        for (x1, y1), (x2, y2) in self.edges():
            out.append(Direction(y2 - y1, x1 - x2))
        return tuple(out)


def _roof_of(poly: LatticePolygon) -> RoofChain:
    """Chain of boundary points supporting some direction with rho+sigma > 0."""
    vs = poly.vertices
    if not vs:
        raise ValueError("the empty polygon has no roof")
    a = max(vs, key=lambda v: (v[0] - v[1], v[0]))
    b = max(vs, key=lambda v: (v[1] - v[0], v[1]))
    if len(vs) == 1 or a == b:
        return RoofChain((a,))
    if len(vs) == 2:
        return RoofChain((a, b))
    n = len(vs)
    exposed = []
    for k in range(n):
        (x1, y1), (x2, y2) = vs[k], vs[(k + 1) % n]
        exposed.append((y2 - y1) > (x2 - x1))
    starts = [k for k in range(n) if exposed[k] and not exposed[(k - 1) % n]]
    if len(starts) != 1:
        raise InvariantViolation("exposed edges of a convex polygon must be contiguous")
    k = starts[0]
    chain = [vs[k]]
    while exposed[k]:
        k = (k + 1) % n
        chain.append(vs[k])
    if chain[0] != a or chain[-1] != b:
        raise InvariantViolation("roof endpoints disagree with extremal vertices")
    return RoofChain(tuple(chain))


def roof(z) -> RoofChain:
    """Roof of a nonzero element: the exposed chain of its support hull."""
    pts = _support_points(z)
    if not pts:
        raise ValueError("the zero element has no roof")
    return _roof_of(LatticePolygon.hull_of(pts))


def _primitive(p: Point) -> Point:
    g = gcd(abs(p[0]), abs(p[1]))
    return (p[0] // g, p[1] // g)


@dataclass(frozen=True)
class ConeSector:
    """Convex cone in the first quadrant spanned by zero, one or two rays.

    No rays means the origin alone; one ray is a half-line; two rays span
    the sector swept counterclockwise from the first to the second.
    """

    rays: tuple[Point, ...]

    def __post_init__(self):
        for r in self.rays:
            if r == (0, 0):
                raise ValueError("zero vector is not a ray")
            if r != _primitive(r):
                raise ValueError(f"ray {r} is not primitive")
            if r[0] < 0 or r[1] < 0:
                raise ValueError(f"ray {r} outside the first quadrant")
        if len(self.rays) == 2 and _cross(self.rays[0], self.rays[1]) <= 0:
            raise ValueError("sector rays must be distinct and counterclockwise")
        if len(self.rays) > 2:
            raise ValueError("a planar sector has at most two extreme rays")

    def contains(self, p: Point) -> bool:
        if p == (0, 0):
            return True
        if not self.rays:
            return False
        if len(self.rays) == 1:
            r = self.rays[0]
            return _cross(r, p) == 0 and r[0] * p[0] + r[1] * p[1] > 0
        r1, r2 = self.rays
        return _cross(r1, p) >= 0 and _cross(p, r2) >= 0


def cone_of(source: Union[Iterable[Point], RoofChain, LatticePolygon]) -> ConeSector:
    """Smallest convex cone at the origin containing the given points.

    Accepts a bare point collection, a RoofChain, or a LatticePolygon;
    a cone over a convex set is the cone over its vertices.  The input
    must be nonempty; points at the origin alone give the origin cone.
    """
    if isinstance(source, RoofChain):
        pts: Iterable[Point] = source.points
    elif isinstance(source, LatticePolygon):
        pts = source.vertices
    else:
        pts = source
    pts = list(pts)
    if not pts:
        raise ValueError("cone of an empty point set is undefined")
    rays = {_primitive(p) for p in pts if p != (0, 0)}
    if not rays:
        return ConeSector(())
    lo = hi = next(iter(rays))
    for r in rays:
        if _cross(r, lo) > 0:
            lo = r
        if _cross(hi, r) > 0:
            hi = r
    if lo == hi:
        return ConeSector((lo,))
    return ConeSector((lo, hi))


@dataclass(frozen=True)
class HalfQuadrantEquiv:
    """Five independent answers to one membership question.

    For the upper half-quadrant (j >= i) the routes are: the graded parts
    all sit at nonnegative levels; every support point is on or above the
    diagonal; so is every roof point; so is the cone over the roof; so is
    the whole Newton region.  The five answers provably coincide, and the
    constructor of this record is only reached after that is verified.
    """

    in_grading: bool
    support_contained: bool
    roof_contained: bool
    cone_contained: bool
    ntp_contained: bool

    def holds(self) -> bool:
        return self.in_grading


def _half_quadrant_equiv(z, upper: bool) -> HalfQuadrantEquiv:
    pts = _support_points(z)
    if not pts:
        raise ValueError("the zero element has no membership geometry")

    def ok(p: Point) -> bool:
        return p[1] >= p[0] if upper else p[0] >= p[1]

    grades = {j - i for (i, j) in pts}
    chain = roof(z)
    sector = cone_of(chain)
    region = ntp(z)
    report = HalfQuadrantEquiv(
        in_grading=all((g >= 0 if upper else g <= 0) for g in grades),
        support_contained=all(ok(p) for p in pts),
        roof_contained=all(ok(p) for p in chain.points),
        cone_contained=all(ok(r) for r in sector.rays),
        ntp_contained=all(ok(p) for p in region.vertices),
    )
    answers = {
        report.in_grading,
        report.support_contained,
        report.roof_contained,
        report.cone_contained,
        report.ntp_contained,
    }
    if len(answers) > 1:
        side = "upper" if upper else "lower"
        raise InvariantViolation(f"{side} half-quadrant membership routes disagree: {report}")
    return report


def grading_geometry_equiv(z) -> HalfQuadrantEquiv:
    """Upper half-quadrant (j >= i) membership, decided five ways."""
    return _half_quadrant_equiv(z, upper=True)


def grading_geometry_equiv_lower(z) -> HalfQuadrantEquiv:
    """Lower half-quadrant (i >= j) membership: the mirrored variant."""
    return _half_quadrant_equiv(z, upper=False)
