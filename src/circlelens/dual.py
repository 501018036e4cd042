"""Lifting circles to points and point pairs to lines in R^3, with exact audits.

A circle with center (x, y) and squared radius r2 lifts to the spatial point
(x, y, r2 - x^2 - y^2); a planar point p becomes the plane
z = -2*p.x*x - 2*p.y*y + (p.x^2 + p.y^2), and a lens base pair becomes the
intersection line of its two planes.  Containment transports exactly: p lies
on a circle iff the lifted circle lies on p's plane.

Lens lines are rational: a lens's base points are rational or Galois
conjugates over one Q(sqrt(delta)), and conjugation swaps their planes, so
it fixes their common line.  Lines and audits therefore run over Fraction.

The audits check, with exact arithmetic, that no circle participating in
three lenses of a certified non-overlapping family has coplanar lens lines,
and that any plane spanned by a coplanar pair of family lines carries at most
two participation incidences per lifted circle it contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import DegenerateInput
from .families import LensFamily
from .pencils import Scene
from .quadfield import QuadNum, QuadPoint, frac


@dataclass(frozen=True)
class DualPoint:
    x: Fraction
    y: Fraction
    z: Fraction


@dataclass(frozen=True)
class DualPlane:
    """The plane z = a*x + b*y + d (never vertical by construction), with
    coefficients in the field of the point it is dual to."""

    a: QuadNum
    b: QuadNum
    d: QuadNum

    def contains(self, point) -> bool:
        """Exact test in one field: the point's coordinates must be rational
        or lie in the plane's field (two fields raise ValueError)."""
        x, y, z = point
        return self.a * x + self.b * y + self.d == z


def lift_circle(c) -> DualPoint:
    return DualPoint(c.cx, c.cy, c.r2 - c.cx ** 2 - c.cy ** 2)


def dual_plane(p) -> DualPlane:
    p = QuadPoint.of(p)
    return DualPlane(a=-2 * p.x, b=-2 * p.y, d=p.x * p.x + p.y * p.y)


Vec3 = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class DualLine:
    """Rational line in R^3, canonicalized so equal lines compare equal.

    The direction is scaled to make its first nonzero component 1, and the
    anchor is slid along the line to zero out that same component.
    """

    anchor: Vec3
    direction: Vec3

    @classmethod
    def of(cls, anchor, direction) -> "DualLine":
        anchor = tuple(frac(v) for v in anchor)
        direction = tuple(frac(v) for v in direction)
        pivot = next((i for i in range(3) if direction[i]), None)
        if pivot is None:
            raise DegenerateInput("line direction must be nonzero")
        inv = 1 / direction[pivot]
        direction = tuple(v * inv for v in direction)
        t = anchor[pivot]
        anchor = tuple(anchor[i] - t * direction[i] for i in range(3))
        return cls(anchor=anchor, direction=direction)

    def contains(self, point) -> bool:
        """Exact test for a point with coordinates rational or in one field."""
        w = [QuadNum.of(v) - a for v, a in zip(point, self.anchor)]
        return all(c == 0 for c in _cross3(w, self.direction))


def lens_line(p, q) -> DualLine:
    """The intersection line of the dual planes of p and q: with m = (p+q)/2
    and h = (q-p)/2 it passes through (m, |h|^2 - |m|^2) along
    (-h.y, h.x, 2*(m.x*h.y - m.y*h.x)), where a conjugate pair's h loses its
    sqrt(delta).  Raises DegenerateInput for a pair that cannot be a lens
    base: equal points, two fields, or non-conjugate irrational points.
    """
    p, q = QuadPoint.of(p), QuadPoint.of(q)
    if p == q:
        raise DegenerateInput("lens base points must be distinct")
    try:
        mx, my = (p.x + q.x) / 2, (p.y + q.y) / 2
        h = QuadPoint((q.x - p.x) / 2, (q.y - p.y) / 2)
    except ValueError:
        raise DegenerateInput(
            "lens base points lie in two quadratic fields") from None
    hx, hy = h
    if not (mx.is_rational and my.is_rational) or (
            not h.is_rational and (hx.a or hy.a)):
        raise DegenerateInput("irrational lens base points must be conjugate")
    mx, my = mx.a, my.a
    u, v, d = (hx.a, hy.a, 1) if h.is_rational else (hx.b, hy.b, h.delta)
    return DualLine.of((mx, my, (u * u + v * v) * d - mx * mx - my * my),
                       (-v, u, 2 * (mx * v - my * u)))


# -- exact audits -------------------------------------------------------------

def _cross3(u, v) -> list[Fraction]:
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def _dot3(u, v) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sub3(u, v) -> list[Fraction]:
    return [a - b for a, b in zip(u, v)]


def _pair_plane(l1: DualLine, l2: DualLine):
    """Common plane of two coplanar lines as (normal, offset), or None."""
    w = _sub3(l2.anchor, l1.anchor)
    normal = _cross3(l1.direction, l2.direction)
    if _dot3(normal, w):
        return None  # skew lines
    if not any(normal):
        # parallel lines: span with the anchor offset instead
        normal = _cross3(l1.direction, w)
        if not any(normal):
            return None  # identical lines do not span a plane
    return normal, _dot3(normal, l1.anchor)


def _plane_contains_line(plane, line: DualLine) -> bool:
    normal, offset = plane
    return not _dot3(normal, line.direction) \
        and _dot3(normal, line.anchor) == offset


def _plane_contains_point(plane, point) -> bool:
    normal, offset = plane
    return _dot3(normal, point) == offset


def lines_coplanar(l1: DualLine, l2: DualLine, l3: DualLine) -> bool:
    """Exact test that three lines lie in one common plane."""
    for a, b in ((l1, l2), (l1, l3), (l2, l3)):
        w = _sub3(b.anchor, a.anchor)
        if _dot3(_cross3(a.direction, b.direction), w):
            return False
    for a, b, c in ((l1, l2, l3), (l1, l3, l2), (l2, l3, l1)):
        plane = _pair_plane(a, b)
        if plane is not None:
            return _plane_contains_line(plane, c)
    return True  # no pair spans a plane: all three lines are identical


@dataclass
class AuditReport:
    coplanar_triples: list = field(default_factory=list)
    plane_violations: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.coplanar_triples and not self.plane_violations


def coplanarity_audit(scene: Scene, family: LensFamily) -> AuditReport:
    """Audit a certified family against the no-three-coplanar-lines property
    and the per-plane incidence cap."""
    if not family.certificate:
        raise DegenerateInput("audit requires a certified family")
    report = AuditReport()
    lines = {lens: lens_line(*lens.base) for lens in family.members}

    by_circle: dict[int, list] = {}
    for lens in family.members:
        for cid in lens.circles:
            by_circle.setdefault(cid, []).append(lens)

    for cid, lenses in sorted(by_circle.items()):
        if len(lenses) < 3:
            continue
        for trio in combinations(lenses, 3):
            if lines_coplanar(*(lines[t] for t in trio)):
                report.coplanar_triples.append((cid, trio))

    lifted = {cid: lift_circle(c) for cid, c in enumerate(scene.circles)}
    members = list(family.members)
    for i, li in enumerate(members):
        for lj in members[i + 1:]:
            plane = _pair_plane(lines[li], lines[lj])
            if plane is None:
                continue
            in_plane_circles = {cid for cid, pt in lifted.items()
                                if _plane_contains_point(plane, (pt.x, pt.y, pt.z))}
            in_plane_lenses = [lens for lens in members
                               if _plane_contains_line(plane, lines[lens])]
            incidences = sum(1 for lens in in_plane_lenses
                             for cid in lens.circles if cid in in_plane_circles)
            if incidences > 2 * len(in_plane_circles):
                report.plane_violations.append(
                    ((li, lj), incidences, len(in_plane_circles)))
    return report
