"""Lifting circles to points and point pairs to lines in R^3, with exact audits.

A circle with center (x, y) and squared radius r2 lifts to the spatial point
(x, y, r2 - x^2 - y^2); a planar point p becomes the plane
z = -2*p.x*x - 2*p.y*y + (p.x^2 + p.y^2), and a lens base pair becomes the
intersection line of its two planes.  Containment transports exactly: p lies
on a circle iff the lifted circle lies on p's plane.

Lens lines are rational: a lens's base points are rational or Galois
conjugates over one Q(sqrt(delta)), and conjugation swaps their planes, so
it fixes their common line.  A DualLine keeps its canonical Fraction anchor
and direction and an integer form: both times their common denominator.
DualLine.of canonicalises on integers, and the audit builds the line of
each lens from its integer record (pencils.lens_record).
The audits run on the integer forms, each lifted circle read from the
circle's own integer form (geometry.Circle) as the point (X, Y, -P)/D, so
no Fraction is built per test.

The audits check, with exact arithmetic, that no circle participating in
three lenses of a certified non-overlapping family has coplanar lens lines,
and that any plane spanned by a coplanar pair of family lines carries at most
two participation incidences per lifted circle it contains.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import DegenerateInput
from .families import LensFamily
from .pencils import Scene, lens_record, pair_record
from .quadfield import QuadNum, QuadPoint, cleared, frac
from .records import FrozenRecord


class DualPoint(FrozenRecord):
    _fields = ("x", "y", "z")


class DualPlane(FrozenRecord):
    """The plane z = a*x + b*y + d (never vertical by construction), with
    coefficients in the field of the point it is dual to."""

    _fields = ("a", "b", "d")

    def contains(self, point) -> bool:
        """Exact test in one field: the point's coordinates must be rational
        or lie in the plane's field (two fields raise ValueError)."""
        x, y, z = point
        return self.a * x + self.b * y + self.d == z


def lift_circle(c) -> DualPoint:
    return DualPoint(c.cx, c.cy, c.r2 - c.cx ** 2 - c.cy ** 2)


def dual_plane(p) -> DualPlane:
    p = QuadPoint.of(p)
    return DualPlane(-2 * p.x, -2 * p.y, p.x * p.x + p.y * p.y)


Vec3 = tuple[Fraction, Fraction, Fraction]


class DualLine(FrozenRecord):
    """Rational line in R^3, canonicalized so equal lines compare equal.

    The direction is scaled to make its first nonzero component 1, and the
    anchor is slid along the line to zero out that same component.
    """

    _fields = ("anchor", "direction")

    def __init__(self, anchor: Vec3, direction: Vec3, scaled: tuple):
        # scaled, outside the fields: (s*anchor, s*direction, s) for s the
        # lcm of the six denominators
        self.__dict__.update(anchor=anchor, direction=direction, scaled=scaled)

    @classmethod
    def of(cls, anchor, direction) -> "DualLine":
        w, anchor = cleared([frac(v) for v in anchor])
        return cls._of_ints(anchor, w, cleared([frac(v) for v in direction])[1])

    @classmethod
    def _of_ints(cls, a, w: int, d) -> "DualLine":
        """The line through a/w along d, for integer 3-vectors a and d and an
        integer w > 0, canonicalised on integers: the direction d/t for its
        first nonzero component t, and the anchor a/w - (a[i]/w)*d/t for
        that component i, both over w*t and then in lowest terms."""
        i = next((i for i in range(3) if d[i]), None)
        if i is None:
            raise DegenerateInput("line direction must be nonzero")
        t = d[i]
        ints = [x * t - a[i] * y for x, y in zip(a, d)] + [y * w for y in d]
        s = w * t
        h = gcd(s, *ints) if s > 0 else -gcd(s, *ints)
        ints, s = [x // h for x in ints], s // h
        return cls(tuple(Fraction(x, s) for x in ints[:3]),
                   tuple(Fraction(x, s) for x in ints[3:]),
                   (tuple(ints[:3]), tuple(ints[3:]), s))

    def contains(self, point) -> bool:
        """Exact test for a point with coordinates rational or in one field."""
        w = [QuadNum.of(v) - a for v, a in zip(point, self.anchor)]
        return all(c == 0 for c in _cross3(w, self.direction))


def lens_line(p, q) -> DualLine:
    """The intersection line of the dual planes of p and q (_line).  Raises
    DegenerateInput for a pair that cannot be a lens base: equal points,
    two fields, or non-conjugate irrational points.
    """
    p, q = QuadPoint.of(p), QuadPoint.of(q)
    if p == q:
        raise DegenerateInput("lens base points must be distinct")
    return _line(*pair_record(p, q))


def _line(den: int, delta: int, p, q) -> DualLine:
    """The lens line of base points with integer parts p and q over den and
    delta (pencils.lens_record): with s = p + q and e = q - p it passes
    through (s/2, (|e|^2 - |s|^2)/4) along (-e.y, e.x, s.x*e.y - s.y*e.x),
    where a conjugate pair's e loses its sqrt(delta).  DegenerateInput for
    irrational points that are not conjugate."""
    if delta and q != (p[0], -p[1], p[2], -p[3]):
        raise DegenerateInput("irrational lens base points must be conjugate")
    (pxa, pxb, pya, pyb), (qxa, qxb, qya, qyb) = p, q
    # s and e times den; e's parts are its rational or its sqrt(delta) ones
    sx, sy = pxa + qxa, pya + qya
    u, v = (qxb - pxb, qyb - pyb) if delta else (qxa - pxa, qya - pya)
    z = (u * u + v * v) * (delta or 1) - sx * sx - sy * sy
    return DualLine._of_ints((2 * den * sx, 2 * den * sy, z), 4 * den * den,
                             (-v * den, u * den, sx * v - sy * u))


# -- exact audits -------------------------------------------------------------
#
# The audits run on each line's integer form (A, D, s) (DualLine.scaled): a
# plane is (normal, k, s) for the points x with s*(normal . x) == k, and a
# point or an anchor is homogeneous, (P, w) for P/w with w > 0.

def _cross3(u, v) -> list:
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _offset(l1: DualLine, l2: DualLine) -> list[int]:
    """s1*s2 times the anchor of l2 minus the anchor of l1."""
    (a1, _, s1), (a2, _, s2) = l1.scaled, l2.scaled
    return [y * s1 - x * s2 for x, y in zip(a1, a2)]


def _pair_plane(l1: DualLine, l2: DualLine):
    """Common plane of two coplanar lines as (normal, k, s), or None."""
    a1, d1, s1 = l1.scaled
    w = _offset(l1, l2)
    normal = _cross3(d1, l2.scaled[1])
    if _dot3(normal, w):
        return None  # skew lines
    if not any(normal):
        # parallel lines: span with the anchor offset instead
        normal = _cross3(d1, w)
        if not any(normal):
            return None  # identical lines do not span a plane
    return normal, _dot3(normal, a1), s1


def _plane_contains_line(plane, line: DualLine) -> bool:
    normal, k, s = plane
    anchor, direction, w = line.scaled
    return not _dot3(normal, direction) and s * _dot3(normal, anchor) == w * k


def lines_coplanar(l1: DualLine, l2: DualLine, l3: DualLine) -> bool:
    """Exact test that three lines lie in one common plane: the plane of
    the first pair that spans one holds the third line."""
    for a, b, c in ((l1, l2, l3), (l1, l3, l2), (l2, l3, l1)):
        plane = _pair_plane(a, b)
        if plane is not None:
            return _plane_contains_line(plane, c)
    # each pair is skew or identical, and equal lines are equal records
    return l1 == l2 == l3


class AuditReport(FrozenRecord):
    _fields = ("coplanar_triples", "plane_violations")

    def __init__(self, coplanar_triples: list | None = None,
                 plane_violations: list | None = None):
        self.__dict__.update(
            coplanar_triples=[] if coplanar_triples is None else coplanar_triples,
            plane_violations=[] if plane_violations is None else plane_violations)

    @property
    def clean(self) -> bool:
        return not self.coplanar_triples and not self.plane_violations


def coplanarity_audit(scene: Scene, family: LensFamily) -> AuditReport:
    """Audit a certified family against the no-three-coplanar-lines property
    and the per-plane incidence cap."""
    if not family.certificate:
        raise DegenerateInput("audit requires a certified family")
    report = AuditReport()
    members = family.members
    lines = [_line(*lens_record(lens)) for lens in members]

    by_circle: dict[int, list[int]] = {}
    for i, lens in enumerate(members):
        for cid in lens.circles:
            by_circle.setdefault(cid, []).append(i)

    for cid, ids in sorted(by_circle.items()):
        if len(ids) < 3:
            continue
        for trio in combinations(ids, 3):
            if lines_coplanar(*(lines[i] for i in trio)):
                report.coplanar_triples.append(
                    (cid, tuple(members[i] for i in trio)))

    # lift_circle(c) = (X, Y, -P)/D for the circle's integer form
    lifted = [(x, y, -p, d) for x, y, p, d in (c.form for c in scene.circles)]
    for i, j in combinations(range(len(members)), 2):
        plane = _pair_plane(lines[i], lines[j])
        if plane is None:
            continue
        (a, b, c), k, s = plane
        in_plane_circles = {cid for cid, (x, y, z, d) in enumerate(lifted)
                            if s * (a * x + b * y + c * z) == d * k}
        incidences = sum(1 for lens, line in zip(members, lines)
                         if _plane_contains_line(plane, line)
                         for cid in lens.circles if cid in in_plane_circles)
        if incidences > 2 * len(in_plane_circles):
            report.plane_violations.append(
                ((members[i], members[j]), incidences, len(in_plane_circles)))
    return report
