"""Exact predicates and constructions on circles, points, and circular arcs.

Circles carry rational centers and rational *squared* radii, so pencils such
as r = sqrt(2) stay expressible with rational input data.  Intersection points
live in a quadratic field with one radicand shared per circle/line pair.
Angular reasoning never touches floating point: directions are compared by
quadrant and exact cross-product signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, isqrt

from .errors import DegenerateInput, NoRadicalAxis
from .quadfield import (QuadNum, QuadPoint, _quad, cleared, frac, one_radicand,
                        sign_q, two_field_sign)


@dataclass(frozen=True)
class Circle:
    """Circle with center (cx, cy) and squared radius r2 > 0."""

    cx: Fraction
    cy: Fraction
    r2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "cx", frac(self.cx))
        object.__setattr__(self, "cy", frac(self.cy))
        object.__setattr__(self, "r2", frac(self.r2))
        if self.r2 <= 0:
            raise DegenerateInput("squared radius must be positive")


@dataclass(frozen=True)
class Line:
    """Rational line a*x + b*y + c = 0, canonicalized to integer coefficients
    with content 1 and first nonzero coefficient positive."""

    a: int
    b: int
    c: int

    @classmethod
    def of(cls, a, b, c) -> "Line":
        a, b, c = frac(a), frac(b), frac(c)
        if a == 0 and b == 0:
            raise DegenerateInput("line needs a nonzero normal")
        scale = a.denominator * b.denominator * c.denominator
        ai, bi, ci = int(a * scale), int(b * scale), int(c * scale)
        g = gcd(gcd(abs(ai), abs(bi)), abs(ci))
        ai, bi, ci = ai // g, bi // g, ci // g
        lead = ai if ai else bi
        if lead < 0:
            ai, bi, ci = -ai, -bi, -ci
        return cls(ai, bi, ci)


def power_of_point(w, c: Circle) -> Fraction:
    """Power |w - center|^2 - r^2 of a rational point w."""
    wx, wy = frac(w[0]), frac(w[1])
    return (wx - c.cx) ** 2 + (wy - c.cy) ** 2 - c.r2


def radical_axis(c1: Circle, c2: Circle) -> Line:
    """Locus of equal power with respect to two non-concentric circles."""
    a = 2 * (c2.cx - c1.cx)
    b = 2 * (c2.cy - c1.cy)
    if a == 0 and b == 0:
        raise NoRadicalAxis("concentric circles have no radical axis")
    c = (c1.cx ** 2 + c1.cy ** 2 - c1.r2) - (c2.cx ** 2 + c2.cy ** 2 - c2.r2)
    return Line.of(a, b, c)


def chord_of(c: Circle, line: Line) -> tuple[Fraction, Fraction, Fraction]:
    """The chord a rational line cuts from a circle, in rational terms.

    Returns (fx, fy, x): (fx, fy) is the foot of the perpendicular from the
    center (the chord midpoint) and x = h2 * (a^2 + b^2), with h2 the squared
    half chord.  The line misses the circle iff x < 0 and touches it iff
    x == 0; otherwise it meets it at foot +- sqrt(x)/(a^2 + b^2) * (-b, a).
    """
    a, b = line.a, line.b
    d2 = a * a + b * b
    n = a * c.cx + b * c.cy + line.c
    t = n / d2
    return c.cx - t * a, c.cy - t * b, c.r2 * d2 - n * n


def chord_points(line: Line, fx, fy, x) -> tuple[QuadPoint, ...]:
    """The points of a chord given by chord_of (0, 1, or 2 points).

    The two points of a chord share one radicand."""
    if x < 0:
        return ()
    if x == 0:
        return (QuadPoint(fx, fy),)
    a, b = line.a, line.b
    # sqrt(p/q) = sqrt(p*q)/q, the radicand QuadNum gives it, found once
    d, den = x.numerator * x.denominator, (a * a + b * b) * x.denominator
    r = isqrt(d)
    if r * r == d:
        u, v = Fraction(b * r, den), Fraction(a * r, den)
        return (QuadPoint(fx - u, fy + v), QuadPoint(fx + u, fy - v))
    u, v = Fraction(b, den), Fraction(a, den)
    return (QuadPoint(_quad(fx, -u, d), _quad(fy, v, d)),
            QuadPoint(_quad(fx, u, d), _quad(fy, -v, d)))


def circle_line_points(c: Circle, line: Line) -> tuple[QuadPoint, ...]:
    """Exact intersection of a circle with a rational line (0, 1, or 2 points).

    The two points share one radicand; a single point means tangency."""
    return chord_points(line, *chord_of(c, line))


def intersection_points(c1: Circle, c2: Circle) -> tuple[QuadPoint, ...]:
    """Exact intersection points of two distinct circles."""
    if c1 == c2:
        raise DegenerateInput("identical circles")
    try:
        axis = radical_axis(c1, c2)
    except NoRadicalAxis:
        return ()
    return circle_line_points(c1, axis)


def point_on_circle(p: QuadPoint, c: Circle) -> bool:
    """Exact containment test in the quadratic field of p.

    With p = (xa + xb*sqrt(d), ya + yb*sqrt(d)), u = xa - cx and w = ya - cy,
    the power of p is u^2 + w^2 - r^2 + (xb^2 + yb^2)*d plus
    2*(u*xb + w*yb)*sqrt(d); it is zero iff both parts are, since d is never
    a square.
    """
    p = QuadPoint.of(p)
    x, y, d = p.x, p.y, p.delta
    u, w = x.a - c.cx, y.a - c.cy
    return (u * x.b + w * y.b == 0
            and u * u + w * w - c.r2 + (x.b * x.b + y.b * y.b) * d == 0)


# -- exact angular order ------------------------------------------------------

Dir = tuple[QuadNum, QuadNum]


def centered(p: QuadPoint, c: Circle) -> Dir:
    """The direction p - center, over p's radicand."""
    x, y = p.x, p.y
    return (_quad(x.a - c.cx, x.b, x.delta), _quad(y.a - c.cy, y.b, y.delta))


def _coords(d: Dir) -> tuple:
    """(xa, xb, ya, yb, m): the direction (xa + xb*sqrt(m), ya + yb*sqrt(m))
    scaled by a positive integer so that xa, xb, ya, yb are integers."""
    x, y = one_radicand(*d)
    return (*cleared((x.a, x.b, y.a, y.b))[1], x.delta or y.delta)


def _bilinear_sign(u: Dir, v: Dir, cross: bool) -> int:
    """Sign of u.x*v.y - u.y*v.x (cross) or u.x*v.x + u.y*v.y (dot).

    Both signs are unchanged when u and v are scaled by positive integers, so
    the work is over integers.  With u over sqrt(al) and v over sqrt(be) the
    value is r0 + r1*sqrt(al) + (r2 + r3*sqrt(al))*sqrt(be); two different
    radicands go through two_field_sign."""
    uxa, uxb, uya, uyb, al = _coords(u)
    vxa, vxb, vya, vyb, be = _coords(v)
    if cross:
        vxa, vxb, vya, vyb = vya, vyb, -vxa, -vxb
    r0 = uxa * vxa + uya * vya
    r1 = uxb * vxa + uyb * vya
    r2 = uxa * vxb + uya * vyb
    r3 = uxb * vxb + uyb * vyb
    if not al:
        return sign_q(r0, r2, be)
    if not be or al == be:
        return sign_q(r0 + r3 * al, r1 + r2, al)
    return two_field_sign(r0, r1, r2, r3, al, be)


def cross_sign(u: Dir, v: Dir) -> int:
    """Sign of u.x*v.y - u.y*v.x; exact across different radicands."""
    return _bilinear_sign(u, v, cross=True)


def dot_sign(u: Dir, v: Dir) -> int:
    return _bilinear_sign(u, v, cross=False)


def quadrant(d: Dir) -> int:
    """Index of the direction in counterclockwise order from the +x axis."""
    sx, sy = d[0].sign(), d[1].sign()
    if sx == 0 and sy == 0:
        raise DegenerateInput("zero direction")
    if sy == 0:
        return 0 if sx > 0 else 4
    if sx == 0:
        return 2 if sy > 0 else 6
    if sx > 0:
        return 1 if sy > 0 else 7
    return 3 if sy > 0 else 5


def cyclic_cmp(u: Dir, v: Dir) -> int:
    """Three-way comparison in the cyclic order anchored at angle 0."""
    qu, qv = quadrant(u), quadrant(v)
    if qu != qv:
        return -1 if qu < qv else 1
    s = cross_sign(u, v)
    return -s


def _quadrant_cmp(a, b) -> int:
    return (a[0] > b[0]) - (a[0] < b[0]) or cross_sign(b[1], a[1])


_quadrant_key = cmp_to_key(_quadrant_cmp)


def cyclic_key(d: Dir):
    """Sort key for the order of cyclic_cmp.  The quadrant of d is found once,
    and a cross sign is taken only against directions in the same quadrant."""
    return _quadrant_key((quadrant(d), d))


def same_direction(u: Dir, v: Dir) -> bool:
    return cross_sign(u, v) == 0 and dot_sign(u, v) > 0


def opposite_direction(u: Dir, v: Dir) -> bool:
    return cross_sign(u, v) == 0 and dot_sign(u, v) < 0


def canonical_dir(d: Dir) -> Dir:
    """Scale a direction so equal rays become structurally equal (hashable)."""
    x, y = d
    sx = x.sign()
    if sx != 0:
        inv = x.inverse() if sx > 0 else -(x.inverse())
        return (QuadNum.of(1 if sx > 0 else -1), y * inv)
    sy = y.sign()
    if sy == 0:
        raise DegenerateInput("zero direction")
    return (QuadNum.of(0), QuadNum.of(1 if sy > 0 else -1))


def dir_in_ccw_arc(v: Dir, s: Dir, e: Dir) -> bool:
    """True iff direction v lies on the closed arc running CCW from s to e.

    Handles arcs of any measure in (0, 2*pi); s == e is rejected."""
    if same_direction(s, e):
        raise DegenerateInput("empty arc")
    cse = cross_sign(s, e)
    if cse > 0:  # arc shorter than pi
        return cross_sign(s, v) >= 0 and cross_sign(v, e) >= 0
    if cse < 0:  # arc longer than pi: complement of the open CCW arc e -> s
        return not (cross_sign(e, v) > 0 and cross_sign(v, s) > 0)
    # antipodal endpoints: exactly half the circle
    return cross_sign(s, v) >= 0 or same_direction(v, e)


def lens_arc_forward(dp: Dir, dq: Dir) -> bool:
    """Does the lens arc run CCW from p to q?  dp and dq are the directions
    of a lens's base points p < q (lexicographically) from a circle's center.
    """
    return cross_sign(dp, dq) >= 0


def lens_arc(c: Circle, p, q) -> tuple[Dir, Dir]:
    """The closed CCW arc (start, end) that a lens with base {p, q} uses on c.

    This is the shorter arc between p and q; for a diameter it is the CCW
    half from the lexicographically smaller base point.
    """
    p, q = QuadPoint.of(p), QuadPoint.of(q)
    if p.compare(q) > 0:
        p, q = q, p
    dp, dq = centered(p, c), centered(q, c)
    return (dp, dq) if lens_arc_forward(dp, dq) else (dq, dp)


def arcs_overlap(c: Circle, pair1, pair2) -> bool:
    """Do the lens arcs of c (see lens_arc) for two point pairs intersect?

    Arcs are closed, so arcs sharing only an endpoint count as overlapping.
    Two closed arcs meet iff one of them contains the other's start.
    """
    p1, q1 = (QuadPoint.of(p) for p in pair1)
    p2, q2 = (QuadPoint.of(p) for p in pair2)
    for p in (p1, q1, p2, q2):
        if not point_on_circle(p, c):
            raise DegenerateInput("arc endpoint not on the circle")
    if p1 == q1 or p2 == q2:
        raise DegenerateInput("coincident points in a pair")
    s1, e1 = lens_arc(c, p1, q1)
    s2, e2 = lens_arc(c, p2, q2)
    return dir_in_ccw_arc(s2, s1, e1) or dir_in_ccw_arc(s1, s2, e2)


def circular_order_consistent(c: Circle, points) -> bool:
    """Check transitivity of the exact cyclic order over a point sample."""
    dirs = [centered(QuadPoint.of(p), c) for p in points]
    for u, v, w in combinations(dirs, 3):
        a, b, d = cyclic_cmp(u, v), cyclic_cmp(v, w), cyclic_cmp(u, w)
        if a < 0 and b < 0 and d >= 0:
            return False
        if a > 0 and b > 0 and d <= 0:
            return False
    return True
