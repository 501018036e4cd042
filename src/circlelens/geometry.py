"""Exact predicates and constructions on circles, points, and circular arcs.

Circles carry rational centers and rational *squared* radii, so pencils such
as r = sqrt(2) stay expressible with rational input data.  Intersection points
live in a quadratic field with one radicand shared per circle/line pair.
Angular order is on integers: a direction is an IntDir (xa, xb, ya, yb, d),
the vector (xa + xb*sqrt(d), ya + yb*sqrt(d)), and cyclic_key orders
directions by quadrant and an integer slope prefix, with an exact cross sign
only on ties; tests/dir_oracle.py checks it on QuadNums.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import DegenerateInput, NoRadicalAxis
from .quadfield import (PREFIX_BITS, QuadNum, QuadPoint, _quad, cleared,
                        cleared_parts, conjugate_floors, frac, sign_q,
                        two_field_sign)
from .records import FrozenRecord


class Circle(FrozenRecord):
    """Circle with center (cx, cy) and squared radius r2 > 0."""

    _fields = ("cx", "cy", "r2")

    def __init__(self, cx: Fraction, cy: Fraction, r2: Fraction):
        self.__dict__.update(cx=frac(cx), cy=frac(cy), r2=frac(r2))
        if self.r2 <= 0:
            raise DegenerateInput("squared radius must be positive")


class Line(FrozenRecord):
    """Rational line a*x + b*y + c = 0, canonicalized to integer coefficients
    with content 1 and first nonzero coefficient positive."""

    _fields = ("a", "b", "c")

    @classmethod
    def of(cls, a, b, c) -> "Line":
        _, (a, b, c) = cleared((frac(a), frac(b), frac(c)))
        if not a and not b:
            raise DegenerateInput("line needs a nonzero normal")
        g = gcd(a, b, c) if (a or b) > 0 else -gcd(a, b, c)
        return cls(a // g, b // g, c // g)


def power_of_point(w, c: Circle) -> Fraction:
    """Power |w - center|^2 - r^2 of a rational point w."""
    wx, wy = frac(w[0]), frac(w[1])
    return (wx - c.cx) ** 2 + (wy - c.cy) ** 2 - c.r2


def radical_axis(c1: Circle, c2: Circle) -> Line:
    """Locus of equal power with respect to two non-concentric circles."""
    a = 2 * (c2.cx - c1.cx)
    b = 2 * (c2.cy - c1.cy)
    if not a and not b:
        raise NoRadicalAxis("concentric circles have no radical axis")
    c = (c1.cx ** 2 + c1.cy ** 2 - c1.r2) - (c2.cx ** 2 + c2.cy ** 2 - c2.r2)
    return Line.of(a, b, c)


def chord_of(c: Circle, line: Line) -> tuple[Fraction, Fraction, Fraction]:
    """(fx, fy, x): the midpoint of the chord a rational line cuts from a
    circle, and x = h2 * (a^2 + b^2) for the squared half chord h2.  The
    line misses the circle iff x < 0 and touches it iff x == 0; else it
    meets it at (fx, fy) +- sqrt(x)/(a^2 + b^2) * (-b, a)."""
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
    """Exact containment test in the quadratic field of p: with
    p = (xa + xb*sqrt(d), ya + yb*sqrt(d)), u = xa - cx and w = ya - cy, the
    power of p is u^2 + w^2 - r^2 + (xb^2 + yb^2)*d plus
    2*(u*xb + w*yb)*sqrt(d), zero iff both parts are (d is no square)."""
    p = QuadPoint.of(p)
    x, y, d = p.x, p.y, p.delta
    u, w = x.a - c.cx, y.a - c.cy
    return (u * x.b + w * y.b == 0
            and u * u + w * w - c.r2 + (x.b * x.b + y.b * y.b) * d == 0)


# -- exact angular order, on integers -----------------------------------------

Dir = tuple[QuadNum, QuadNum]
# integer parts (module docstring), d a non-square or 0; a positive
# multiple is the same direction
IntDir = tuple[int, int, int, int, int]

def int_dir(d: Dir) -> IntDir:
    """The direction d = (x, y) over one radicand, scaled by a positive
    integer so that every part is an integer."""
    _, delta, ints = cleared_parts(d)
    return (*ints, delta)


# quadrant() by the signs of x and y, as indices (-1 is the last)
_QUADRANT = ((None, 2, 6), (0, 1, 7), (4, 3, 5))


def quadrant(v: IntDir) -> int:
    """Index of the direction in counterclockwise order from the +x axis:
    even on an axis, odd inside a quadrant."""
    q = _QUADRANT[sign_q(v[0], v[1], v[4])][sign_q(v[2], v[3], v[4])]
    if q is None:
        raise DegenerateInput("zero direction")
    return q


def cross_sign(u: IntDir, v: IntDir) -> int:
    """Sign of u.x*v.y - u.y*v.x.  With u over sqrt(al) and v over sqrt(be)
    the value is r0 + r1*sqrt(al) + (r2 + r3*sqrt(al))*sqrt(be), whose sign
    is two_field_sign's."""
    uxa, uxb, uya, uyb, al = u
    vxa, vxb, vya, vyb, be = v
    r0 = uxa * vya - uya * vxa
    r1 = uxb * vya - uyb * vxa
    r2 = uxa * vyb - uya * vxb
    r3 = uxb * vyb - uyb * vxb
    return two_field_sign(r0, r1, r2, r3, al, be)


def _slope(v: IntDir) -> tuple[int, int, int]:
    """(P, Q, N) with N > 0 and y/x = (P + Q*sqrt(d))/N; x must be nonzero."""
    xa, xb, ya, yb, d = v
    n = xa * xa - xb * xb * d
    p, q = ya * xa - yb * xb * d, yb * xa - ya * xb
    return (p, q, n) if n > 0 else (-p, -q, -n)


class _Ray:
    """The last part of a cyclic key: a direction compared by exact cross
    sign, reached only by keys tied on quadrant and slope prefix."""

    __slots__ = ("v",)

    def __init__(self, v: IntDir):
        self.v = v

    def __eq__(self, other):
        return cross_sign(self.v, other.v) == 0

    def __lt__(self, other):
        return cross_sign(self.v, other.v) > 0

    __hash__ = None


def _prefixes(v: IntDir, q: int) -> tuple[int, int]:
    """floor(2^K * y/x) of v, in quadrant q, and of its conjugate; 0, 0 on
    an axis."""
    if not q & 1:
        return 0, 0
    p, s, n = _slope(v)
    return conjugate_floors(p, s, v[4], n, PREFIX_BITS)


def cyclic_key(v: IntDir) -> tuple:
    """Sort key for the counterclockwise order from angle 0, equal for equal
    rays: (quadrant, floor(2^K * y/x), ray).  Inside each open quadrant the
    slope y/x grows with the angle; its prefix comes from one isqrt, and the
    exact cross sign is taken only when two prefixes tie (Fortune and Van
    Wyk 1996, Shewchuk 1997).  An axis quadrant holds one ray."""
    q = quadrant(v)
    return (q, _prefixes(v, q)[0], _Ray(v))


def paired_keys(v: IntDir, conjugate: bool) -> tuple[tuple, tuple]:
    """The cyclic keys of v and of its conjugate (xa, -xb, ya, -yb, d), or
    else of -v, from one isqrt: the conjugate is on an axis iff v is, with
    slope (P - Q*sqrt(d))/N (_slope); -v has v's slope four quadrants on."""
    xa, xb, ya, yb, d = v
    q = quadrant(v)
    prefix, other = _prefixes(v, q)
    if conjugate:
        w = (xa, -xb, ya, -yb, d)
        return (q, prefix, _Ray(v)), (quadrant(w), other, _Ray(w))
    return (q, prefix, _Ray(v)), ((q + 4) % 8, prefix, _Ray((-xa, -xb, -ya, -yb, d)))


def canonical_dir(v: IntDir) -> Dir:
    """The ray of v as QuadNums, (+-1, y/|x|) or (0, +-1), so equal rays are
    structurally equal (hashable)."""
    sx = sign_q(v[0], v[1], v[4])
    if not sx:
        return (QuadNum.of(0), QuadNum.of(sign_q(v[2], v[3], v[4])))
    p, q, n = _slope(v)
    return (QuadNum.of(sx), _quad(Fraction(sx * p, n), Fraction(sx * q, n), v[4]))
