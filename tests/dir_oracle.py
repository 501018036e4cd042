"""Direction predicates over QuadNum directions, kept as the tests' oracle.

The library orders directions on integers (geometry.cyclic_key, on the
integer directions of the arc model).  These predicates decide the same
questions from QuadNum directions, rescaling both operands to integers on
every comparison, and they define the lens-arc rule and lens overlap
directly: a lens uses the shorter arc between its base points on each of its
circles (for a diameter, the CCW half from the lexicographically smaller
point), and two lenses overlap iff their arcs on a shared circle meet.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations

from circlelens.errors import DegenerateInput
from circlelens.geometry import Circle, point_on_circle
from circlelens.quadfield import (QuadNum, QuadPoint, _quad, cleared_parts,
                                  sign_q, two_field_sign)

Dir = tuple[QuadNum, QuadNum]


def centered(p: QuadPoint, c: Circle) -> Dir:
    """The direction p - center, over p's radicand."""
    x, y = p.x, p.y
    return (_quad(x.a - c.cx, x.b, x.delta), _quad(y.a - c.cy, y.b, y.delta))


def _coords(d: Dir) -> tuple:
    """(xa, xb, ya, yb, m): the direction (xa + xb*sqrt(m), ya + yb*sqrt(m))
    scaled by a positive integer so that xa, xb, ya, yb are integers."""
    _, m, ints = cleared_parts(d)
    return (*ints, m)


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


cyclic_key = cmp_to_key(cyclic_cmp)


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


def lens_arc(c: Circle, p, q) -> tuple[Dir, Dir]:
    """The closed CCW arc (start, end) that a lens with base {p, q} uses on c.

    This is the shorter arc between p and q; for a diameter it is the CCW
    half from the lexicographically smaller base point.
    """
    p, q = QuadPoint.of(p), QuadPoint.of(q)
    if p.compare(q) > 0:
        p, q = q, p
    dp, dq = centered(p, c), centered(q, c)
    return (dp, dq) if cross_sign(dp, dq) >= 0 else (dq, dp)


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


def lenses_overlap(l1, l2, scene) -> bool:
    """True iff the lens arcs of the two lenses meet on a shared circle."""
    shared = set(l1.circles) & set(l2.circles)
    if l1.base == l2.base and shared:
        return True
    return any(arcs_overlap(scene.circles[cid], l1.base, l2.base)
               for cid in shared)


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
