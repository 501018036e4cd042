"""Direction predicates over QuadNum directions, kept as the tests' oracle.

The library orders directions on integers (geometry.cyclic_key, on the
integer directions of the arc model).  These predicates decide the same
questions from QuadNum directions, and they define the lens-arc rule and
lens overlap directly: a lens uses the shorter arc between its base points
on each of its circles (for a diameter, the CCW half from the
lexicographically smaller point), and two lenses overlap iff their arcs on
a shared circle meet.

Every sign here is the sign of a sum of terms c*sqrt(d), decided apart from
the library's kernel: the terms are merged per square class, and every root
is bracketed with isqrt (exact_sign).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import isqrt

from circlelens.errors import DegenerateInput
from circlelens.geometry import Circle, point_on_circle
from circlelens.quadfield import QuadNum, QuadPoint, _quad

Dir = tuple[QuadNum, QuadNum]

SCALE = 10 ** 40


def _merged(terms) -> list[tuple[Fraction, Fraction]]:
    """The nonzero terms (c, d) of sum(c*sqrt(d)), merged so that no two
    radicands lie in one square class (d1*d2 a rational square)."""
    groups: list[list] = []
    for c, d in terms:
        c, d = Fraction(c), Fraction(d)
        if not c or not d:
            continue
        for g in groups:
            if d == g[1]:
                g[0] += c
                break
            prod = d * g[1]
            n, m = isqrt(prod.numerator), isqrt(prod.denominator)
            if n * n == prod.numerator and m * m == prod.denominator:
                g[0] += c * Fraction(n, m) / g[1]  # sqrt(d) = sqrt(d*g)/g * sqrt(g)
                break
        else:
            groups.append([c, d])
    return [(c, d) for c, d in groups if c]


def _bracket(c: Fraction, d: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    """c*sqrt(d)*scale as an interval (lo, hi)."""
    n = d.numerator * d.denominator * scale * scale
    r = isqrt(n)
    lo, hi = Fraction(r, d.denominator), Fraction(r + (r * r != n), d.denominator)
    return (c * lo, c * hi) if c > 0 else (c * hi, c * lo)


def oracle_sign(terms, scale: int = SCALE) -> int | None:
    """Sign of sum(c*sqrt(d)), or None when the brackets at this scale
    cannot settle it."""
    merged = _merged(terms)
    if len(merged) < 2:  # 0, or the sign of one c, as sqrt(d) > 0
        return (merged[0][0] > 0) - (merged[0][0] < 0) if merged else 0
    brackets = [_bracket(c, d, scale) for c, d in merged]
    if sum(b[0] for b in brackets) > 0:
        return 1
    if sum(b[1] for b in brackets) < 0:
        return -1
    return None


def exact_sign(terms) -> int:
    """Sign of sum(c*sqrt(d)) for rationals c and d >= 0.  Roots of distinct
    square classes are linearly independent over Q, so the merged sum is 0
    iff no term is left, and else brackets at a growing scale settle it."""
    scale = SCALE
    while (sign := oracle_sign(terms, scale)) is None:
        scale *= scale
    return sign


def _terms(x: QuadNum, y: QuadNum = QuadNum.of(1), sign: int = 1) -> list:
    """The nonzero terms of sign*x*y."""
    return [(sign * u * v, d) for u, v, d in (
        (x.a, y.a, 1), (x.b, y.a, x.delta), (x.a, y.b, y.delta),
        (x.b, y.b, x.delta * y.delta)) if u and v]


def centered(p: QuadPoint, c: Circle) -> Dir:
    """The direction p - center, over p's radicand."""
    x, y = p.x, p.y
    return (_quad(x.a - c.cx, x.b, x.delta), _quad(y.a - c.cy, y.b, y.delta))


def _compare(p: QuadPoint, q: QuadPoint) -> int:
    """Lexicographic comparison of two points."""
    return (exact_sign(_terms(p.x) + _terms(q.x, sign=-1))
            or exact_sign(_terms(p.y) + _terms(q.y, sign=-1)))


def cross_sign(u: Dir, v: Dir) -> int:
    """Sign of u.x*v.y - u.y*v.x; exact across different radicands."""
    return exact_sign(_terms(u[0], v[1]) + _terms(u[1], v[0], -1))


def dot_sign(u: Dir, v: Dir) -> int:
    return exact_sign(_terms(u[0], v[0]) + _terms(u[1], v[1]))


def quadrant(d: Dir) -> int:
    """Index of the direction in counterclockwise order from the +x axis."""
    sx, sy = (exact_sign(_terms(v)) for v in d)
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
    sx = exact_sign(_terms(x))
    if sx != 0:
        inv = x.inverse() if sx > 0 else -(x.inverse())
        return (QuadNum.of(1 if sx > 0 else -1), y * inv)
    sy = exact_sign(_terms(y))
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
    if _compare(p, q) > 0:
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
