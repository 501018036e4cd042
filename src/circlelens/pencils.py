"""Lens enumeration, and the one integer record of each lens.

Lenses are found on integers, from each circle's own integer form
(geometry.Circle).  Each circle buckets the later circles by radical axis,
so each pencil is read once, from its smallest circle; one of k or more
circles (the richness asked for) through two points is a lens.

Every lens has one integer record (D, delta, P, Q): a denominator D, from
its pencil's smallest circle and axis, the radicand delta of its base pair
(0 when rational), and the parts
(xa, xb, ya, yb) of p and of q, each point ((xa + xb*sqrt(delta))/D,
(ya + yb*sqrt(delta))/D), or when delta = 0 the points' keys (X, Y, W) in
lowest terms, one object per rational point of an enumeration.  Lenses
are sorted by keys read from it: per coordinate the prefix floor(2^K * v),
then the exact value as a quadfield.Surd, compared only on a prefix tie,
so a lens's index is its place in lens order.  Lens.base and Lens.record
are each built on first read from the other.  The scene's own lenses, of
the smallest k built so far, keep their index and vertex record, and skip
the circle-id and on-circle tests.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, isqrt, lcm

from .errors import DegenerateInput, InvalidRichness, OracleCapExceeded
from .geometry import (Circle, cross_sign, cyclic_key, intersection_points,
                       paired_keys)
from .quadfield import (PREFIX_BITS, QuadPoint, Surd, _point, _quad,
                        cleared_parts, conjugate_floors, frac, parts_text)
from .records import FrozenRecord


class Scene(FrozenRecord):
    """An indexed arrangement of distinct circles, with optional marked
    points.  Each circle keeps its own integer form (geometry.Circle), and
    the scene keeps outside its fields only its lenses (enumerate_lenses)."""

    _fields = ("circles", "points")

    def __init__(self, circles: tuple[Circle, ...],
                 points: tuple[tuple[Fraction, Fraction], ...] = ()):
        circles = tuple(circles)
        self.__dict__.update(
            circles=circles, points=tuple((frac(x), frac(y)) for x, y in points))
        if len(set(circles)) != len(circles):
            raise DegenerateInput("duplicate circles in scene")

    def __len__(self):
        return len(self.circles)


class Lens(FrozenRecord):
    """A base point pair plus the circles passing through both points;
    immutable, as the callers of enumerate_lenses on a scene share them.
    Its base or its integer record, whichever it was not built with, is
    built on first read."""

    _fields = ("base", "circles")
    __slots__ = ("_base", "circles", "_record", "_index", "_vertices")

    def __init__(self, base: tuple[QuadPoint, QuadPoint], circles):
        p, q = (QuadPoint.of(b) for b in base)
        if p == q:
            raise DegenerateInput("lens base points must be distinct")
        if p.compare(q) > 0:
            p, q = q, p
        circles = tuple(sorted(circles))
        if len(circles) < 2:
            raise DegenerateInput("a lens needs at least two circles")
        if len(set(circles)) != len(circles):
            raise DegenerateInput("repeated circle in lens")
        for setter, value in zip(_SETTERS, ((p, q), circles, None, None, None)):
            setter(self, value)

    @classmethod
    def _enumerated(cls, circles: tuple, record: tuple) -> "Lens":
        """A lens of an enumeration, which sets its index: at least two
        sorted, distinct circle ids and the record of base points p < q."""
        lens = object.__new__(cls)
        _set_base(lens, None)
        _set_circles(lens, circles)
        _set_record(lens, record)
        _set_vertices(lens, None)
        return lens

    @property
    def base(self) -> tuple[QuadPoint, QuadPoint]:
        if self._base is None:
            _set_base(self, _base_points(self._record))
        return self._base

    @property
    def record(self) -> tuple:
        """The integer record (D, delta, P, Q) (module docstring)."""
        if self._record is None:
            d, delta, p, q = pair_record(*self._base)
            if not delta:
                p, q = (_point_key(x, y, d) for x, _, y, _ in (p, q))
            _set_record(self, (d, delta, p, q))
        return self._record

    @property
    def degree(self) -> int:
        return len(self.circles)

    def compare(self, other: "Lens") -> int:
        return (self.base[0].compare(other.base[0])
                or self.base[1].compare(other.base[1])
                or (self.circles > other.circles) - (self.circles < other.circles))

    def __repr__(self):
        return f"Lens(base=({self.base[0]}, {self.base[1]}), circles={self.circles})"


# the slots' own setters, which FrozenRecord.__setattr__ does not reach
_SETTERS = tuple(getattr(Lens, name).__set__ for name in Lens.__slots__)
_set_base, _set_circles, _set_record, _set_index, _set_vertices = _SETTERS


def _conjugate_key(p: tuple, delta: int, d: int) -> tuple:
    """The sort keys of the point with integer parts p = (xa, xb, ya, yb)
    over D = d and radicand delta and of its conjugate: per coordinate v,
    (floor(2^K*v), v as a Surd), the floors paired (conjugate_floors)."""
    xa, xb, ya, yb = p
    px, qx = conjugate_floors(xa, xb, delta, d, PREFIX_BITS)
    py, qy = conjugate_floors(ya, yb, delta, d, PREFIX_BITS)
    return (px, Surd((xa, d, xb, delta)), py, Surd((ya, d, yb, delta)),
            qx, Surd((xa, d, -xb, delta)), qy, Surd((ya, d, -yb, delta)))


def enumerate_lenses(scene: Scene, k: int = 2) -> list[Lens]:
    """The lenses of degree >= k of the scene, merged by base pair, in
    canonical order, as a fresh list; InvalidRichness for k < 2.  The scene
    keeps (outside its fields) those of the smallest k built so far, which
    a larger k filters; a smaller k builds its lenses anew, equal to the
    ones kept, which are no longer its own."""
    if k < 2:
        raise InvalidRichness("richness k must be at least 2")
    kept = vars(scene).get("_kept")
    if kept is None or k < kept[0]:
        kept = (k, _build_lenses(scene, k))
        object.__setattr__(scene, "_kept", kept)
    return list(kept[1]) if k == kept[0] else rich_lenses(kept[1], k)


def _axis(u: tuple, v: tuple) -> tuple[int, int, int] | None:
    """The radical axis of two circles given by their integer forms
    (X, Y, P, D) (geometry.Circle), as geometry.radical_axis gives it: an
    integer triple with content 1 and first nonzero coefficient positive;
    None for concentric circles."""
    (x, y, p, d), (ox, oy, op, od) = u, v
    a, b = 2 * (ox * d - x * od), 2 * (oy * d - y * od)
    if not a and not b:
        return None
    c = p * od - op * d
    g = gcd(a, b, c)
    if a < 0 or (not a and b < 0):
        g = -g
    return a // g, b // g, c // g


def _own(scene: Scene, lens: Lens) -> bool:
    """Is the lens one the scene keeps (enumerate_lenses): the one at its
    index among them?"""
    i, kept = lens._index, vars(scene).get("_kept", (None, ()))[1]
    return i is not None and i < len(kept) and kept[i] is lens


def pair_record(p: QuadPoint, q: QuadPoint) -> tuple:
    """(D, delta, p parts, q parts): a base pair written over one radicand,
    with D the lcm of its denominators (cleared_parts).  DegenerateInput for
    two quadratic fields."""
    try:
        d, delta, parts = cleared_parts((p.x, p.y, q.x, q.y))
    except ValueError:
        raise DegenerateInput(
            "lens base points lie in two quadratic fields") from None
    return d, delta, tuple(parts[:4]), tuple(parts[4:])


def lens_record(lens: Lens) -> tuple:
    """(D, delta, p parts, q parts) of the lens's record (module docstring);
    DegenerateInput for a base pair in two quadratic fields."""
    d, delta, p, q = lens.record
    if not delta:  # from the keys (X, Y, W), W dividing D
        p, q = ((x * (d // w), 0, y * (d // w), 0) for x, y, w in (p, q))
    return d, delta, p, q


def base_text(lens: Lens) -> list[str]:
    """The printed coordinates px, py, qx, qy of the lens's base points,
    from its record, without building them."""
    d, delta, p, q = lens_record(lens)
    return parts_text((p[:2], p[2:], q[:2], q[2:]), delta, d)


def lens_text(lens: Lens) -> str:
    """A lens as its circles and its base points' coordinates px,py,qx,qy."""
    return (f"lens on circles {' '.join(map(str, lens.circles))} "
            f"at {','.join(base_text(lens))}")


def lens_dirs(scene: Scene, lens: Lens) -> tuple:
    """Per circle of the lens, in the order of lens.circles, (vp, vq): the
    directions (IntDir) of its base points p < q from the circle's center,
    over one radicand, scaled by lcm(D, D_c) for the record's D and the
    circle's own D_c.  A lens not the scene's own has its circle ids and
    its points tested on each circle (DegenerateInput for an id outside
    0..n-1, two quadratic fields or a point off a circle)."""
    circles, own = scene.circles, _own(scene, lens)
    bad = () if own else [cid for cid in lens.circles
                          if not 0 <= cid < len(circles)]
    if bad:
        raise DegenerateInput(f"lens on circle {bad[0]}, but the scene has "
                              f"circles 0..{len(circles) - 1}")
    d, delta, (pxa, pxb, pya, pyb), (qxa, qxb, qya, qyb) = lens_record(lens)
    dirs = []
    for cid in lens.circles:
        x, y, power, w = circles[cid].form
        m = lcm(d, w)
        t, g = m // d, m // w  # the center times m is g*(X, Y)
        pair = ((pxa * t - g * x, pxb * t, pya * t - g * y, pyb * t, delta),
                (qxa * t - g * x, qxb * t, qya * t - g * y, qyb * t, delta))
        for pt, (u, xb, v, yb, _) in () if own else zip(lens.base, pair):
            # with R = X^2 + Y^2 - P*D_c, pt's power times m^2 is (u^2 + v^2
            # + (xb^2 + yb^2)*delta - g^2*R) + 2*(u*xb + v*yb)*sqrt(delta),
            # zero iff both parts are
            if u * xb + v * yb or u * u + v * v + (xb * xb + yb * yb) * delta \
                    != g * g * (x * x + y * y - power * w):
                raise DegenerateInput(f"base point {pt} is not on circle {cid}")
        dirs.append(pair)
    return tuple(dirs)


def _vertices(scene: Scene, lens: Lens) -> tuple:
    """The record of lens_vertices, built anew; irrational base points on
    two circles are conjugates, and so are vp and vq.  The lens arc runs CCW
    from p to q iff cross_sign(vp, vq) >= 0."""
    return tuple((*(paired_keys(vp, True) if vp[4] else map(cyclic_key, (vp, vq))),
                  cross_sign(vp, vq) >= 0) for vp, vq in lens_dirs(scene, lens))


def lens_vertices(scene: Scene, lens: Lens) -> tuple:
    """Per circle of the lens, in the order of lens.circles, (key of p, key
    of q, forward): the cyclic keys of the base points' directions
    (lens_dirs; a direction is key[2].v), and whether the lens arc runs CCW
    from p to q.  Kept on a lens of the scene's own, and built for the call,
    with the checks of lens_dirs, for any other."""
    if not _own(scene, lens):
        return _vertices(scene, lens)
    if lens._vertices is None:
        _set_vertices(lens, _vertices(scene, lens))
    return lens._vertices


def _point_key(x: int, y: int, d: int) -> tuple[int, int, int]:
    """The key (X, Y, W) in lowest terms of the rational point (x/d, y/d)."""
    h = gcd(x, y, d)
    return x // h, y // h, d // h


def _base_points(record: tuple) -> tuple[QuadPoint, QuadPoint]:
    """The base pair of an enumerated lens, from its integer record."""
    d, delta, p, q = record
    if not delta:
        return tuple(_point(*(_quad(Fraction(v, w), 0, 0) for v in (x, y)))
                     for x, y, w in (p, q))
    # conjugates: q's parts are p's with the sqrt(delta) parts negated
    fx, u, fy, v = (Fraction(t, d) for t in p)
    return (_point(_quad(fx, u, delta), _quad(fy, v, delta)),
            _point(_quad(fx, -u, delta), _quad(fy, -v, delta)))


def _build_lenses(scene: Scene, k: int) -> tuple[Lens, ...]:
    """The lenses of degree >= k, in canonical order."""
    forms = [c.form for c in scene.circles]
    shared: dict[tuple, tuple] = {}  # see rational
    coords: dict[tuple, tuple] = {}  # (n, d) in lowest terms -> its key part

    def rational(x: int, y: int, d: int) -> tuple:
        """(key, sort key) of the rational point (x/d, y/d): its key, one
        object per point, and a sort key that shares each coordinate's part
        with every equal one."""
        key = _point_key(x, y, d)
        if key not in shared:
            shared[key] = (key, coord(key[0], key[2]) + coord(key[1], key[2]))
        return shared[key]

    def coord(n: int, d: int) -> tuple:
        h = gcd(n, d)
        n, d = n // h, d // h
        if (n, d) not in coords:
            coords[n, d] = ((n << PREFIX_BITS) // d, Surd((n, d, 0, 0)))
        return coords[n, d]

    rows = []  # (*sort key, circles, lens)
    marked = defaultdict(list)  # j -> axes read before j
    for i in range(len(forms) - k + 1):  # k - 1 circles follow i
        cx, cy, cp, cd = circle = forms[i]
        cr = cx * cx + cy * cy - cp * cd  # r^2 times D^2
        pencils = defaultdict(list)  # axis -> circles j > i
        for j in range(i + 1, len(forms)):
            pencils[_axis(circle, forms[j])].append(j)
        for axis in (None, *marked.pop(i, ())):  # concentric, or read before
            pencils.pop(axis, None)
        for axis, later in pencils.items():
            if len(later) < k - 1:
                continue
            # its last circle buckets none after it
            for j in later[:-1]:
                marked[j].append(axis)
            # its chord's midpoint times D*d2 and half chord^2 times D^2*d2
            a, b, c = axis
            d2 = a * a + b * b
            n = a * cx + b * cy + c * cd
            k0, k1, k2 = cx * d2 - n * a, cy * d2 - n * b, cr * d2 - n * n
            if k2 <= 0:
                continue
            # the base points are the midpoint -+ t*(u, -v): the step (b, -a)
            # with a >= 0 turned, if needed, so that p < q, since x grows along
            # it when b > 0 and, when b == 0, x stays and y falls
            u, v = (b, a) if b > 0 else (-b, -a)
            # chord_of's x is k2/D^2, (k2/h)/e in lowest terms: the points are
            # the midpoint -+ sqrt(delta)/(d2*e) * (b, -a), all over D*d2*e
            h = gcd(k2, cd * cd)
            e = cd * cd // h
            delta, d = k2 // h * e, cd * d2 * e
            x, y, r = k0 * e, k1 * e, isqrt(delta)
            if r * r == delta:
                # only rational points can be shared between lenses
                t = cd * r
                p, pkey = rational(x - u * t, y + v * t, d)
                q, qkey = rational(x + u * t, y - v * t, d)
                lens_key, delta = pkey + qkey, 0
            else:
                p, q = (x, -u * cd, y, v * cd), (x, u * cd, y, -v * cd)
                lens_key = _conjugate_key(p, delta, d)
            members = (i, *later)
            rows.append((*lens_key, members,
                         Lens._enumerated(members, (d, delta, p, q))))
    rows.sort()  # a sort key and its circles name one lens
    lenses = tuple(row[-1] for row in rows)
    any(map(_set_index, lenses, range(len(lenses))))  # each gives None
    return lenses


def rich_lenses(lenses, k: int) -> list[Lens]:
    """Subsequence of lenses with degree >= k, order preserved."""
    if k < 2:
        raise InvalidRichness("richness k must be at least 2")
    return [lens for lens in lenses if len(lens.circles) >= k]


# the most circles the brute-force oracle takes
ORACLE_CAP = 64


def brute_force_lenses(scene: Scene) -> list[Lens]:
    """Definition-level oracle: group pairwise intersections by exact equality."""
    if len(scene) > ORACLE_CAP:
        raise OracleCapExceeded(f"oracle capped at {ORACLE_CAP} circles")
    groups: dict = defaultdict(set)
    for i, j in combinations(range(len(scene)), 2):
        pts = intersection_points(scene.circles[i], scene.circles[j])
        if len(pts) == 2:
            groups[frozenset(pts)].update((i, j))
    return sorted((Lens(tuple(key), members) for key, members in groups.items()),
                  key=cmp_to_key(Lens.compare))
