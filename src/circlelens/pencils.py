"""Lens enumeration, and the one vertex record of each lens.

Lenses are merged by base pair.  The fast path works on integers, in the
scene frame (scene_frame, which later stages share): the scene is scaled
once by L, the lcm of the denominators of every cx, cy and r^2, so each
circle is (X, Y, R) = (L*cx, L*cy, L^2*r^2) with its power constant
X^2 + Y^2 - R.  Circle pairs are bucketed by their radical axis, a canonical
integer triple, and each bucket is grouped by an integer chord key (the
chord's midpoint and squared half chord, both times a^2 + b^2).  Base points
are built from that key, only for groups of at least k circles, the
richness a caller asks for (the pair loop skips radical axes with fewer
circles); each distinct rational point, and each coordinate of one, is one
object.  Lenses skip the checks of the public Lens constructor and are
sorted by lens_keys: an exact integer prefix floor(2^K * v) of each
coordinate first, then identity, and the exact value only on a tie.  The
scene keeps the lenses of the smallest k built so far, which every later
stage shares, as they share the one vertex record per lens that
lens_vertices keeps.  It keeps no chord groups: the pair loop runs once per
Scene for callers that ask for one k or a rising k, and again for a later,
smaller k.  The brute-force oracle groups pairwise intersections by exact
equality, sorts with Lens.compare, and exists solely to cross-check the
fast path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, isqrt, lcm

from .errors import DegenerateInput, InvalidRichness, OracleCapExceeded
from .geometry import (Circle, IntDir, cross_sign, cyclic_key,
                       intersection_points)
from .quadfield import (QuadNum, QuadPoint, _point, _quad, cleared_parts, frac,
                        scaled_floor)


@dataclass(frozen=True)
class Scene:
    """An indexed arrangement of distinct circles, with optional marked points."""

    circles: tuple[Circle, ...]
    points: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "circles", tuple(self.circles))
        object.__setattr__(
            self, "points",
            tuple((frac(x), frac(y)) for x, y in self.points))
        if len(set(self.circles)) != len(self.circles):
            raise DegenerateInput("duplicate circles in scene")

    def __len__(self):
        return len(self.circles)


class Lens:
    """A base point pair plus the circles passing through both points.

    Immutable, since every caller of enumerate_lenses on a scene gets the same
    Lens objects."""

    __slots__ = ("base", "circles")

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
        object.__setattr__(self, "base", (p, q))
        object.__setattr__(self, "circles", circles)

    @classmethod
    def _trusted(cls, base: tuple[QuadPoint, QuadPoint], circles: tuple) -> "Lens":
        """A lens from parts already in canonical form: distinct base points
        in increasing order and at least two sorted, distinct circle ids."""
        lens = object.__new__(cls)
        object.__setattr__(lens, "base", base)
        object.__setattr__(lens, "circles", circles)
        return lens

    def __setattr__(self, name, value):
        raise AttributeError("Lens is immutable")

    @property
    def degree(self) -> int:
        return len(self.circles)

    def compare(self, other: "Lens") -> int:
        c = self.base[0].compare(other.base[0])
        if c:
            return c
        c = self.base[1].compare(other.base[1])
        if c:
            return c
        return (self.circles > other.circles) - (self.circles < other.circles)

    def __eq__(self, other):
        if not isinstance(other, Lens):
            return NotImplemented
        return self.base == other.base and self.circles == other.circles

    def __hash__(self):
        return hash((self.base, self.circles))

    def __repr__(self):
        return f"Lens(base=({self.base[0]}, {self.base[1]}), circles={self.circles})"


# bits of the integer prefix floor(2^K * v) that lens_keys compares first
_PREFIX_BITS = 32


def lens_keys(lenses) -> list[tuple]:
    """One sort key per lens, in the order of Lens.compare.

    A base point's key is (floor(2^K*x), x, floor(2^K*y), y), built once per
    distinct point object, so tuple comparison settles most pairs on the
    integer prefixes and on identity, and compares coordinates exactly only
    when their prefixes tie.
    """
    points: dict[int, tuple] = {}

    def point_key(p: QuadPoint) -> tuple:
        key = points.get(id(p))
        if key is None:
            key = points[id(p)] = (scaled_floor(p.x, _PREFIX_BITS), p.x,
                                   scaled_floor(p.y, _PREFIX_BITS), p.y)
        return key

    return [(point_key(lens.base[0]), point_key(lens.base[1]), lens.circles)
            for lens in lenses]


def enumerate_lenses(scene: Scene, k: int = 2) -> list[Lens]:
    """The lenses of degree >= k of the scene, merged by base pair, in
    canonical order; InvalidRichness for k < 2.

    A Scene is immutable, so its lenses are kept on it (private attributes
    outside the dataclass fields): those of the smallest k built so far.
    A larger k filters them; a smaller k builds the scene's lenses anew,
    equal to the ones kept, and drops the kept vertex records.  Every call
    returns a fresh list.
    """
    if k < 2:
        raise InvalidRichness("richness k must be at least 2")
    state = vars(scene)
    if "_lenses" not in state or k < state["_k"]:
        object.__setattr__(scene, "_lenses", _build_lenses(scene, k))
        object.__setattr__(scene, "_k", k)
        state.pop("_records", None)
    return rich_lenses(state["_lenses"], k)


def _scaled_axis(u: tuple, v: tuple) -> tuple[int, int, int] | None:
    """The radical axis of two scaled circles (X, Y, R, power constant) as
    an integer triple with content 1 and first nonzero coefficient positive;
    None for concentric circles."""
    a, b = 2 * (v[0] - u[0]), 2 * (v[1] - u[1])
    if not a and not b:
        return None
    c = u[3] - v[3]
    g = gcd(a, b, c)
    if a < 0 or (not a and b < 0):
        g = -g
    return a // g, b // g, c // g


def scene_frame(scene: Scene) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The scene cleared of denominators: (L, per circle (X, Y, R, X^2 + Y^2 - R)).

    L is the lcm of the denominators of every cx, cy and r^2, and
    (X, Y, R) = (L*cx, L*cy, L^2*r^2).  Built once and kept on the Scene,
    like its lenses.
    """
    frame = vars(scene).get("_frame")
    if frame is None:
        circles = scene.circles
        scale = lcm(*(q.denominator for c in circles for q in (c.cx, c.cy, c.r2)))
        scaled = []
        for c in circles:
            x = c.cx.numerator * (scale // c.cx.denominator)
            y = c.cy.numerator * (scale // c.cy.denominator)
            r = c.r2.numerator * (scale * scale // c.r2.denominator)
            scaled.append((x, y, r, x * x + y * y - r))
        frame = (scale, tuple(scaled))
        object.__setattr__(scene, "_frame", frame)
    return frame


def _forward(vp: IntDir, vq: IntDir) -> bool:
    """Does the lens arc run CCW from p to q?  vp and vq are the directions
    of a lens's base points p < q (lexicographically) from a circle's center."""
    return cross_sign(vp, vq) >= 0


def _vertices(scene: Scene, lens: Lens) -> tuple:
    """The record of lens_vertices, built anew."""
    scale, frame = scene_frame(scene)
    p, q = lens.base
    try:
        d, delta, parts = cleared_parts((p.x, p.y, q.x, q.y), scale)
    except ValueError:
        raise DegenerateInput(
            "lens base points lie in two quadratic fields") from None
    # the centers times D are g*(X, Y), and r^2 times D^2 is g^2*R
    g = d // scale
    # over one radicand, a conjugate q shares p's u, w and on-circle verdict
    conjugate = parts[4:] == [parts[0], -parts[1], parts[2], -parts[3]]
    out = []
    for cid in lens.circles:
        x, y, r, _ = frame[cid]
        pair = []
        for pt, (xa, xb, ya, yb) in ((p, parts[:4]), (q, parts[4:])):
            if not (pair and conjugate):
                u, w = xa - g * x, ya - g * y
                # the power of pt times D^2 is (u^2 + w^2 + (xb^2 + yb^2)*delta
                # - g^2*R) + 2*(u*xb + w*yb)*sqrt(delta), zero iff both are
                if u * xb + w * yb or \
                        u * u + w * w + (xb * xb + yb * yb) * delta != g * g * r:
                    raise DegenerateInput(f"base point {pt} is not on circle {cid}")
            pair.append((u, xb, w, yb, delta))
        out.append((cyclic_key(pair[0]), cyclic_key(pair[1]), _forward(*pair)))
    return tuple(out)


def lens_index(scene: Scene, lens: Lens) -> int | None:
    """The lens's index among the scene's kept lenses, else None.  The index
    {id(lens): i} and a record slot per lens are built on first use and kept
    until the lenses are built anew; the Scene holds its lenses, so no other
    live lens has their ids."""
    records = vars(scene).get("_records")
    if records is None:
        lenses = vars(scene).get("_lenses")
        if lenses is None:
            return None
        records = ({id(own): i for i, own in enumerate(lenses)},
                   [None] * len(lenses))
        object.__setattr__(scene, "_records", records)
    return records[0].get(id(lens))


def lens_vertices(scene: Scene, lens: Lens) -> tuple:
    """Per circle of the lens, in the order of lens.circles, (key of p, key
    of q, forward): the cyclic keys of the directions of its base points
    p < q from the circle's center, and whether the lens arc runs CCW from p
    to q.  A direction, key[2].v, is an IntDir over one radicand, the points
    and the scene frame scaled by one D.  Kept for a lens the scene
    enumerated, built for the call for any other.  Raises DegenerateInput
    for base points in two quadratic fields or off one of the circles."""
    i = lens_index(scene, lens)
    if i is None:
        return _vertices(scene, lens)
    records = vars(scene)["_records"][1]
    records[i] = records[i] or _vertices(scene, lens)
    return records[i]


def _build_lenses(scene: Scene, k: int) -> tuple[Lens, ...]:
    """The lenses of degree >= k, in canonical order."""
    scale, scaled = scene_frame(scene)
    buckets: dict = defaultdict(set)
    for i, j in combinations(range(len(scaled)), 2):
        axis = _scaled_axis(scaled[i], scaled[j])
        if axis is not None:
            buckets[axis].update((i, j))
    values: dict[tuple, QuadNum] = {}  # (n, d) in lowest terms -> n/d
    points: dict[tuple, QuadPoint] = {}  # (X, Y, D) with gcd 1 -> (X/D, Y/D)

    def value(n: int, d: int) -> QuadNum:
        h = gcd(n, d)
        key = (n // h, d // h)
        if key not in values:
            values[key] = _quad(Fraction(*key), 0, 0)
        return values[key]

    def point(x: int, y: int, d: int) -> QuadPoint:
        h = gcd(x, y, d)
        key = (x // h, y // h, d // h)
        if key not in points:
            points[key] = _point(value(x, d), value(y, d))
        return points[key]

    lenses = []
    for (a, b, c), ids in buckets.items():
        if len(ids) < k:
            continue
        # circles on one axis with the same chord (midpoint, half-chord^2),
        # all three times a^2 + b^2
        d2 = a * a + b * b
        groups: dict = defaultdict(list)
        for i in sorted(ids):
            x, y, r, _ = scaled[i]
            n = a * x + b * y + c
            key = (x * d2 - n * a, y * d2 - n * b, r * d2 - n * n)
            if key[2] > 0:
                groups[key].append(i)
        # On the axis in the original coordinates, g*(a, b, c/L) with
        # g = L/gcd(a*L, b*L, c), chord_of gives the midpoint (k0, k1)/m,
        # m = L*d2, and the radicand g^2*k2/L^2 = n/e in lowest terms; the
        # points are the midpoint -+ sqrt(n*e)/s * (b, -a) with s = g*d2*e.
        g = None
        for (k0, k1, k2), members in groups.items():
            if len(members) < k:
                continue
            if g is None:
                g = scale // gcd(a * scale, b * scale, c)
            h = gcd(g * g * k2, scale * scale)
            e = scale * scale // h
            delta, m, s = g * g * k2 // h * e, scale * d2, g * d2 * e
            r = isqrt(delta)
            if r * r == delta:
                # over one denominator L*s; only rational points can be shared
                x, y, t = k0 * g * e, k1 * g * e, scale * r
                base = (point(x - b * t, y + a * t, scale * s),
                        point(x + b * t, y - a * t, scale * s))
            else:
                fx, fy, u, v = (Fraction(k0, m), Fraction(k1, m),
                                Fraction(b, s), Fraction(a, s))
                base = (_point(_quad(fx, -u, delta), _quad(fy, v, delta)),
                        _point(_quad(fx, u, delta), _quad(fy, -v, delta)))
            # the first point steps to the second along (b, -a) with a >= 0:
            # x grows when b > 0; when b == 0, x stays and y falls
            lenses.append(Lens._trusted(base if b > 0 else base[::-1],
                                        tuple(members)))
    keys = lens_keys(lenses)
    return tuple(lenses[i] for i in sorted(range(len(lenses)),
                                           key=keys.__getitem__))


def rich_lenses(lenses, k: int) -> list[Lens]:
    """Subsequence of lenses with degree >= k, order preserved."""
    if k < 2:
        raise InvalidRichness("richness k must be at least 2")
    return [lens for lens in lenses if lens.degree >= k]


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
