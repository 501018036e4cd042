"""Lens enumeration: find every pair of points shared by two or more circles.

Lenses are always merged by base pair, so one enumeration never contains two
lenses with the same endpoints.  The fast path buckets circle pairs by their
(purely rational) radical axis, groups each bucket by the rational chord
(midpoint, half-chord squared), and builds points only for groups of two or
more circles.  The fast path runs once per Scene, whose lenses every later
stage shares.  The brute-force oracle groups pairwise intersection points by
exact equality, is recomputed on every call, and exists solely to cross-check
the fast path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

from .errors import (DegenerateInput, InvalidRichness, NoRadicalAxis,
                     OracleCapExceeded)
from .geometry import (Circle, chord_of, chord_points, intersection_points,
                       radical_axis)
from .quadfield import QuadPoint, frac


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


lens_sort_key = cmp_to_key(lambda a, b: a.compare(b))


def _base_key(p: QuadPoint, q: QuadPoint) -> tuple[QuadPoint, QuadPoint]:
    return (p, q) if p.compare(q) <= 0 else (q, p)


def enumerate_lenses(scene: Scene) -> list[Lens]:
    """All lenses of the scene, merged by base pair, in canonical order.

    A Scene is immutable, so its lenses are built once and kept on it (a
    private attribute outside the dataclass fields); every call returns a
    fresh list of them.
    """
    lenses = vars(scene).get("_lenses")
    if lenses is None:
        lenses = _build_lenses(scene)
        object.__setattr__(scene, "_lenses", lenses)
    return list(lenses)


def _build_lenses(scene: Scene) -> tuple[Lens, ...]:
    buckets: dict = defaultdict(set)
    for i, j in combinations(range(len(scene)), 2):
        try:
            axis = radical_axis(scene.circles[i], scene.circles[j])
        except NoRadicalAxis:
            continue
        buckets[axis].update((i, j))
    lenses = []
    for axis, ids in buckets.items():
        # circles on one axis with the same chord (midpoint, half-chord^2)
        groups: dict = defaultdict(list)
        for i in sorted(ids):
            key = chord_of(scene.circles[i], axis)
            if key[2] > 0:
                groups[key].append(i)
        for key, members in groups.items():
            if len(members) >= 2:
                lenses.append(Lens(chord_points(axis, *key), members))
    return tuple(sorted(lenses, key=lens_sort_key))


def rich_lenses(lenses, k: int) -> list[Lens]:
    """Subsequence of lenses with degree >= k, order preserved."""
    if k < 2:
        raise InvalidRichness("richness k must be at least 2")
    return [lens for lens in lenses if lens.degree >= k]


def brute_force_lenses(scene: Scene, cap: int = 64) -> list[Lens]:
    """Definition-level oracle: group pairwise intersections by exact equality."""
    if len(scene) > cap:
        raise OracleCapExceeded(f"oracle capped at {cap} circles")
    groups: dict = defaultdict(set)
    for i, j in combinations(range(len(scene)), 2):
        pts = intersection_points(scene.circles[i], scene.circles[j])
        if len(pts) == 2:
            groups[_base_key(*pts)].update((i, j))
    return sorted((Lens(key, members) for key, members in groups.items()),
                  key=lens_sort_key)
