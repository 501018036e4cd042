"""Point-circle incidence experiments and the consecutive-point multigraph.

The graph has the marked points as vertices; each circle through at least two
of them contributes one cyclic run of consecutive-point edges, drawn along
its arcs: an edge joins two marked points that follow each other in the
circle's marked points sorted by cyclic key.  The lens pool is every marked
pair (u, v), u < v in sorted point order, with at least k circles through
both; each gets its lens arcs as closed CCW key intervals (families,
pencils._forward), and the greedy scan of select_family runs on them in
(u, v) order, which is lens order.  A kept lens arc is in G1 iff no marked
point lies strictly inside it, the covering rule of lens cutting
(families._covered).

Crossings are counted in this drawing, between edges of distinct circles and
away from graph vertices.  The edges of a drawn circle cover all of it, so
every point where two drawn circles cross lies on an edge of each, and
crossings = sum over pairs of drawn circles that meet twice of
(2 - number of marked points on both).

Incidences are found on integers, each marked point (x, y)/w over its own
denominator and each circle in its own integer form (X, Y, P)/D
(geometry.Circle): the point is on the circle iff its power times D*w^2,
(x^2 + y^2)*D - 2*w*(x*X + y*Y) + P*w^2, is 0.  The same forms give each
vertex's integer direction from a drawn circle's center, ordered by
geometry.cyclic_key, and decide whether two circles meet twice.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .errors import DegenerateInput, InvalidRichness
from .families import _covered, _greedy
from .geometry import Circle, cyclic_key
from .pencils import Scene, _forward
from .quadfield import cleared, frac
from .records import FrozenRecord


def _on_sets(scene: Scene, points) -> tuple[list, list[frozenset[int]]]:
    """(forms, on): each rational point as (x, y, w), the point (x/w, y/w)
    with w the lcm of its denominators, and per circle the indices of the
    points on it (module docstring)."""
    forms = [(x, y, w) for w, (x, y) in (cleared((frac(px), frac(py)))
                                         for px, py in points)]
    ints = [(x, y, 2 * w, w * w, x * x + y * y) for x, y, w in forms]
    return forms, [frozenset(i for i, (x, y, w2, ww, sq) in enumerate(ints)
                             if sq * d + p * ww == w2 * (x * cx + y * cy))
                   for cx, cy, p, d in (c.form for c in scene.circles)]


def count_incidences(points, scene: Scene) -> int:
    """Exact number of (point, circle) containments."""
    return sum(map(len, _on_sets(scene, points)[1]))


class SzekelyStats(FrozenRecord):
    _fields = ("m", "n", "incidences", "edges", "g0", "g1", "max_multiplicity",
               "crossings")


def _meet_twice(c1: Circle, c2: Circle) -> bool:
    """|r1 - r2| < |center distance| < r1 + r2, squared, on the circles'
    integer forms (geometry.Circle) with every length times D1*D2."""
    (x1, y1, p1, d1), (x2, y2, p2, d2) = c1.form, c2.form
    dist = (x1 * d2 - x2 * d1) ** 2 + (y1 * d2 - y2 * d1) ** 2
    s1 = (x1 * x1 + y1 * y1 - p1 * d1) * d2 * d2  # (r1*D1*D2)^2
    s2 = (x2 * x2 + y2 * y2 - p2 * d2) * d1 * d1
    return (dist - s1 - s2) ** 2 < 4 * s1 * s2


def szekely_stats(points, scene: Scene, k: int) -> SzekelyStats:
    """Build the consecutive-point multigraph and its drawing statistics."""
    if k < 2:
        raise InvalidRichness("richness k must be at least 2")
    # sorted, so a pair of marked-point ids in increasing order is a base
    points = sorted((frac(x), frac(y)) for x, y in points)
    repeated = next((p for p, q in zip(points, points[1:]) if p == q), None)
    if repeated is not None:
        raise DegenerateInput(
            f"marked point ({repeated[0]}, {repeated[1]}) is repeated")
    forms, on = _on_sets(scene, points)
    drawn = [cid for cid, ids in enumerate(on) if len(ids) >= 2]
    circles = scene.circles
    dirs = {}  # each marked point's direction from each drawn circle through it
    for cid in drawn:
        cx, cy, _, d = circles[cid].form
        dirs[cid] = {i: (x * d - w * cx, 0, y * d - w * cy, 0, 0)
                     for i in on[cid] for x, y, w in [forms[i]]}

    # every circle through both points of a marked pair is in its lens
    through: dict[tuple[int, int], list[int]] = {}
    for cid in drawn:
        for pair in combinations(sorted(on[cid]), 2):
            through.setdefault(pair, []).append(cid)
    # in lens order: the marked points are sorted and distinct
    pairs = sorted(pair for pair, cids in through.items() if len(cids) >= k)
    keys = {cid: {i: cyclic_key(v) for i, v in dirs[cid].items()} for cid in drawn}
    order = {cid: sorted(at, key=at.get) for cid, at in keys.items()}
    ring = {cid: [keys[cid][i] for i in ids] for cid, ids in order.items()}
    arcs = [{cid: (keys[cid][u], keys[cid][v])
             if _forward(dirs[cid][u], dirs[cid][v])
             else (keys[cid][v], keys[cid][u]) for cid in through[u, v]}
            for u, v in pairs]
    # a kept lens arc is an edge iff no marked point lies strictly inside it
    g1 = sum(0 in _covered(ring[cid], s, e)
             for i in _greedy(arcs, [len(through[pair]) for pair in pairs])
             for cid, (s, e) in arcs[i].items())
    edges = sum(len(on[cid]) for cid in drawn)
    # two points on a circle make two edges, u -> v and v -> u
    multiplicity = Counter(frozenset((ids[j - 1], u))
                           for ids in order.values() for j, u in enumerate(ids))
    max_mult = max(multiplicity.values(), default=0)

    crossings = sum(2 - len(on[i] & on[j]) for i, j in combinations(drawn, 2)
                    if _meet_twice(circles[i], circles[j]))

    return SzekelyStats(m=len(points), n=len(scene), incidences=sum(map(len, on)),
                        edges=edges, g0=edges - g1, g1=g1,
                        max_multiplicity=max_mult, crossings=crossings)
