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

Incidences are found on integers: the marked points and the scene frame
(pencils.scene_frame) are scaled by one common denominator, and a point is
on a circle iff its scaled power is 0.  The same scaled points give each
vertex's integer direction from a drawn circle's center, ordered by
geometry.cyclic_key.  Whether two circles meet twice is decided on
the frame's integer circles.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .errors import DegenerateInput, InvalidRichness
from .families import _covered, _greedy
from .geometry import cyclic_key
from .pencils import Scene, _forward, scene_frame
from .quadfield import cleared, frac
from .records import FrozenRecord


def _scaled(points, scene: Scene) -> tuple[int, list[tuple[int, int]]]:
    """(g, [(Px, Py)]): the rational points scaled by M, the lcm of the scene
    frame's L (pencils.scene_frame) and the points' denominators, and
    g = M/L, so that g*(X, Y) is a circle's center times M."""
    scale = scene_frame(scene)[0]
    m, coords = cleared([frac(v) for p in points for v in p], scale)
    return m // scale, list(zip(coords[::2], coords[1::2]))


def _on_sets(scene: Scene, g: int, coords) -> list[frozenset[int]]:
    """Per circle, the indices of the points on it, for points scaled as
    _scaled gives them: the power of a point times M^2 is the integer
    Px^2 + Py^2 - 2*g*(Px*X + Py*Y) + g^2*(X^2 + Y^2 - R)."""
    ints = [(x, y, x * x + y * y) for x, y in coords]
    on = []
    for cx, cy, _, power in scene_frame(scene)[1]:
        ax, ay, k = 2 * g * cx, 2 * g * cy, g * g * power
        on.append(frozenset(i for i, (x, y, sq) in enumerate(ints)
                            if sq + k == ax * x + ay * y))
    return on


def count_incidences(points, scene: Scene) -> int:
    """Exact number of (point, circle) containments."""
    return sum(map(len, _on_sets(scene, *_scaled(points, scene))))


class SzekelyStats(FrozenRecord):
    _fields = ("m", "n", "incidences", "edges", "g0", "g1", "max_multiplicity",
               "crossings")


def _meet_twice(c1, c2) -> bool:
    """|r1 - r2| < |center distance| < r1 + r2, in squared form, for circles
    (X, Y, R, ...) of one scene frame; the test is homogeneous, so the
    frame's scale drops out."""
    d2 = (c1[0] - c2[0]) ** 2 + (c1[1] - c2[1]) ** 2
    return (d2 - c1[2] - c2[2]) ** 2 < 4 * c1[2] * c2[2]


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
    g, coords = _scaled(points, scene)
    on = _on_sets(scene, g, coords)
    drawn = [cid for cid, ids in enumerate(on) if len(ids) >= 2]
    scaled = scene_frame(scene)[1]
    # each marked point's direction from each drawn circle through it
    dirs = {cid: {i: (coords[i][0] - g * scaled[cid][0], 0,
                      coords[i][1] - g * scaled[cid][1], 0, 0) for i in on[cid]}
            for cid in drawn}

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
                    if _meet_twice(scaled[i], scaled[j]))

    return SzekelyStats(m=len(points), n=len(scene), incidences=sum(map(len, on)),
                        edges=edges, g0=edges - g1, g1=g1,
                        max_multiplicity=max_mult, crossings=crossings)
