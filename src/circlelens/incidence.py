"""Point-circle incidence experiments and the consecutive-point multigraph.

The graph has the marked points as vertices; each circle through at least two
of them contributes one cyclic run of consecutive-point edges, drawn along
its arcs: an edge joins two marked points that follow each other in the
circle's marked points sorted by cyclic key.  The lens pool is the scene's
rational k-rich lenses (pencils.enumerate_lenses) with both base points
marked: the marked pairs on k or more circles, all drawn.  A marked point's
form (x, y, w), w the lcm of two reduced denominators, is in lowest terms
with w > 0, as a record's point keys are (pencils._point_key).  Lens order,
by exact (px, py, qx, qy) with p < q, is the order of the sorted marked
points' pairs (u, v), u < v, so the greedy scan of select_family on the
pool's lens arcs (families._lens_arcs) breaks ties alike.  A kept lens arc
is in G1 iff no marked point lies strictly inside it, the cutting rule
(families._covered); a cyclic key (quadrant, slope prefix, exact ray) does
not depend on a direction's positive scale, so the keys compare there.

Crossings are counted in this drawing, between edges of distinct circles and
away from graph vertices.  The edges of a drawn circle cover all of it, so
every point where two drawn circles cross lies on an edge of each, and
crossings = sum over pairs of drawn circles that meet twice of
(2 - number of marked points on both).

Incidences are found on integers, each marked point (x, y)/w over its own
denominator and each circle in its own integer form (X, Y, P)/D
(geometry.Circle): the point is on the circle iff its power times D*w^2,
(x^2 + y^2)*D - 2*w*(x*X + y*Y) + P*w^2, is 0.  The same forms give the
marked points' integer directions from a drawn circle's center, ordered by
geometry.cyclic_key, and decide whether two circles meet twice.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .errors import DegenerateInput
from .families import _covered, _greedy, _lens_arcs
from .geometry import cyclic_key
from .pencils import Scene, enumerate_lenses
from .quadfield import cleared, frac
from .records import FrozenRecord


def _on_sets(scene: Scene, points) -> tuple[list, list[frozenset[int]]]:
    """(forms, on): each point's form (x, y, w), the point (x/w, y/w), and
    per circle the indices of the points on it (module docstring)."""
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


def szekely_stats(points, scene: Scene, k: int) -> SzekelyStats:
    """Build the consecutive-point multigraph and its drawing statistics.
    Like lens_cutting, it keeps the scene's lenses (enumerate_lenses)."""
    pool = enumerate_lenses(scene, k)  # InvalidRichness if k < 2
    # sorted, so a repeated point is next to its copy
    points = sorted((frac(x), frac(y)) for x, y in points)
    repeated = next((p for p, q in zip(points, points[1:]) if p == q), None)
    if repeated is not None:
        raise DegenerateInput(
            f"marked point ({repeated[0]}, {repeated[1]}) is repeated")
    forms, on = _on_sets(scene, points)
    drawn = [cid for cid, ids in enumerate(on) if len(ids) >= 2]
    circles = scene.circles
    order, ring = {}, {}  # per drawn circle, its marked points and keys
    for cid in drawn:
        cx, cy, _, d = circles[cid].form
        at = {i: cyclic_key((x * d - w * cx, 0, y * d - w * cy, 0, 0))
              for i in on[cid] for x, y, w in [forms[i]]}
        order[cid], ring[cid] = sorted(at, key=at.get), sorted(at.values())
    marked = set(forms)
    pool = [lens for lens in pool
            if not lens.record[1] and marked.issuperset(lens.record[2:])]
    arcs = _lens_arcs(scene, pool)
    # a kept lens arc is an edge iff no marked point lies strictly inside it
    g1 = sum(0 in _covered(ring[cid], s, e)
             for i in _greedy(arcs, [lens.degree for lens in pool])
             for cid, (s, e) in arcs[i].items())
    edges = sum(len(on[cid]) for cid in drawn)
    # two points on a circle make two edges, u -> v and v -> u
    multiplicity = Counter(frozenset((ids[j - 1], u))
                           for ids in order.values() for j, u in enumerate(ids))

    # two drawn circles meet twice iff |r1 - r2| < |center distance| < r1 +
    # r2, squared: with every length times D1*D2, (dist - s1 - s2)^2 <
    # 4*s1*s2 for s1 = R1*D2^2, s2 = R2*D1^2 and R = X^2 + Y^2 - P*D
    discs = [(x, y, d, x * x + y * y - p * d, on[cid])
             for cid in drawn for x, y, p, d in [circles[cid].form]]
    crossings = sum(
        2 - len(o1 & o2)
        for (x1, y1, d1, r1, o1), (x2, y2, d2, r2, o2) in combinations(discs, 2)
        if ((x1 * d2 - x2 * d1) ** 2 + (y1 * d2 - y2 * d1) ** 2
            - r1 * d2 * d2 - r2 * d1 * d1) ** 2 < 4 * r1 * r2 * (d1 * d2) ** 2)

    return SzekelyStats(m=len(points), n=len(scene), incidences=sum(map(len, on)),
                        edges=edges, g0=edges - g1, g1=g1,
                        max_multiplicity=max(multiplicity.values(), default=0),
                        crossings=crossings)
