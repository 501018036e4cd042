"""Point-circle incidence experiments and the consecutive-point multigraph.

The graph has the marked points as vertices; each circle through at least two
of them contributes one cyclic run of consecutive-point edges, drawn along
its arcs.  An edge is the triple (circle, u, v): its arc runs
counterclockwise from marked point u to marked point v.  Edges that realize
the lens arc (geometry.lens_arc) of a member of a greedy non-overlapping
family of k-rich lenses are split off as G1, by comparing those triples; the
lens pool is every marked pair with at least k circles through both points.

Crossings are counted in this drawing, between edges of distinct circles and
away from graph vertices.  The edges of a drawn circle cover all of it, so
every point where two drawn circles cross lies on an edge of each, and
crossings = sum over pairs of drawn circles that meet twice of
(2 - number of marked points on both).

Incidences are found on integers: the marked points and the scene frame
(pencils.scene_frame) are scaled by one common denominator, and a point is
on a circle iff its scaled power is 0.  Whether two circles meet twice is
decided on the frame's integer circles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import lcm

from .errors import DegenerateInput, InvalidRichness
from .families import select_family
from .geometry import centered, cyclic_key, lens_arc_forward
from .pencils import Lens, Scene, scene_frame
from .quadfield import QuadNum, frac


def _on_sets(points, scene: Scene) -> list[frozenset[int]]:
    """Per circle, the indices of the rational points on it.

    The points and the scene frame (pencils.scene_frame) are scaled by M,
    the lcm of L and the points' denominators, so with g = M/L the power of
    a point times M^2 is the integer
    Px^2 + Py^2 - 2*g*(Px*X + Py*Y) + g^2*(X^2 + Y^2 - R).
    """
    points = [(frac(x), frac(y)) for x, y in points]
    scale, scaled = scene_frame(scene)
    m = lcm(scale, *(v.denominator for p in points for v in p))
    g = m // scale
    ints = []
    for x, y in points:
        x, y = x.numerator * (m // x.denominator), y.numerator * (m // y.denominator)
        ints.append((x, y, x * x + y * y))
    on = []
    for cx, cy, _, power in scaled:
        ax, ay, k = 2 * g * cx, 2 * g * cy, g * g * power
        on.append(frozenset(i for i, (x, y, sq) in enumerate(ints)
                            if sq + k == ax * x + ay * y))
    return on


def count_incidences(points, scene: Scene) -> int:
    """Exact number of (point, circle) containments."""
    return sum(map(len, _on_sets(points, scene)))


@dataclass(frozen=True)
class GraphEdge:
    """The arc of circle circle_id running CCW from marked point u to v."""

    circle_id: int
    u: int
    v: int


@dataclass(frozen=True)
class SzekelyStats:
    m: int
    n: int
    incidences: int
    edges: int
    g0: int
    g1: int
    max_multiplicity: int
    crossings: int


def _circle_edges(scene: Scene, points, on) -> list[GraphEdge]:
    edges = []
    for cid, c in enumerate(scene.circles):
        if len(on[cid]) < 2:
            continue
        dirs = {i: (QuadNum.of(points[i][0] - c.cx), QuadNum.of(points[i][1] - c.cy))
                for i in on[cid]}
        ids = sorted(dirs, key=lambda i: cyclic_key(dirs[i]))
        # two points on a circle make two edges, u -> v and v -> u
        edges += [GraphEdge(cid, u, ids[(i + 1) % len(ids)])
                  for i, u in enumerate(ids)]
    return edges


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
    points = [(frac(x), frac(y)) for x, y in points]
    repeated = next((p for p, n in Counter(points).items() if n > 1), None)
    if repeated is not None:
        raise DegenerateInput(
            f"marked point ({repeated[0]}, {repeated[1]}) is repeated")
    on = _on_sets(points, scene)
    edges = _circle_edges(scene, points, on)

    # every circle through both points of a marked pair is in its lens
    through: dict[tuple[int, int], list[int]] = {}
    for cid, ids in enumerate(on):
        for u, v in combinations(sorted(ids), 2):
            through.setdefault((u, v), []).append(cid)
    pool = {Lens((points[u], points[v]), cids): (u, v)
            for (u, v), cids in through.items() if len(cids) >= k}
    family = select_family(pool, scene, mode="greedy")
    lens_edges = set()
    for lens in family.members:
        u, v = sorted(pool[lens], key=points.__getitem__)  # as in lens.base
        for cid in lens.circles:
            c = scene.circles[cid]
            forward = lens_arc_forward(centered(lens.base[0], c),
                                       centered(lens.base[1], c))
            lens_edges.add((cid, u, v) if forward else (cid, v, u))
    g1 = sum(1 for e in edges if (e.circle_id, e.u, e.v) in lens_edges)

    multiplicity = Counter(frozenset((e.u, e.v)) for e in edges)
    max_mult = max(multiplicity.values(), default=0)

    drawn = [cid for cid, ids in enumerate(on) if len(ids) >= 2]
    scaled = scene_frame(scene)[1]
    crossings = sum(2 - len(on[i] & on[j]) for i, j in combinations(drawn, 2)
                    if _meet_twice(scaled[i], scaled[j]))

    return SzekelyStats(m=len(points), n=len(scene), incidences=sum(map(len, on)),
                        edges=len(edges), g0=len(edges) - g1, g1=g1,
                        max_multiplicity=max_mult, crossings=crossings)


def lens_circle_incidences(family, scene: Scene) -> int:
    """Participation incidences between a family and the scene's circles."""
    return sum(lens.degree for lens in family.members)
