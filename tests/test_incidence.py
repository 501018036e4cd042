from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelens.errors import DegenerateInput, InvalidRichness
from circlelens.families import select_family
from circlelens.generators import (GeneratorSpec, pencil_bundle_construction,
                                   random_scene)
from circlelens.geometry import Circle, power_of_point
from circlelens.incidence import SzekelyStats, count_incidences, szekely_stats
from circlelens.pencils import Scene, enumerate_lenses, rich_lenses
from circlelens.sceneio import parse_scene

DATA = Path(__file__).parent / "data"


def _two_circle_instance():
    circles = (Circle(F(0), F(0), F(25)), Circle(F(8), F(0), F(25)))
    points = ((F(4), F(3)), (F(4), F(-3)))
    return Scene(circles=circles, points=points)


def test_count_incidences():
    scene = _two_circle_instance()
    assert count_incidences(scene.points, scene) == 4
    assert count_incidences(((F(100), F(100)),), scene) == 0


def test_two_circle_two_point_instance():
    scene = _two_circle_instance()
    stats = szekely_stats(scene.points, scene, 2)
    assert stats.m == 2 and stats.n == 2
    assert stats.incidences == 4
    # each circle sees both points and contributes both of its arcs
    assert stats.edges == 4
    assert stats.max_multiplicity == 4
    assert stats.crossings == 0
    # the lens {p, q} is 2-rich, so its two shorter arcs land in G1
    assert stats.g1 == 2
    assert stats.g0 == 2


def test_exact_counts_with_a_shared_marked_point():
    # both circles pass through (5, 0); the first also through (3, 4) and
    # (0, 5), the second through (12, 7)
    circles = (Circle(F(0), F(0), F(25)), Circle(F(9), F(3), F(25)))
    points = ((F(5), F(0)), (F(3), F(4)), (F(0), F(5)), (F(12), F(7)))
    stats = szekely_stats(points, Scene(circles=circles), 2)
    assert (stats.incidences, stats.edges, stats.g0, stats.g1) == (5, 5, 5, 0)
    assert stats.max_multiplicity == 2
    # the circles meet twice; one meeting point is marked, the other crosses
    assert stats.crossings == 1


def test_repeated_marked_point_rejected():
    scene = _two_circle_instance()
    with pytest.raises(DegenerateInput, match=r"\(4, 3\) is repeated"):
        szekely_stats(scene.points + ((F(4), F(3)),), scene, 2)


def test_incidences_equal_neighborhood_sum(corpus):
    for name, scene in corpus[:15]:
        pts = []
        for lens in enumerate_lenses(scene):
            for pt in lens.base:
                if pt.is_rational:
                    pts.append((pt.x.a, pt.y.a))
        pts = list(dict.fromkeys(pts))[:8]
        if not pts:
            continue
        stats = szekely_stats(pts, scene, 2)
        by_circle = [sum(1 for p in pts if power_of_point(p, c) == 0)
                     for c in scene.circles]
        assert stats.incidences == sum(by_circle), name
        assert stats.edges == sum(len_c if len_c > 2 else (2 if len_c == 2 else 0)
                                  for len_c in by_circle), name
        assert stats.crossings <= len(scene) * (len(scene) - 1), name
        assert stats.g0 + stats.g1 == stats.edges


def test_bundle_base_points():
    scene, desc = pencil_bundle_construction(12, 3)
    pts = [pt for base in desc.bases for pt in base]
    stats = szekely_stats(pts, scene, 3)
    assert stats.m == 8
    assert stats.incidences == 24  # every base point on its 3 pencil circles
    assert stats.edges == 24  # each circle joins its 2 points by both arcs
    assert stats.max_multiplicity == 6  # 3 circles x 2 arcs per pencil pair
    assert stats.crossings == 0


def test_szekely_stats_with_every_rational_lens_vertex_marked():
    # the lattice-n48-g4-s1 circles with their 399 rational lens vertices
    # marked, built in memory, since a .scene file would join the pinned
    # hash of tests/data; the figures are those of the marked-pair pool
    text = (DATA / "lattice-n48-g4-s1.scene").read_text()
    scene = Scene(parse_scene(text).circles)
    lenses = enumerate_lenses(scene)
    points = sorted({(p.x.a, p.y.a) for lens in lenses for p in lens.base
                     if p.is_rational})
    assert len(points) == 399
    # every rational lens has both base points marked, so all are pool lenses
    assert sum(lens.base[0].is_rational for lens in lenses) == 533
    assert szekely_stats(points, scene, 2) == SzekelyStats(
        m=399, n=48, incidences=993, edges=993, g0=987, g1=6,
        max_multiplicity=2, crossings=546)
    stats = szekely_stats(points, scene, 3)
    assert (stats.edges, stats.g0, stats.g1) == (993, 993, 0)


def test_richness_validation():
    scene = _two_circle_instance()
    with pytest.raises(InvalidRichness):
        szekely_stats(scene.points, scene, 1)


def test_lens_circle_incidences():
    scene, _ = pencil_bundle_construction(20, 4)
    lenses = rich_lenses(enumerate_lenses(scene), 4)
    family = select_family(lenses, scene, mode="greedy")
    assert family.total_degree == 20


def _reference_counts(points, scene):
    """Incidences, edges and crossings from power_of_point over Fraction."""
    on = [frozenset(i for i, p in enumerate(points) if power_of_point(p, c) == 0)
          for c in scene.circles]
    drawn = [i for i, ids in enumerate(on) if len(ids) >= 2]

    def meet_twice(c1, c2):
        d2 = (c1.cx - c2.cx) ** 2 + (c1.cy - c2.cy) ** 2
        return (d2 - c1.r2 - c2.r2) ** 2 < 4 * c1.r2 * c2.r2

    return (sum(map(len, on)),
            sum(2 if len(on[i]) == 2 else len(on[i]) for i in drawn),
            sum(2 - len(on[i] & on[j]) for i, j in combinations(drawn, 2)
                if meet_twice(scene.circles[i], scene.circles[j])))


@given(st.integers(0, 10 ** 6), st.sampled_from((3, 4)),
       st.randoms(use_true_random=False))
@settings(max_examples=12, deadline=None)
def test_szekely_counts_match_power_of_point(seed, g, rnd):
    # lattice circles translated by a rational offset, so base points carry
    # denominators the circles lack (5, 13, 17, ...) and some coordinates
    # are negative, plus points on no circle
    shift = (F(-7, 3), F(5, 2))
    base = random_scene(GeneratorSpec(model="lattice-triples", n=16, seed=seed,
                                      spread=F(g)))
    scene = Scene(circles=tuple(Circle(c.cx + shift[0], c.cy + shift[1], c.r2)
                                for c in base.circles))
    points = {(p.x.a, p.y.a) for lens in enumerate_lenses(scene)
              for p in lens.base if p.is_rational}
    points = rnd.sample(sorted(points), min(len(points), 24))
    points += [(F(-3, 7), F(5, 11)), (F(-10**9 - 1, 3), F(2, 10**9 + 7))]
    incidences, edges, crossings = _reference_counts(points, scene)
    assert count_incidences(points, scene) == incidences
    stats = szekely_stats(points, scene, 3)
    assert (stats.incidences, stats.edges, stats.crossings) == \
        (incidences, edges, crossings)
    assert stats.g0 + stats.g1 == stats.edges
