"""Tests of the benchmark's own checks on tiny hand-built scenes.

    python3 -m pytest perfbench/test_checks.py     (or python3 perfbench/test_checks.py)

Program outputs are stood in for by plain objects with the same attributes,
so these tests need neither the program nor a copy of its output.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from types import SimpleNamespace as NS

import checks

# the worked three-circle pencil through (0, 1) and (0, -1)
PENCIL = ((F(0), F(0), F(1)), (F(1), F(0), F(2)), (F(2), F(0), F(5)))

# two circles and the two points where they cross
TWO_CIRCLES = ((F(0), F(0), F(25)), (F(8), F(0), F(25)))
TWO_POINTS = ((F(4), F(3)), (F(4), F(-3)))

# circle (3/2, 3/2), r2 = 9/2 and one more circle through each of the base
# pairs (-3/5, 6/5)-(0, 0), (0, 3)-(3, 0) and (9/5, 18/5)-(3, 3)
ROADMAP = ((F(3, 2), F(3, 2), F(9, 2)), (F(-3, 10), F(3, 5), F(9, 20)),
           (F(0), F(0), F(9)), (F(12, 5), F(33, 10), F(9, 20)))
ROADMAP_LENSES = (NS(circles=(0, 1)), NS(circles=(0, 2)), NS(circles=(0, 3)))


def q(a, b=0, delta=0):
    """A stand-in for the program's quadratic number a + b*sqrt(delta)."""
    return NS(a=F(a), b=F(b), delta=delta)


def test_sign_matches_floats():
    rng = random.Random(7)
    for _ in range(2000):
        r = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        al, be = rng.choice((2, 3, 5, 6, 8)), rng.choice((0, 2, 3, 7, 12))
        value = (r[0] + r[1] * al ** 0.5 + r[2] * be ** 0.5
                 + r[3] * (al * be) ** 0.5)
        if abs(value) > 1e-9:
            assert checks.sign_biq(*r, al, be) == (1 if value > 0 else -1)


def test_sign_finds_exact_zeros():
    # sqrt(8) - 2*sqrt(2) = 0
    assert checks.sign_biq(0, 1, -2, 0, F(8), F(2)) == 0
    assert checks.sign_q(F(0), F(0), 5) == 0
    # -4 + sqrt(2)*sqrt(8) = 0, although neither radicand is a square
    assert checks.sign_biq(-4, 0, 0, 1, F(2), F(8)) == 0
    assert checks.sign_biq(0, 0, 0, 1, F(2), F(3)) == 1


def test_pencil_pairs_and_base_points():
    pairs = sum(checks.meets_twice(a, b)
                for i, a in enumerate(PENCIL) for b in PENCIL[i + 1:])
    assert pairs == 3
    p, qq = checks.base_points(PENCIL[0], PENCIL[1])
    assert {checks.rational_point(p), checks.rational_point(qq)} == \
        {(F(0), F(1)), (F(0), F(-1))}
    assert checks.on_circle(p, PENCIL[2]) and checks.on_circle(qq, PENCIL[2])


def test_enumeration_check_on_pencil():
    assert checks.check_enumeration(PENCIL, [NS(circles=(0, 1, 2))]) is None
    assert "cross twice" in checks.check_enumeration(PENCIL, [NS(circles=(0, 1))])
    far = PENCIL + ((F(20), F(0), F(1)),)
    assert "misses" in checks.check_enumeration(far, [NS(circles=(0, 1, 3))])


def test_grid_lenses_of_pencil_points():
    grid = ((F(0), F(1)), (F(0), F(-1)), (F(5), F(5)))
    expected = {(frozenset(grid[:2]), frozenset({0, 1, 2}))}
    assert checks.grid_lenses(PENCIL, grid) == expected
    assert checks.check_grid_lenses(PENCIL, grid, [NS(circles=(0, 1, 2))]) is None


def test_szekely_counts_two_circle_instance():
    want = {"incidences": 4, "edges": 4, "crossings": 0}
    assert checks.szekely_counts(TWO_CIRCLES, TWO_POINTS) == want
    stats = NS(m=2, n=2, g0=2, g1=2, **want)
    assert checks.check_szekely(TWO_CIRCLES, TWO_POINTS, stats) is None
    assert checks.check_szekely(TWO_CIRCLES, TWO_POINTS,
                                NS(**{**vars(stats), "crossings": 1}))
    # with one marked point dropped no circle is drawn, so nothing crosses
    assert checks.szekely_counts(TWO_CIRCLES, TWO_POINTS[:1])["crossings"] == 0
    one_off = TWO_POINTS + ((F(-5), F(0)), (F(5), F(0)))
    assert checks.szekely_counts(TWO_CIRCLES, one_off)["crossings"] == 0


def test_roadmap_lenses_are_flagged():
    bad = checks.concurrent_triples(ROADMAP, ROADMAP_LENSES)
    assert bad == {(0, frozenset({(0, 1), (0, 2), (0, 3)}))}
    family = NS(members=ROADMAP_LENSES, certificate=True, total_degree=6)
    detail = checks.check_family(ROADMAP, ROADMAP_LENSES, family, 2)
    assert detail.startswith("Lemma 3 fails")
    assert "(3/2, 3/2) r2=9/2" in detail and "meet at (-3, 6)" in detail
    for pair in ("(-3/5, 6/5)", "(0, 3)", "(3, 0)", "(9/5, 18/5)", "(3, 3)"):
        assert pair in detail
    report = NS(coplanar_triples=[(0, ROADMAP_LENSES)])
    assert checks.check_audit(ROADMAP, family, report) is None
    assert checks.check_audit(ROADMAP, family, NS(coplanar_triples=[]))


def test_pencil_family_is_not_flagged():
    lenses = [NS(circles=(0, 1, 2))]
    family = NS(members=lenses, certificate=True, total_degree=3)
    assert checks.check_family(PENCIL, lenses, family, 3) is None
    assert "not a 4-rich" in checks.check_family(PENCIL, lenses, family, 4)
    uncertified = NS(members=lenses, certificate=False, total_degree=3)
    assert "not certified" in checks.check_family(PENCIL, lenses, uncertified, 3)


def test_arc_containment():
    east, north, west, south = ((q(1), q(0)), (q(0), q(1)), (q(-1), q(0)),
                                (q(0), q(-1)))
    d = [checks.direction_of(v) for v in (east, north, west, south)]
    assert checks.in_ccw_arc(d[1], d[0], d[2])
    assert not checks.in_ccw_arc(d[3], d[0], d[2])
    assert checks.in_ccw_arc(d[3], d[2], d[0])
    assert checks.in_ccw_arc(d[0], d[0], d[1])  # closed at both ends
    # a direction in Q(sqrt(3)) between east and north
    tilted = checks.direction_of((q(0, 1, 3), q(1)))
    assert checks.in_ccw_arc(tilted, d[0], d[1])
    assert not checks.in_ccw_arc(tilted, d[1], d[0])


def test_cut_recount_on_pencil():
    lens = NS(circles=(0, 1, 2))
    uncut = [NS(circle_id=i, start=None, end=None) for i in range(3)]
    assert "lies on 3" in checks.check_cut(PENCIL, [lens], NS(arcs=uncut, k=3), 3)
    # cutting circle 0 at east and west separates (0, 1) from (0, -1)
    e, w = (q(1), q(0)), (q(-1), q(0))
    cut = uncut[1:] + [NS(circle_id=0, start=e, end=w),
                       NS(circle_id=0, start=w, end=e)]
    assert checks.check_cut(PENCIL, [lens], NS(arcs=cut, k=3), 3) is None


def test_order_and_cli_checks():
    lens = NS(circles=(0, 1, 2))
    ok = NS(reversed=True, order_at_p=(0, 1, 2), order_at_q=(2, 1, 0), excluded=())
    assert checks.check_orders([lens], [ok]) is None
    assert checks.check_orders([lens], [None]) is None
    bad = NS(reversed=False, order_at_p=(0, 1, 2), order_at_q=(0, 1, 2), excluded=())
    assert checks.check_orders([lens], [bad])
    csv = "index,px,py,qx,qy,degree,circles\n0,0,-1,0,1,3,0;1;2\n"
    assert checks.check_cli_rows(csv, 1, 3) is None
    assert checks.check_cli_rows(csv, 2, 3)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
