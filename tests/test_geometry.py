from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelens.errors import DegenerateInput, NoRadicalAxis
from circlelens.geometry import (Circle, Line, arcs_overlap, canonical_dir,
                                 centered, circle_line_points,
                                 circular_order_consistent, cross_sign,
                                 cyclic_cmp, dir_in_ccw_arc,
                                 intersection_points, lens_arc,
                                 opposite_direction, point_on_circle,
                                 power_of_point, radical_axis, same_direction)
from circlelens.quadfield import QuadNum, QuadPoint

UNIT = Circle(F(0), F(0), F(1))


def test_circle_rejects_nonpositive_radius():
    with pytest.raises(DegenerateInput):
        Circle(F(0), F(0), F(0))
    with pytest.raises(DegenerateInput):
        Circle(F(0), F(0), F(-1))


def test_line_canonicalization():
    assert Line.of(F(1, 2), F(-1, 3), F(1)) == Line.of(3, -2, 6)
    assert Line.of(-2, 0, 4) == Line.of(1, 0, -2)
    with pytest.raises(DegenerateInput):
        Line.of(0, 0, 1)


def test_radical_axis_known_values():
    # unit circle and circle center (1,0) r2=2: axis is x = 0
    c2 = Circle(F(1), F(0), F(2))
    assert radical_axis(UNIT, c2) == Line.of(1, 0, 0)
    # two unit circles at distance 1: axis is 2x - 1 = 0
    c3 = Circle(F(1), F(0), F(1))
    assert radical_axis(UNIT, c3) == Line.of(2, 0, -1)
    with pytest.raises(NoRadicalAxis):
        radical_axis(UNIT, Circle(F(0), F(0), F(4)))


def test_radical_axis_is_equal_power_locus():
    c1 = Circle(F(1, 2), F(-3), F(7, 3))
    c2 = Circle(F(-2), F(1, 5), F(4))
    axis = radical_axis(c1, c2)
    # pick two rational points on the axis and compare powers
    a, b, c = F(axis.a), F(axis.b), F(axis.c)
    for t in (F(0), F(7, 11)):
        if b:
            pt = (t, (-c - a * t) / b)
        else:
            pt = (-c / a, t)
        assert power_of_point(pt, c1) == power_of_point(pt, c2)


def test_circle_line_points_cases():
    # secant, tangent, missing
    assert len(circle_line_points(UNIT, Line.of(1, 0, 0))) == 2
    tangent = circle_line_points(UNIT, Line.of(1, 0, -1))
    assert tangent == (QuadPoint(1, 0),)
    assert circle_line_points(UNIT, Line.of(1, 0, -2)) == ()
    for p in circle_line_points(UNIT, Line.of(1, 1, -1)):
        assert point_on_circle(p, UNIT)


def test_intersection_points_symmetric_membership():
    c2 = Circle(F(1), F(1), F(2))
    pts = intersection_points(UNIT, c2)
    assert len(pts) == 2
    for p in pts:
        assert point_on_circle(p, UNIT) and point_on_circle(p, c2)
    with pytest.raises(DegenerateInput):
        intersection_points(UNIT, UNIT)
    assert intersection_points(UNIT, Circle(F(0), F(0), F(4))) == ()
    assert intersection_points(UNIT, Circle(F(5), F(0), F(1))) == ()


def test_tangent_circles_single_point():
    pts = intersection_points(UNIT, Circle(F(2), F(0), F(1)))
    assert pts == (QuadPoint(1, 0),)


DIRS = [(F(1), F(0)), (F(1), F(1)), (F(0), F(1)), (F(-1), F(2)),
        (F(-1), F(0)), (F(-2), F(-1)), (F(0), F(-1)), (F(1), F(-3))]


def _qd(d):
    return (QuadNum.of(d[0]), QuadNum.of(d[1]))


def test_cyclic_order_of_reference_directions():
    dirs = [_qd(d) for d in DIRS]
    for i in range(len(dirs) - 1):
        assert cyclic_cmp(dirs[i], dirs[i + 1]) == -1
        assert cyclic_cmp(dirs[i + 1], dirs[i]) == 1
    assert cyclic_cmp(dirs[0], dirs[0]) == 0


def test_cyclic_order_with_irrational_directions():
    u = (QuadNum.sqrt(2), QuadNum.of(1))
    v = (QuadNum.of(1), QuadNum.sqrt(3))
    # angles: atan(1/sqrt2) ~ 35.3 deg < atan(sqrt3) = 60 deg
    assert cyclic_cmp(u, v) == -1
    assert cross_sign(u, v) == 1


def test_same_and_opposite_direction():
    u = _qd((F(2), F(3)))
    assert same_direction(u, _qd((F(4), F(6))))
    assert opposite_direction(u, _qd((F(-2), F(-3))))
    assert not same_direction(u, _qd((F(3), F(2))))


def test_canonical_dir_identifies_rays():
    u = (QuadNum.sqrt(2), QuadNum.of(2))
    v = (QuadNum.of(1), QuadNum.sqrt(2))  # same ray scaled by sqrt(2)
    assert canonical_dir(u) == canonical_dir(v)
    assert canonical_dir(_qd((F(0), F(-5)))) == (QuadNum.of(0), QuadNum.of(-1))


def test_dir_in_ccw_arc_all_measures():
    e1, n, w, s = (_qd(d) for d in
                   ((F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))))
    ne = _qd((F(1), F(1)))
    # short arc east -> north
    assert dir_in_ccw_arc(ne, e1, n)
    assert not dir_in_ccw_arc(s, e1, n)
    # long arc north -> east contains west and south
    assert dir_in_ccw_arc(w, n, e1)
    assert dir_in_ccw_arc(s, n, e1)
    assert not dir_in_ccw_arc(ne, n, e1)
    # half circle east -> west: closed, contains both endpoints and north
    assert dir_in_ccw_arc(n, e1, w)
    assert dir_in_ccw_arc(e1, e1, w)
    assert dir_in_ccw_arc(w, e1, w)
    assert not dir_in_ccw_arc(s, e1, w)
    with pytest.raises(DegenerateInput):
        dir_in_ccw_arc(n, e1, _qd((F(2), F(0))))


def _on_unit(x, y):
    return QuadPoint.of((F(x[0], x[1]), F(y[0], y[1])))


P_E = _on_unit((1, 1), (0, 1))
P_N = _on_unit((0, 1), (1, 1))
P_W = _on_unit((-1, 1), (0, 1))
P_S = _on_unit((0, 1), (-1, 1))
P_NE = _on_unit((3, 5), (4, 5))
P_SE = _on_unit((3, 5), (-4, 5))
P_NW = _on_unit((-3, 5), (4, 5))
P_SW = _on_unit((-3, 5), (-4, 5))


def test_lens_arc_rule():
    e, n, w = (centered(p, UNIT) for p in (P_E, P_N, P_W))
    # shorter arc, CCW, whatever the order of the base points
    assert lens_arc(UNIT, P_E, P_N) == (e, n)
    assert lens_arc(UNIT, P_N, P_E) == (e, n)
    # a diameter uses the CCW half from the lexicographically smaller point
    assert lens_arc(UNIT, P_E, P_W) == (w, e)
    assert lens_arc(UNIT, P_N, P_S) == (centered(P_S, UNIT), n)


def test_arcs_overlap_shorter_arcs():
    # arcs E-NE and N-NW share nothing; E-N and NE-NW share [NE, N]
    assert not arcs_overlap(UNIT, (P_E, P_NE), (P_N, P_NW))
    assert arcs_overlap(UNIT, (P_E, P_N), (P_NE, P_NW))
    # closed arcs: sharing a single endpoint counts
    assert arcs_overlap(UNIT, (P_E, P_NE), (P_NE, P_N))


def test_arcs_overlap_antipodal_rules():
    # antipodal pair E-W versus a pair split across the x-axis
    assert arcs_overlap(UNIT, (P_E, P_W), (P_NE, P_SE))
    # the diameter E-W uses the CCW half from W, the lower half: a pair on
    # the upper side misses it and a pair on the lower side meets it
    assert not arcs_overlap(UNIT, (P_E, P_W), (P_NE, P_NW))
    assert arcs_overlap(UNIT, (P_E, P_W), (P_SE, P_SW))
    # a point of the other pair on the diameter counts as overlap
    assert arcs_overlap(UNIT, (P_E, P_W), (P_E, P_N))
    # two antipodal pairs always overlap
    assert arcs_overlap(UNIT, (P_E, P_W), (P_N, P_S))


def test_arcs_overlap_symmetry_and_validation():
    pairs = [(P_E, P_NE), (P_N, P_NW), (P_E, P_N), (P_NE, P_SE), (P_E, P_W)]
    for a in pairs:
        for b in pairs:
            if a is b:
                continue
            assert arcs_overlap(UNIT, a, b) == arcs_overlap(UNIT, b, a)
    with pytest.raises(DegenerateInput):
        arcs_overlap(UNIT, (P_E, P_E), (P_N, P_S))
    off = QuadPoint.of((F(2), F(0)))
    with pytest.raises(DegenerateInput):
        arcs_overlap(UNIT, (off, P_N), (P_E, P_W))


coords = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@given(st.lists(st.tuples(coords, coords), min_size=3, max_size=6))
@settings(max_examples=100)
def test_cyclic_order_transitive_on_random_directions(raw):
    pts = []
    for x, y in raw:
        if x == 0 and y == 0:
            continue
        pts.append((x + UNIT.cx, y + UNIT.cy))
    if len(pts) < 3:
        return
    # circular_order_consistent only uses directions from the center, so
    # membership on the circle is not required here
    assert circular_order_consistent(UNIT, pts)
    dirs = [_qd(p) for p in pts]
    for u in dirs:
        for v in dirs:
            assert cyclic_cmp(u, v) == -cyclic_cmp(v, u)
