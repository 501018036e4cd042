from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circlelens import geometry
from circlelens.errors import DegenerateInput, NoRadicalAxis
from circlelens.geometry import (Circle, Line, chord_points, circle_line_points,
                                 intersection_points, point_on_circle,
                                 power_of_point, radical_axis)
from circlelens.quadfield import QuadNum, QuadPoint
from dir_oracle import (arcs_overlap, canonical_dir, centered,
                        circular_order_consistent, cross_sign, cyclic_cmp,
                        dir_in_ccw_arc, lens_arc, opposite_direction,
                        same_direction)

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


@given(a=st.integers(-12, 12), b=st.integers(-12, 12),
       fx=st.fractions(max_denominator=50), fy=st.fractions(max_denominator=50),
       x=st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 4),
       square=st.booleans())
@settings(max_examples=150)
def test_chord_points_match_per_coordinate_radicands(a, b, fx, fy, x, square):
    # the points, radicands included, as four QuadNums each normalizing x
    assume(a or b)
    if square:
        x = x * x
    line = Line(a, b, 0)
    k = F(1, a * a + b * b)
    expected = ((QuadNum(fx, -b * k, x), QuadNum(fy, a * k, x)),
                (QuadNum(fx, b * k, x), QuadNum(fy, -a * k, x)))
    got = chord_points(line, fx, fy, x)
    if x == 0:
        assert got == (QuadPoint(fx, fy),)
        return
    parts = [[(c.a, c.b, c.delta) for c in p] for p in got]
    assert parts == [[(c.a, c.b, c.delta) for c in p] for p in expected]


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


def test_quadrant_of_a_zero_direction_is_degenerate():
    for v in ((0, 0, 0, 0, 0), (0, 0, 0, 0, 5)):
        with pytest.raises(DegenerateInput, match="zero direction"):
            geometry.quadrant(v)


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


# -- the integer cyclic key against cyclic_cmp ---------------------------------

def _quad_dir(v):
    xa, xb, ya, yb, d = v
    return (QuadNum(xa, xb, d), QuadNum(ya, yb, d))


def _assert_key_order(dirs):
    """geometry.cyclic_key orders and identifies integer directions as the
    oracle's cyclic_cmp does their QuadNum forms, and geometry.canonical_dir
    gives the oracle's canonical_dir."""
    keys = [geometry.cyclic_key(v) for v in dirs]
    quads = [_quad_dir(v) for v in dirs]
    for v, q in zip(dirs, quads):
        assert repr(geometry.canonical_dir(v)) == repr(canonical_dir(q))
    for k1, q1 in zip(keys, quads):
        for k2, q2 in zip(keys, quads):
            assert (k1 > k2) - (k1 < k2) == cyclic_cmp(q1, q2)
            assert (k1 == k2) == (cyclic_cmp(q1, q2) == 0)


BIG = 2 ** 40
# slopes 1 + t/2^40 with 0 < t < 2^8 share their first 32 bits, and so do
# their mirror images; two pairs are one ray written twice
TIED = [(BIG, 0, BIG + t, 0, 0) for t in (1, 2, 128, 255)] + [
    (BIG, 0, BIG, 1, 2), (BIG, 0, BIG + 3, -1, 3), (BIG, 1, BIG + 2, 1, 5),
    (2 * BIG, 0, 2 * BIG, 1, 8), (BIG, 0, BIG + 1, 0, 7)]


@pytest.mark.parametrize("sx,sy", [(1, 1), (-1, 1), (-1, -1), (1, -1)])
def test_cyclic_key_falls_back_to_the_exact_sign_on_tied_prefixes(sx, sy):
    dirs = [(sx * xa, sx * xb, sy * ya, sy * yb, d) for xa, xb, ya, yb, d in TIED]
    assert len({geometry.cyclic_key(v)[:2] for v in dirs}) == 1
    _assert_key_order(dirs)


def test_cyclic_key_of_one_ray_over_two_forms_of_one_field():
    n = 2147483629 * 1000000009
    u, v = (0, 1, 1, 0, n), (0, 1, 3, 0, 9 * n)  # v = 3*u, radicand written 9n
    assert geometry.cyclic_key(u) == geometry.cyclic_key(v)
    assert geometry.cross_sign(u, v) == 0
    _assert_key_order([u, v, tuple(-a for a in v[:4]) + (9 * n,),
                       (0, 1, 1, 1, n), (1, 0, 0, 1, 9 * n)])


def test_cyclic_key_on_the_axes():
    axes = [(1, 0, 0, 0, 0), (5, 0, 0, 0, 0), (0, 1, 0, 0, 2), (0, 0, 1, 0, 0),
            (0, 0, 0, 3, 6), (-1, 0, 0, 0, 0), (0, -2, 0, 0, 3),
            (0, 0, -1, 0, 0), (0, 0, -4, 0, 0), (1, 0, 1, 0, 0)]
    assert [geometry.cyclic_key(v)[0] for v in axes] == \
        [0, 0, 0, 2, 2, 4, 4, 6, 6, 1]
    _assert_key_order(axes)


RADICANDS = (0, 2, 3, 6, 8, 12, 18, 50, 2147483629 * 1000000009)
parts = st.integers(-40, 40)


@st.composite
def int_dirs(draw):
    """Two nonzero integer directions: independent, a positive multiple over
    4d, or the first scaled by 2^40 and nudged, so their prefixes tie."""
    d = draw(st.sampled_from(RADICANDS))
    xa, xb, ya, yb = (draw(parts) for _ in range(4))
    if not d:
        xb = yb = 0
    assume(xa or xb or ya or yb)
    u = (xa, xb, ya, yb, d)
    kind = draw(st.sampled_from(("independent", "multiple", "nudged")))
    if kind == "multiple" and d:
        return u, (2 * xa, xb, 2 * ya, yb, 4 * d)
    if kind == "nudged":
        return u, (BIG * xa, BIG * xb, BIG * ya + draw(st.integers(-2, 2)),
                   BIG * yb, d)
    e = draw(st.sampled_from(RADICANDS))
    v = tuple(draw(parts) for _ in range(4)) + (e,)
    if not e:
        v = (v[0], 0, v[2], 0, 0)
    assume(any(v[:4]))
    return u, v


@given(st.lists(int_dirs(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_cyclic_key_matches_cyclic_cmp_on_mixed_radicands(pairs):
    _assert_key_order([v for pair in pairs for v in pair])


@st.composite
def paired_dirs(draw):
    """A nonzero direction: general, on an axis, or with a zero sqrt(d)
    part in x, in y or in both."""
    d = draw(st.sampled_from(RADICANDS))
    xa, xb, ya, yb = (draw(parts) for _ in range(4))
    form = draw(st.sampled_from(("general", "x = 0", "y = 0", "xb = 0",
                                 "yb = 0", "xb = yb = 0")))
    if form == "x = 0":
        xa = xb = 0
    if form == "y = 0":
        ya = yb = 0
    if form in ("xb = 0", "xb = yb = 0"):
        xb = 0
    if form in ("yb = 0", "xb = yb = 0") or not d:
        yb = 0
    if not d:
        xb = 0
    assume(xa or xb or ya or yb)
    return xa, xb, ya, yb, d


def _exact(key):
    return key[0], key[1], key[2].v


# slopes (P, Q, N) with Q < 0, with P < 0, and with both
@given(paired_dirs())
@example((1, 0, 3, -1, 2))
@example((1, 0, -3, 1, 2))
@example((-1, 1, -3, -1, 3))
@settings(max_examples=200, deadline=None)
def test_paired_keys_equal_the_cyclic_keys_of_each_direction(v):
    xa, xb, ya, yb, d = v
    for conjugate, w in ((True, (xa, -xb, ya, -yb, d)),
                         (False, (-xa, -xb, -ya, -yb, d))):
        assert [_exact(key) for key in geometry.paired_keys(v, conjugate)] \
            == [_exact(geometry.cyclic_key(u)) for u in (v, w)]


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


# -- point_on_circle against the squared-distance formula ---------------------

def _power(p, c):
    """The old membership formula, kept as the oracle: the power of p."""
    p = QuadPoint.of(p)
    return (p.x - c.cx) ** 2 + (p.y - c.cy) ** 2 - c.r2


def _moved(p, c, kind, m):
    """p moved off (or along) c; see test_point_on_circle_matches_power."""
    x, y = p.x, p.y
    root = QuadNum.sqrt(p.delta or 2)
    u, w = x.a - c.cx, y.a - c.cy
    if kind == "x+q":
        return QuadPoint(x + m, y)
    if kind == "y+q":
        return QuadPoint(x, y + m)
    if kind == "x+sqrt":
        return QuadPoint(x + m * root, y)
    if kind == "y+sqrt":
        return QuadPoint(x, y + m * root)
    if kind == "reflect-x":  # u -> -u: only the sqrt(d) part can survive
        return QuadPoint(x - 2 * u, y)
    if kind == "reflect-y":
        return QuadPoint(x, y - 2 * w)
    if kind == "flip-xb":  # xb -> -xb: only the sqrt(d) part can survive
        return QuadPoint(x - 2 * x.b * root, y)
    if kind == "along":  # rational step along (yb, -xb): sqrt(d) part stays 0
        return QuadPoint(x + m * y.b, y - m * x.b)
    return p


KINDS = ("on", "x+q", "y+q", "x+sqrt", "y+sqrt", "reflect-x", "reflect-y",
         "flip-xb", "along")
small = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@given(cx=small, cy=small,
       r2=st.fractions(min_value=F(1, 4), max_value=30, max_denominator=7),
       a=st.integers(-5, 5), b=st.integers(-5, 5),
       offset=st.fractions(min_value=F(-1, 2), max_value=F(1, 2),
                           max_denominator=9),
       index=st.integers(0, 1), kind=st.sampled_from(KINDS),
       m=st.fractions(min_value=-3, max_value=3, max_denominator=5),
       two_forms=st.booleans())
@settings(max_examples=200, deadline=None)
def test_point_on_circle_matches_power(cx, cy, r2, a, b, offset, index, kind,
                                       m, two_forms):
    assume(a or b)
    c = Circle(cx, cy, r2)
    # |offset| <= 1/2 and r2 >= 1/4 put the line through the closed disc
    pts = circle_line_points(c, Line.of(a, b, offset - a * cx - b * cy))
    assert pts
    p = _moved(pts[index % len(pts)], c, kind, m)
    if two_forms and p.y.delta:
        # y written over 4*d, another form of the same field
        p = (p.x, QuadNum(p.y.a, p.y.b / 2, 4 * p.y.delta))
    assert point_on_circle(p, c) == (_power(p, c) == 0)
    if kind == "on":
        assert point_on_circle(p, c)


def test_point_on_circle_needs_both_parts():
    # the chord x + y = 1/2 of the unit circle: x = 1/4 - sqrt(7)/4, so
    # u, xb and yb are all nonzero
    c = UNIT
    p = circle_line_points(c, Line.of(2, 2, -1))[0]
    assert point_on_circle(p, c) and p.x.b and p.y.b
    for kind in ("reflect-x", "flip-xb"):
        q = _moved(p, c, kind, None)
        v = _power(q, c)
        assert v.a == 0 and v.b != 0, kind  # only the rational part vanishes
        assert not point_on_circle(q, c), kind
    q = _moved(p, c, "along", F(1, 3))
    v = _power(q, c)
    assert v.a != 0 and v.b == 0  # only the sqrt(d) part vanishes
    assert not point_on_circle(q, c)
    # a rational point and a point over a different radicand than its chord's
    assert point_on_circle((F(3, 5), F(-4, 5)), c)
    assert not point_on_circle((F(3, 5), F(4, 5) + QuadNum.sqrt(2)), c)
    assert point_on_circle((QuadNum.sqrt(F(1, 2)), -QuadNum.sqrt(2) / 2), c)
