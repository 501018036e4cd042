from fractions import Fraction as F
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelens import pencils, slopes
from circlelens.errors import (CircleLensError, DegenerateInput, Inconclusive,
                               VerticalTangent)
from circlelens.families import select_family
from circlelens.generators import GeneratorSpec, random_scene
from circlelens.geometry import Circle, point_on_circle
from circlelens.pencils import Lens, Scene, enumerate_lenses
from circlelens.quadfield import QuadNum, QuadPoint
from circlelens.slopes import OrderReversal, gamma_point, order_reversal_check


# -- the QuadNum reference ----------------------------------------------------

def _chord_frame_slope(c: Circle, p: QuadPoint, d) -> QuadNum:
    """Tangent slope at p measured in the frame whose y-axis is the chord
    direction d.

    Linear order reversal between the two base points holds only in this
    frame: for a generic chord the two global slopes are related by a Mobius
    map whose pole can break the linear order even though the cyclic order
    always reverses.  With the chord "vertical" the relation is an exact
    negation, and no circle through both base points is ever frame-vertical
    (that would need its center on a line parallel to, but off, the
    perpendicular bisector).
    """
    tx, ty = -(p.y - c.cy), p.x - c.cx  # tangent direction at p
    return (tx * d[0] + ty * d[1]) / (tx * d[1] - ty * d[0])


def reference_order_reversal(lens: Lens, scene: Scene) -> OrderReversal:
    """order_reversal_check over QuadNum: both base points on every circle,
    circles vertical at either point excluded, and slopes compared with
    QuadNum.compare."""
    p, q = lens.base
    d = (q.x - p.x, q.y - p.y)
    found, excluded = {}, []
    for cid in lens.circles:
        if not all(point_on_circle(pt, scene.circles[cid]) for pt in (p, q)):
            raise DegenerateInput("point not on circle")
    for cid in lens.circles:
        c = scene.circles[cid]
        if p.y == c.cy or q.y == c.cy:
            excluded.append(cid)
            continue
        found[cid] = (_chord_frame_slope(c, p, d), _chord_frame_slope(c, q, d))
    if len(found) < 2:
        raise Inconclusive("fewer than two circles with finite slopes")
    by_p = sorted(found, key=cmp_to_key(
        lambda a, b: found[a][0].compare(found[b][0])))
    by_q = sorted(found, key=cmp_to_key(
        lambda a, b: found[a][1].compare(found[b][1])))
    return OrderReversal(reversed=by_q == list(reversed(by_p)),
                         order_at_p=tuple(by_p), order_at_q=tuple(by_q),
                         excluded=tuple(excluded))


def _agrees_with_reference(lens: Lens, scene: Scene):
    """The check equals the reference, or raises the same exception type;
    returns the reference's result or exception."""
    try:
        want = reference_order_reversal(lens, scene)
    except (CircleLensError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            order_reversal_check(lens, scene)
        return exc
    assert order_reversal_check(lens, scene) == want, lens
    return want


def test_gamma_point_basic():
    c = Circle(F(0), F(0), F(25))
    g = gamma_point(c, (F(3), F(4)), circle_id=7)
    assert g.z == F(-3, 4)
    assert g.circle_id == 7
    assert gamma_point(c, (F(0), F(5))).z == 0


def test_gamma_point_errors():
    c = Circle(F(0), F(0), F(1))
    with pytest.raises(DegenerateInput):
        gamma_point(c, (F(2), F(0)))
    with pytest.raises(VerticalTangent):
        gamma_point(c, (F(1), F(0)))


def test_canonical_pencil_slopes(worked_pencil):
    # circles centered (0,0), (1,0), (2,0), base points (0, +-1):
    # slopes at (0,1) are (0, 1, 2); at (0,-1) they are (0, -1, -2)
    (lens,) = enumerate_lenses(worked_pencil)
    p = QuadPoint.of((F(0), F(1)))
    q = QuadPoint.of((F(0), F(-1)))
    zs_p = [gamma_point(c, p).z for c in worked_pencil.circles]
    zs_q = [gamma_point(c, q).z for c in worked_pencil.circles]
    assert zs_p == [0, 1, 2]
    assert zs_q == [0, -1, -2]
    check = order_reversal_check(lens, worked_pencil)
    assert check.reversed
    assert check.order_at_p == tuple(reversed(check.order_at_q))
    assert check.excluded == ()


def test_order_reversal_on_corpus(corpus):
    for name, scene in corpus:
        for lens in enumerate_lenses(scene):
            try:
                check = order_reversal_check(lens, scene)
            except Inconclusive:
                continue
            assert check.reversed, (name, lens)


def test_vertical_tangent_exclusion():
    # pencil through (+-1, 0): the horizontal base chord makes the circle
    # centered on the y-axis have vertical tangents nowhere, but a circle
    # centered on the x-axis through (+-1, 0) does not exist except r2=1;
    # instead use base (0, +-1) with the circle centered at (0, 0): at
    # (0, +-1) its tangent is horizontal, fine -- so build the vertical case
    # explicitly with base (+-1, 0) and the unit circle.
    circles = (Circle(F(0), F(0), F(1)),     # vertical tangents at (+-1, 0)
               Circle(F(0), F(1), F(2)),
               Circle(F(0), F(2), F(5)),
               Circle(F(0), F(-1), F(2)))
    scene = Scene(circles=circles)
    lenses = [l for l in enumerate_lenses(scene)
              if set(l.circles) >= {0, 1}]
    (lens,) = lenses
    check = order_reversal_check(lens, scene)
    assert 0 in check.excluded
    assert check.reversed


def test_reversal_with_diagonal_chord():
    # base (0,0)-(1,1): the global tangent slopes at p are (-1, 2) and at q
    # (-1, 1/2) -- identically ordered, so only the chord-frame comparison
    # reverses.  This pins the frame choice.
    circles = (Circle(F(1, 2), F(1, 2), F(1, 2)),
               Circle(F(2), F(-1), F(5)))
    scene = Scene(circles=circles)
    (lens,) = enumerate_lenses(scene)
    assert {tuple(map(F, p)) for p in
            [(0, 0), (1, 1)]} == {(F(pt.x.a), F(pt.y.a)) for pt in lens.base}
    check = order_reversal_check(lens, scene)
    assert check.reversed
    g_p = [gamma_point(c, (F(0), F(0))).z for c in circles]
    g_q = [gamma_point(c, (F(1), F(1))).z for c in circles]
    assert g_p == [-1, 2] and g_q == [-1, F(1, 2)]


def test_inconclusive_when_too_few_finite_slopes():
    # both circles have vertical tangents at the base pair (+-1, 0)?  A
    # circle through (1,0) and (-1,0) has vertical tangent there only if
    # centered on the x-axis, i.e. the unit circle itself.  So instead take
    # a two-circle lens and exclude one: only one finite circle remains.
    circles = (Circle(F(0), F(0), F(1)),
               Circle(F(0), F(1), F(2)))
    scene = Scene(circles=circles)
    (lens,) = enumerate_lenses(scene)
    with pytest.raises(Inconclusive):
        order_reversal_check(lens, scene)


def test_order_reversal_rejects_circle_off_the_base():
    # a lens naming a circle that misses its base pair is not a lens
    circles = (Circle(F(0), F(1), F(2)),
               Circle(F(0), F(-1), F(2)),
               Circle(F(5), F(5), F(1)))
    scene = Scene(circles=circles)
    (lens,) = enumerate_lenses(scene)
    forged = Lens(lens.base, lens.circles + (2,))
    with pytest.raises(DegenerateInput):
        order_reversal_check(forged, scene)


def test_order_reversal_reads_the_kept_vertex_record(monkeypatch):
    # family selection keeps each own lens's vertex record, and the check
    # reads its directions from it: no lens is scaled again
    scene = random_scene(GeneratorSpec(model="lattice-triples", n=24, seed=3,
                                       spread=F(4)))
    lenses = enumerate_lenses(scene)
    select_family(lenses, scene)
    calls = []
    real = pencils.lens_dirs
    monkeypatch.setattr(pencils, "lens_dirs",
                        lambda *args: calls.append(args) or real(*args))
    for lens in lenses:
        _agrees_with_reference(lens, scene)
    assert len(lenses) > 10 and calls == []
    # a lens built apart goes through lens_dirs and its on-circle checks
    forged = Lens(lenses[0].base, (*lenses[0].circles,
                                   next(i for i in range(len(scene))
                                        if i not in lenses[0].circles)))
    with pytest.raises(DegenerateInput, match="is not on circle"):
        order_reversal_check(forged, scene)
    assert len(calls) == 1


# -- differential tests against the QuadNum reference -------------------------

uniform_scenes = st.builds(
    lambda n, seed, spread: random_scene(GeneratorSpec(
        model="uniform-random", n=n, seed=seed, spread=F(spread))),
    st.integers(6, 16), st.integers(0, 10 ** 6), st.sampled_from((3, 4, 6)))
lattice_scenes = st.builds(
    lambda n, seed, g: random_scene(GeneratorSpec(
        model="lattice-triples", n=n, seed=seed, spread=F(g))),
    st.integers(6, 24), st.integers(0, 10 ** 6), st.sampled_from((3, 4)))


@given(st.one_of(uniform_scenes, lattice_scenes))
@settings(max_examples=30, deadline=None)
def test_order_reversal_matches_reference(scene):
    for lens in enumerate_lenses(scene):
        _agrees_with_reference(lens, scene)


def _pencil(p: QuadPoint, q: QuadPoint, ts) -> list[Circle]:
    """Circles through the rational or conjugate pair p, q: centres m + t*n
    on the perpendicular bisector, n a rational normal of the chord."""
    mx, my = (p.x + q.x) / 2, (p.y + q.y) / 2
    hx, hy = (q.x - p.x) / 2, (q.y - p.y) / 2
    nx, ny = (-hy.a, hx.a) if p.is_rational else (-hy.b, hx.b)
    out = []
    for t in ts:
        cx, cy = mx + t * nx, my + t * ny
        r2 = (cx - p.x) * (cx - p.x) + (cy - p.y) * (cy - p.y)
        out.append(Circle(cx.a, cy.a, r2.a))
    return out


def test_vertical_tangent_at_one_base_point_only():
    # base (0, 0), (1, 1): the circle centred (1, 0) is vertical at p only,
    # the one centred (0, 1) at q only
    circles = (Circle(F(1), F(0), F(1)), Circle(F(0), F(1), F(1)),
               Circle(F(1, 2), F(1, 2), F(1, 2)), Circle(F(2), F(-1), F(5)),
               Circle(F(-1), F(2), F(5)))
    scene = Scene(circles=circles)
    (lens,) = enumerate_lenses(scene)
    assert lens.circles == (0, 1, 2, 3, 4)
    assert _agrees_with_reference(lens, scene).excluded == (0, 1)
    for vertical in (0, 1):
        forged = Lens(lens.base, (vertical, 2, 3, 4))
        check = _agrees_with_reference(forged, scene)
        assert check.excluded == (vertical,) and check.reversed


@pytest.mark.parametrize("off", [Circle(F(5), F(0), F(1)),   # misses p, cy = p.y
                                 Circle(F(2), F(1), F(5))])  # misses q, cy = q.y
def test_circle_off_the_base_is_rejected_before_the_vertical_test(off):
    base = (QuadPoint(F(0), F(0)), QuadPoint(F(1), F(1)))
    scene = Scene(circles=(Circle(F(1, 2), F(1, 2), F(1, 2)),
                           Circle(F(2), F(-1), F(5)), off))
    forged = Lens(base, (0, 1, 2))
    assert isinstance(_agrees_with_reference(forged, scene), DegenerateInput)


def test_point_off_a_circle_where_the_other_is_vertical_is_rejected():
    # p = (-1, 0) is on all three circles and vertical on circle 0;
    # q = (0, 5) is on circles 1 and 2 only
    scene = Scene(circles=(Circle(F(0), F(0), F(1)), Circle(F(2), F(2), F(13)),
                           Circle(F(-3), F(3), F(13))))
    forged = Lens((QuadPoint(F(-1), F(0)), QuadPoint(F(0), F(5))), (0, 1, 2))
    with pytest.raises(DegenerateInput, match="is not on circle 0$"):
        order_reversal_check(forged, scene)
    assert isinstance(_agrees_with_reference(forged, scene), DegenerateInput)


def test_irrational_conjugate_bases():
    ts = [F(t, 3) for t in range(-5, 6)]
    for p, q in [
            ((F(1, 2), QuadNum(0, F(1, 2), 11)), (F(1, 2), QuadNum(0, F(-1, 2), 11))),
            ((QuadNum(1, 1, 2), QuadNum(2, -1, 2)),
             (QuadNum(1, -1, 2), QuadNum(2, 1, 2))),
            ((QuadNum(F(1, 3), 2, 7), QuadNum(F(-1, 5), 3, 7)),
             (QuadNum(F(1, 3), -2, 7), QuadNum(F(-1, 5), -3, 7)))]:
        p, q = QuadPoint(*p), QuadPoint(*q)
        scene = Scene(circles=tuple(_pencil(p, q, ts)))
        (lens,) = enumerate_lenses(scene)
        assert lens.degree == len(ts) and not lens.base[0].is_rational
        assert _agrees_with_reference(lens, scene).reversed


def test_base_copied_over_a_square_factor_radicand():
    # 1/2 + sqrt(8) and 1/2 - 2*sqrt(2): one field over two radicands
    p = QuadPoint(QuadNum(F(1, 2), 1, 8), F(3))
    q = QuadPoint(QuadNum(F(1, 2), -2, 2), F(3))
    scene = Scene(circles=tuple(Circle(F(1, 2), F(t), 8 + (3 - F(t)) ** 2)
                                for t in (-2, 0, 1, 5, 7)))
    (lens,) = enumerate_lenses(scene)
    copy = Lens((p, q), lens.circles)
    assert copy == lens and {pt.delta for pt in copy.base} == {2, 8}
    assert _agrees_with_reference(copy, scene) == order_reversal_check(lens, scene)
    family = select_family([copy], scene)
    assert family.certificate and family == select_family([lens], scene)


def test_large_pairwise_coprime_denominators():
    # a pencil through m +- h*sqrt(3) and one through two rational points,
    # both over the primes 101-163, so the common denominator is large
    m = (F(1, 3), F(2, 5))
    p = QuadPoint(QuadNum(m[0], 1, 3), QuadNum(m[1], 2, 3))
    q = QuadPoint(QuadNum(m[0], -1, 3), QuadNum(m[1], -2, 3))
    circles = _pencil(p, q, (F(1, 101), F(-2, 103), F(3, 107), F(5, 109)))
    circles += [Circle(F(u, r), F(1, 2), F(u, r) ** 2 + F(5, 4))
                for u, r in ((1, 113), (-4, 127), (7, 131))]
    circles += [Circle(F(1, 137), F(-1, 139), F(17, 149))]
    scene = Scene(circles=tuple(circles))
    lenses = enumerate_lenses(scene)
    assert sorted(l.degree for l in lenses)[-2:] == [3, 4]
    for lens in lenses:
        _agrees_with_reference(lens, scene)


def test_base_points_in_two_fields_are_rejected():
    # (1, sqrt(2)) and (sqrt(3/2), sqrt(3/2)) both lie on x^2 + y^2 = 3
    p = QuadPoint(F(1), QuadNum.sqrt(2))
    q = QuadPoint(QuadNum.sqrt(F(3, 2)), QuadNum.sqrt(F(3, 2)))
    scene = Scene(circles=(Circle(F(0), F(0), F(3)), Circle(F(1), F(1), F(2))))
    lens = Lens((p, q), (0, 1))
    with pytest.raises(DegenerateInput, match="two quadratic fields"):
        order_reversal_check(lens, scene)


def test_slope_denominator_cases():
    # u = (1, 0) is perpendicular to d = (0, 1): u . d = 0.  No circle
    # through both base points gets here, since u . d = -|d|^2/2 for it.
    with pytest.raises(ZeroDivisionError, match=r"u \. d is zero"):
        slopes._slope(1, 0, 0, 0, (0, 0, 1, 0), 0)
    assert tuple(slopes._slope(1, 0, 0, 0, (1, 0, 1, 0), 0)) == (-1, 1, 0, 0)
    # u . d = sqrt(2) has norm -2: -1/sqrt(2) = -sqrt(2)/2, kept over n = 2
    assert tuple(slopes._slope(1, 0, 0, 0, (0, 1, 1, 0), 2)) == (0, 2, -1, 2)
