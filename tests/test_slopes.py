from fractions import Fraction as F

import pytest

from circlelens.errors import DegenerateInput, Inconclusive, VerticalTangent
from circlelens.geometry import Circle
from circlelens.pencils import Lens, Scene, enumerate_lenses
from circlelens.quadfield import QuadPoint
from circlelens.slopes import gamma_point, order_reversal_check


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
