import itertools
import random
from fractions import Fraction as F

import pytest

from circlelens.dual import (AuditReport, DualLine, coplanarity_audit,
                             dual_plane, lens_line, lift_circle, lines_coplanar)
from circlelens.errors import DegenerateInput
from circlelens.families import LensFamily, select_family
from circlelens.geometry import Circle, power_of_point
from circlelens.pencils import Lens, Scene, enumerate_lenses, rich_lenses
from circlelens.quadfield import QuadNum, QuadPoint


def test_lift_circle():
    c = Circle(F(1), F(2), F(9))
    assert lift_circle(c) == type(lift_circle(c))(F(1), F(2), F(4))


def test_containment_transports():
    rng = random.Random(42)
    for _ in range(300):
        cx, cy = F(rng.randint(-9, 9), 3), F(rng.randint(-9, 9), 3)
        px, py = F(rng.randint(-9, 9), 3), F(rng.randint(-9, 9), 3)
        d2 = (px - cx) ** 2 + (py - cy) ** 2
        # choose r2 to put p exactly on the circle half the time
        on = rng.random() < 0.5 and d2 > 0
        r2 = d2 if on else d2 + F(rng.randint(1, 5))
        if r2 == 0:
            continue
        c = Circle(cx, cy, r2)
        star = lift_circle(c)
        plane = dual_plane((px, py))
        assert (power_of_point((px, py), c) == 0) == \
            plane.contains((star.x, star.y, star.z))


def test_containment_in_the_point_field():
    r2 = QuadNum.sqrt(2)
    axis = DualLine.of((F(0), F(0), F(0)), (F(1), F(0), F(0)))
    assert axis.contains((r2, 0, 0)) and not axis.contains((r2, r2, 0))
    plane = dual_plane((r2, F(0)))  # z = -2*sqrt(2)*x + 2
    assert plane.contains((r2, F(5), F(-2)))
    assert not plane.contains((r2, F(5), F(2)))
    assert plane.contains((F(0), F(7), F(2)))


def test_dual_line_canonical():
    l1 = DualLine.of((F(0), F(0), F(1)), (F(2), F(0), F(0)))
    l2 = DualLine.of((F(5), F(0), F(1)), (F(-1), F(0), F(0)))
    assert l1 == l2
    with pytest.raises(DegenerateInput):
        DualLine.of((F(0), F(0), F(0)), (F(0), F(0), F(0)))


def test_lens_line_worked_pencil(worked_pencil):
    (lens,) = enumerate_lenses(worked_pencil)
    line = lens_line(*lens.base)
    expected = DualLine.of((F(0), F(0), F(1)), (F(1), F(0), F(0)))
    assert line == expected
    for c in worked_pencil.circles:
        pt = lift_circle(c)
        assert line.contains((pt.x, pt.y, pt.z))


def test_lens_line_contains_lifts_on_corpus(corpus):
    for name, scene in corpus:
        for lens in enumerate_lenses(scene):
            line = lens_line(*lens.base)
            for cid in lens.circles:
                pt = lift_circle(scene.circles[cid])
                assert line.contains((pt.x, pt.y, pt.z)), (name, cid)


def test_lens_line_rejects_equal_points():
    with pytest.raises(DegenerateInput):
        lens_line((F(1), F(1)), (F(1), F(1)))


def test_lens_line_irrational_base():
    # base points of the lens of x^2+y^2=2 and (x-2)^2+y^2=2: (1, +-1)
    c1 = Circle(F(0), F(0), F(2))
    c2 = Circle(F(2), F(0), F(2))
    scene = Scene(circles=(c1, c2))
    (lens,) = enumerate_lenses(scene)
    line = lens_line(*lens.base)
    for c in (c1, c2):
        pt = lift_circle(c)
        assert line.contains((pt.x, pt.y, pt.z))


def _pencil_through(p, q, ts):
    """Circles through the conjugate or rational pair p, q: centers m + t*n
    on the perpendicular bisector, with n a rational normal of the chord."""
    mx, my = (p.x + q.x) / 2, (p.y + q.y) / 2
    hx, hy = (q.x - p.x) / 2, (q.y - p.y) / 2
    nx, ny = (-hy, hx) if hx.is_rational and hy.is_rational \
        else (-hy.b, hx.b)
    out = []
    for t in ts:
        cx, cy = mx + t * nx, my + t * ny
        r2 = (cx - p.x) * (cx - p.x) + (cy - p.y) * (cy - p.y)
        assert cx.is_rational and cy.is_rational and r2.is_rational
        out.append(Circle(cx.a, cy.a, r2.a))
    return out


@pytest.mark.parametrize("p, q", [
    ((F(1, 3), F(2)), (F(-4), F(5, 7))),
    ((QuadNum(1, 1, 2), QuadNum(2, -1, 2)), (QuadNum(1, -1, 2), QuadNum(2, 1, 2))),
    # one field in two forms: sqrt(8) = 2*sqrt(2)
    ((QuadNum(F(1, 2), 1, 8), QuadNum(3)), (QuadNum(F(1, 2), -2, 2), QuadNum(3))),
    ((QuadNum(0), QuadNum(1, 3, 5)), (QuadNum(0), QuadNum(1, -3, 5))),
])
def test_lens_line_contains_pencil_of_pair(p, q):
    p, q = QuadPoint(*p), QuadPoint(*q)
    line = lens_line(p, q)
    assert line == lens_line(q, p)
    assert all(isinstance(v, F) for v in line.anchor + line.direction)
    pencil = _pencil_through(p, q, [F(t, 3) for t in range(-4, 5)])
    # the pair as given and as enumeration writes it give one family
    scene = Scene(circles=tuple(pencil))
    (lens,) = enumerate_lenses(scene)
    family = select_family([Lens((p, q), lens.circles)], scene)
    assert family.certificate and family == select_family([lens], scene)
    for c in pencil:
        pt = lift_circle(c)
        assert line.contains((pt.x, pt.y, pt.z))
        assert dual_plane(p).contains((pt.x, pt.y, pt.z))
        assert dual_plane(q).contains((pt.x, pt.y, pt.z))


@pytest.mark.parametrize("p, q", [
    ((QuadNum.sqrt(2), 0), (QuadNum.sqrt(3), 0)),  # two fields
    ((QuadNum.sqrt(2), 0), (1 + QuadNum.sqrt(2), 0)),  # one field, not conjugate
    ((QuadNum.sqrt(2), 0), (F(1), F(0))),  # irrational with rational
    ((QuadNum(1, 1, 2), QuadNum(0, 1, 2)), (QuadNum(1, -1, 2), QuadNum(1, -1, 2))),
])
def test_lens_line_rejects_non_lens_pairs(p, q):
    with pytest.raises(DegenerateInput):
        lens_line(p, q)


@pytest.mark.parametrize("base, message", [
    (((QuadNum.sqrt(2), 0), (1 + QuadNum.sqrt(2), 0)), "must be conjugate"),
    (((QuadNum.sqrt(2), 0), (QuadNum.sqrt(3), 0)), "two quadratic fields"),
])
def test_audit_rejects_a_certified_family_of_non_lens_pairs(base, message):
    # a family built by hand skips enumeration and selection; the audit still
    # rejects a base pair that no lens can have
    scene = Scene(circles=(Circle(F(0), F(0), F(1)), Circle(F(1), F(1), F(1))))
    family = LensFamily(members=(Lens(base, (0, 1)),), certificate=True,
                        total_degree=2)
    with pytest.raises(DegenerateInput, match=message):
        coplanarity_audit(scene, family)


def test_lines_coplanar_cases():
    # two lines in the z = 0 plane plus one out of plane
    a = DualLine.of((F(0), F(0), F(0)), (F(1), F(0), F(0)))
    b = DualLine.of((F(0), F(1), F(0)), (F(1), F(1), F(0)))
    c = DualLine.of((F(0), F(2), F(0)), (F(1), F(0), F(0)))
    d = DualLine.of((F(0), F(0), F(1)), (F(1), F(0), F(1)))
    assert lines_coplanar(a, b, c)
    assert not lines_coplanar(a, b, d)
    # concurrent but non-coplanar at the origin
    x = DualLine.of((F(0), F(0), F(0)), (F(1), F(0), F(0)))
    y = DualLine.of((F(0), F(0), F(0)), (F(0), F(1), F(0)))
    z = DualLine.of((F(0), F(0), F(0)), (F(0), F(0), F(1)))
    assert not lines_coplanar(x, y, z)
    # three parallel lines, pairwise coplanar but not in one plane
    e = DualLine.of((F(0), F(0), F(1)), (F(1), F(0), F(0)))
    assert lines_coplanar(a, c, DualLine.of((F(0), F(5), F(0)), (F(2), F(0), F(0))))
    assert not lines_coplanar(a, c, e)
    # all identical
    assert lines_coplanar(a, a, a)
    # a skew pair: the x axis and a line along y at height 1
    skew = DualLine.of((F(0), F(0), F(1)), (F(0), F(1), F(0)))
    assert not lines_coplanar(a, skew, c)
    # a repeated line spans no plane: with a skew line, or one in its plane
    assert not lines_coplanar(a, a, skew)
    assert lines_coplanar(a, a, c)


def _concurrent_chord_scene():
    """Unit circle with three partner circles whose radical axes are chords
    concurrent at (1/5, 0)."""
    return Scene(circles=(Circle(F(0), F(0), F(1)),
                          Circle(F(0), F(1), F(2)),
                          Circle(F(-1), F(0), F(12, 5)),
                          Circle(F(-1, 2), F(1, 2), F(17, 10))))


def test_concurrent_chords_have_coplanar_lens_lines():
    scene = _concurrent_chord_scene()
    trio = [l for l in enumerate_lenses(scene) if 0 in l.circles]
    assert len(trio) == 3
    assert lines_coplanar(*(lens_line(*l.base) for l in trio))


def test_audit_flags_concurrent_configuration():
    scene = _concurrent_chord_scene()
    trio = tuple(l for l in enumerate_lenses(scene) if 0 in l.circles)
    forged = LensFamily(members=trio, certificate=True,
                        total_degree=sum(l.degree for l in trio))
    report = coplanarity_audit(scene, forged)
    assert not report.clean
    assert len(report.coplanar_triples) == 1
    assert report.coplanar_triples[0][0] == 0  # the shared circle


def test_audit_requires_certificate():
    scene = _concurrent_chord_scene()
    trio = tuple(l for l in enumerate_lenses(scene) if 0 in l.circles)
    uncertified = LensFamily(members=trio, certificate=False, total_degree=0)
    with pytest.raises(DegenerateInput):
        coplanarity_audit(scene, uncertified)


def test_honest_selection_avoids_the_violation():
    scene = _concurrent_chord_scene()
    lenses = rich_lenses(enumerate_lenses(scene), 2)
    family = select_family(lenses, scene, mode="exact")
    assert family.certificate
    report = coplanarity_audit(scene, family)
    assert report.clean


def test_audit_clean_on_corpus_families(corpus):
    for name, scene in corpus[:25]:
        lenses = rich_lenses(enumerate_lenses(scene), 2)
        family = select_family(lenses, scene, mode="greedy")
        report = coplanarity_audit(scene, family)
        assert report.clean, name


def _lattice_triple_scene(n=10, seed=3):
    """Circumcircles of seeded non-collinear triples of the 4 x 4 grid."""
    rng = random.Random(seed)
    grid = [(F(x), F(y)) for x in range(4) for y in range(4)]
    circles = set()
    while len(circles) < n:
        (ax, ay), (bx, by), (cx, cy) = rng.sample(grid, 3)
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if d == 0:
            continue
        sa, sb, sc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
        ux = (sa * (by - cy) + sb * (cy - ay) + sc * (ay - by)) / d
        uy = (sa * (cx - bx) + sb * (ax - cx) + sc * (bx - ax)) / d
        circles.add(Circle(ux, uy, (ax - ux) ** 2 + (ay - uy) ** 2))
    return Scene(circles=tuple(sorted(circles, key=lambda c: (c.cx, c.cy, c.r2))))


def _chords_concurrent(c, partners):
    """Planar oracle: the radical axes of c with each partner, as rows
    (a, b, e) of a*x + b*y + e = 0, meet in one point, possibly at infinity."""
    def axis(o):
        return (2 * (o.cx - c.cx), 2 * (o.cy - c.cy),
                c.cx ** 2 + c.cy ** 2 - c.r2 - (o.cx ** 2 + o.cy ** 2 - o.r2))
    (a1, b1, e1), (a2, b2, e2), (a3, b3, e3) = (axis(o) for o in partners)
    return (a1 * (b2 * e3 - e2 * b3) - b1 * (a2 * e3 - e2 * a3)
            + e1 * (a2 * b3 - b2 * a3)) == 0


@pytest.mark.parametrize("scene, verdicts", [
    (_lattice_triple_scene(), {True, False}),
    (_concurrent_chord_scene(), {True}),
], ids=["lattice-triples", "concurrent-chords"])
def test_lines_coplanar_matches_planar_oracle(scene, verdicts):
    # three lens lines through one lifted circle are coplanar iff the three
    # chords on that circle are concurrent or all parallel
    lenses = enumerate_lenses(scene)
    lines = {lens: lens_line(*lens.base) for lens in lenses}
    seen, irrational = set(), 0
    for cid, c in enumerate(scene.circles):
        through = [lens for lens in lenses if cid in lens.circles]
        for trio in itertools.islice(itertools.combinations(through, 3), 150):
            partners = [scene.circles[next(o for o in lens.circles if o != cid)]
                        for lens in trio]
            coplanar = lines_coplanar(*(lines[lens] for lens in trio))
            assert coplanar == _chords_concurrent(c, partners), (cid, trio)
            seen.add(coplanar)
            irrational += any(not lens.base[0].is_rational for lens in trio)
    assert seen == verdicts and irrational > 0


# -- the Fraction reference audit ---------------------------------------------

def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _ref_pair_plane(l1, l2):
    w = [b - a for a, b in zip(l1.anchor, l2.anchor)]
    normal = _cross(l1.direction, l2.direction)
    if _dot(normal, w):
        return None
    if not any(normal):
        normal = _cross(l1.direction, w)
        if not any(normal):
            return None
    return normal, _dot(normal, l1.anchor)


def _ref_holds_line(plane, line):
    normal, offset = plane
    return not _dot(normal, line.direction) and _dot(normal, line.anchor) == offset


def _ref_coplanar(l1, l2, l3):
    for a, b in ((l1, l2), (l1, l3), (l2, l3)):
        w = [y - x for x, y in zip(a.anchor, b.anchor)]
        if _dot(_cross(a.direction, b.direction), w):
            return False
    for a, b, c in ((l1, l2, l3), (l1, l3, l2), (l2, l3, l1)):
        plane = _ref_pair_plane(a, b)
        if plane is not None:
            return _ref_holds_line(plane, c)
    return True


def reference_audit(scene, family) -> AuditReport:
    """coplanarity_audit over the lines' Fraction fields and lift_circle."""
    report = AuditReport()
    members = list(family.members)
    lines = {lens: lens_line(*lens.base) for lens in members}
    by_circle = {}
    for lens in members:
        for cid in lens.circles:
            by_circle.setdefault(cid, []).append(lens)
    for cid, lenses in sorted(by_circle.items()):
        for trio in itertools.combinations(lenses, 3):
            if _ref_coplanar(*(lines[t] for t in trio)):
                report.coplanar_triples.append((cid, trio))
    lifted = [lift_circle(c) for c in scene.circles]
    for li, lj in itertools.combinations(members, 2):
        plane = _ref_pair_plane(lines[li], lines[lj])
        if plane is None:
            continue
        normal, offset = plane
        on = {cid for cid, pt in enumerate(lifted)
              if _dot(normal, (pt.x, pt.y, pt.z)) == offset}
        incidences = sum(1 for lens in members if _ref_holds_line(plane, lines[lens])
                         for cid in lens.circles if cid in on)
        if incidences > 2 * len(on):
            report.plane_violations.append(((li, lj), incidences, len(on)))
    return report


def _through_the_origin():
    """Five circles through (0, 0) and a forged certified family of the
    eight lenses based there: every lens line lies in the dual plane of the
    origin, z = 0."""
    scene = Scene(circles=tuple(Circle(F(x), F(y), F(x * x + y * y))
                                for x, y in ((1, 0), (0, 1), (2, 3), (-1, 2), (3, -1))))
    origin = QuadPoint(F(0), F(0))
    members = tuple(l for l in enumerate_lenses(scene) if origin in l.base)
    return scene, LensFamily(members=members, certificate=True,
                             total_degree=sum(l.degree for l in members))


def test_audit_reports_plane_violations():
    scene, family = _through_the_origin()
    assert len(family.members) == 8
    report = coplanarity_audit(scene, family)
    assert len(report.coplanar_triples) == 11
    assert len(report.plane_violations) == 28
    cid, trio = report.coplanar_triples[0]
    assert cid == 0 and [l.base[1] for l in trio] == [
        QuadPoint(F(2, 5), F(4, 5)), QuadPoint(F(1), F(1)),
        QuadPoint(F(9, 5), F(-3, 5))]
    (li, lj), incidences, circles = report.plane_violations[0]
    assert (li.circles, lj.circles, incidences, circles) == ((2, 3), (1, 2), 17, 5)
    assert li.base == (QuadPoint(F(-7, 5), F(21, 5)), QuadPoint(F(0), F(0)))
    assert report == reference_audit(scene, family)


def test_audit_matches_reference_on_forged_and_corpus_families(corpus):
    scene = _concurrent_chord_scene()
    for family in (LensFamily(members=tuple(enumerate_lenses(scene)),
                              certificate=True, total_degree=0),
                   select_family(rich_lenses(enumerate_lenses(scene), 2), scene,
                                 mode="exact")):
        assert coplanarity_audit(scene, family) == reference_audit(scene, family)
    for name, scene in corpus[::4]:
        lenses = enumerate_lenses(scene)
        for family in (select_family(rich_lenses(lenses, 2), scene, mode="greedy"),
                       LensFamily(members=tuple(lenses[:12]), certificate=True,
                                  total_degree=0)):
            assert coplanarity_audit(scene, family) == \
                reference_audit(scene, family), name


def test_dual_line_integer_form():
    line = lens_line(QuadPoint(QuadNum(F(1, 3), 2, 7), QuadNum(F(-1, 5), 3, 7)),
                     QuadPoint(QuadNum(F(1, 3), -2, 7), QuadNum(F(-1, 5), -3, 7)))
    anchor, direction, s = line.scaled
    assert s > 0 and all(isinstance(v, int) for v in anchor + direction)
    assert [F(v, s) for v in anchor] == list(line.anchor)
    assert [F(v, s) for v in direction] == list(line.direction)
    assert line == DualLine.of(line.anchor, line.direction)
