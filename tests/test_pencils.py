import math
import random
import tracemalloc
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations
from pathlib import Path

import pytest

from circlelens import pencils
from circlelens.errors import (DegenerateInput, InvalidRichness,
                               OracleCapExceeded)
from circlelens.families import lens_cutting, verify_cut
from circlelens.generators import (GeneratorSpec, pencil_bundle_construction,
                                   random_scene)
from circlelens.geometry import Circle, circle_line_points, radical_axis
from circlelens.pencils import (ORACLE_CAP, Lens, Scene, base_text,
                                brute_force_lenses, enumerate_lenses,
                                lens_dirs, lens_vertices, rich_lenses)
from circlelens.quadfield import QuadNum, QuadPoint, Surd
from circlelens.sceneio import parse_scene


def test_scene_rejects_duplicates():
    c = Circle(F(0), F(0), F(1))
    with pytest.raises(DegenerateInput):
        Scene(circles=(c, c))


def test_lens_canonical_base_order():
    p = QuadPoint.of((F(0), F(1)))
    q = QuadPoint.of((F(0), F(-1)))
    lens = Lens((p, q), [2, 0, 1])
    assert lens.base == (q, p)  # q is smaller in (x, y) order
    assert lens.circles == (0, 1, 2)
    assert lens.degree == 3
    assert lens == Lens((q, p), (0, 1, 2))
    assert hash(lens) == hash(Lens((q, p), (0, 1, 2)))
    other = object()
    assert lens.__eq__(other) is NotImplemented
    assert lens != other and not lens == other
    # on one base pair, Lens.compare orders by circles
    a, b = Lens((p, q), (0, 1)), Lens((p, q), (0, 2))
    assert (a.compare(b), b.compare(a), a.compare(a)) == (-1, 1, 0)


def test_lens_validation():
    p = QuadPoint.of((F(0), F(1)))
    q = QuadPoint.of((F(0), F(-1)))
    with pytest.raises(DegenerateInput):
        Lens((p, p), [0, 1])
    with pytest.raises(DegenerateInput):
        Lens((p, q), [0])
    with pytest.raises(DegenerateInput):
        Lens((p, q), [0, 0])


def test_worked_pencil_single_merged_lens(worked_pencil):
    lenses = enumerate_lenses(worked_pencil)
    assert len(lenses) == 1
    (lens,) = lenses
    assert lens.degree == 3
    assert lens.circles == (0, 1, 2)
    assert lens.base == (QuadPoint.of((F(0), F(-1))),
                         QuadPoint.of((F(0), F(1))))


def test_two_disjoint_pencils():
    # pencil through (0, +-1) and pencil through (10, +-1)
    circles = (Circle(F(0), F(0), F(1)), Circle(F(1), F(0), F(2)),
               Circle(F(10), F(0), F(1)), Circle(F(11), F(0), F(2)))
    lenses = enumerate_lenses(Scene(circles=circles))
    assert [l.circles for l in lenses] == [(0, 1), (2, 3)]


def test_tangent_circles_make_no_lens():
    circles = (Circle(F(0), F(0), F(1)), Circle(F(2), F(0), F(1)))
    assert enumerate_lenses(Scene(circles=circles)) == []


def test_concentric_circles_make_no_lens():
    circles = (Circle(F(0), F(0), F(1)), Circle(F(0), F(0), F(4)))
    assert enumerate_lenses(Scene(circles=circles)) == []


def test_rich_lenses_filter_and_validation(worked_pencil):
    lenses = enumerate_lenses(worked_pencil)
    assert rich_lenses(lenses, 2) == lenses
    assert rich_lenses(lenses, 3) == lenses
    assert rich_lenses(lenses, 4) == []
    with pytest.raises(InvalidRichness):
        rich_lenses(lenses, 1)


def test_oracle_equivalence_on_corpus(corpus):
    for name, scene in corpus:
        if len(scene) > 30:
            continue
        assert enumerate_lenses(scene) == brute_force_lenses(scene), name


def test_oracle_cap():
    scene = random_scene(GeneratorSpec(model="unit-circles-on-grid",
                                       n=ORACLE_CAP + 1))
    assert len(scene) == 65
    with pytest.raises(OracleCapExceeded, match="^oracle capped at 64 circles$"):
        brute_force_lenses(scene)


def test_enumeration_deterministic(corpus):
    # a fresh Scene with equal circles enumerates anew
    for name, scene in corpus[:10]:
        again = Scene(circles=scene.circles, points=scene.points)
        assert enumerate_lenses(scene) == enumerate_lenses(again), name


def test_canonical_order_sorted(corpus):
    for name, scene in corpus[:15]:
        lenses = enumerate_lenses(scene)
        for a, b in zip(lenses, lenses[1:]):
            assert a.compare(b) < 0, name


def test_enumeration_built_once_per_scene(monkeypatch):
    # the build keys each circle pair once, by its integer radical axis
    scene = random_scene(GeneratorSpec(model="unit-circles-on-grid", n=12,
                                       seed=3))
    before = (repr(scene), hash(scene))
    axes, builds = [], []

    def counted_axis(u, v):
        axes.append((u, v))
        return real_axis(u, v)

    def counted_build(s, k):
        builds.append(s)
        return real_build(s, k)

    real_axis, real_build = pencils._scaled_axis, pencils._build_lenses
    monkeypatch.setattr(pencils, "_scaled_axis", counted_axis)
    monkeypatch.setattr(pencils, "_build_lenses", counted_build)
    pairs = len(scene) * (len(scene) - 1) // 2

    lenses = enumerate_lenses(scene)
    result = lens_cutting(scene, 2)
    assert result.cut_count > 0 and verify_cut(scene, result)
    assert len(builds) == 1 and len(axes) == pairs
    # the kept lenses are outside the record's fields
    assert (repr(scene), hash(scene)) == before

    # a returned list is the caller's own, and its lenses cannot change
    with pytest.raises(AttributeError):
        lenses[0].circles = (0, 1)
    with pytest.raises(AttributeError):
        del lenses[0].circles
    expected = list(lenses)
    lenses.clear()
    lenses = enumerate_lenses(scene)
    assert lenses == expected == brute_force_lenses(scene)
    lenses.append(lenses[0])
    assert enumerate_lenses(scene) == expected
    assert len(builds) == 1 and len(axes) == pairs

    # an equal but distinct Scene has lenses of its own
    fresh = Scene(circles=scene.circles, points=scene.points)
    assert fresh == scene
    assert enumerate_lenses(fresh) == expected
    assert len(builds) == 2 and len(axes) == 2 * pairs


def _assert_matches_oracle(scene: Scene) -> list[Lens]:
    """Enumeration equals the oracle, base points written over the same
    radicands (repr), and is sorted by Lens.compare."""
    lenses = enumerate_lenses(scene)
    oracle = brute_force_lenses(scene)
    assert lenses == oracle
    assert [repr(l.base) for l in lenses] == [repr(l.base) for l in oracle]
    assert all(a.compare(b) < 0 for a, b in zip(lenses, lenses[1:]))
    return lenses


@pytest.mark.parametrize("n,g", [(32, 3), (32, 4), (48, 4), (64, 4)])
def test_oracle_equivalence_on_lattice_scenes(n, g):
    # a 3 x 3 grid has only 34 circumcircles, so n = 48 and 64 use g = 4;
    # at n = 64 lenses reach degree 6
    scene = random_scene(GeneratorSpec(model="lattice-triples", n=n, seed=1,
                                       spread=F(g)))
    lenses = _assert_matches_oracle(scene)
    assert max(l.degree for l in lenses) >= 3
    assert any(not l.base[0].is_rational for l in lenses)


def _c(cx, cy, r2) -> Circle:
    return Circle(F(cx), F(cy), F(r2))


def test_tangent_pairs_share_no_lens():
    # A and B touch externally at (1, 0), D touches both there (inside A);
    # E crosses A at (0, 1), (1, 0) and B at (1, 0), (2, 1)
    a, b, d, e = _c(0, 0, 1), _c(2, 0, 1), _c(F(1, 2), 0, F(1, 4)), _c(1, 1, 1)
    lenses = _assert_matches_oracle(Scene(circles=(a, b, d, e)))
    assert [l.circles for l in lenses] == [(0, 3), (2, 3), (1, 3)]
    one_zero = QuadPoint.of((F(1), F(0)))
    assert lenses[0].base == (QuadPoint.of((F(0), F(1))), one_zero)
    assert lenses[2].base == (one_zero, QuadPoint.of((F(2), F(1))))


def test_concentric_circles_share_no_lens():
    # three circles about the origin, crossed by one off-center circle on
    # the chords x = 1/4, 1 and 9/4
    circles = (_c(0, 0, 1), _c(0, 0, 4), _c(0, 0, 9), _c(2, 0, 4))
    lenses = _assert_matches_oracle(Scene(circles=circles))
    assert [l.circles for l in lenses] == [(0, 3), (1, 3), (2, 3)]
    assert [l.base[0].x for l in lenses] == [F(1, 4), 1, F(9, 4)]


def test_many_circles_through_one_pair():
    # seven circles through (0, +-1), one of them on the diameter, and four
    # through (0, 1) and (1, 0), one on the diameter; the pencils share the
    # point (0, 1) and the unit circle (3), which passes through all three
    first = [_c(t, 0, t * t + 1) for t in range(-3, 4)]
    second = [_c(s, s, s * s + (s - 1) ** 2) for s in (-1, F(1, 2), 2, 3)]
    lenses = _assert_matches_oracle(Scene(circles=tuple(first + second)))
    by_degree = sorted(lenses, key=lambda l: -l.degree)
    assert by_degree[0].circles == tuple(range(7))
    assert by_degree[0].base == (QuadPoint.of((F(0), F(-1))),
                                 QuadPoint.of((F(0), F(1))))
    assert by_degree[1].circles == (3, 7, 8, 9, 10)
    assert by_degree[1].base == (QuadPoint.of((F(0), F(1))),
                                 QuadPoint.of((F(1), F(0))))
    assert all(l.degree == 2 for l in by_degree[2:])


def test_pencils_sharing_one_axis_match_the_oracle():
    # circles x^2 + y^2 - 2ty + C = 0, center (0, t) and r^2 = t^2 - C: each
    # C is one pencil on the axis y = 0, through (+-sqrt(-C), 0) for C < 0,
    # missing the axis for C = 1 and tangent to it at the origin for C = 0;
    # four more circles cross them.  Every member of a pencil buckets the
    # same axis, so only the one it was found from may read it
    pencils_by_c = {-1: (0, F(1, 2), 1, 2, 3), -4: (0, 1, 2, 5),
                    1: (2, 3, 4), 0: (1, 2, 3)}
    circles = [_c(0, t, t * t - c) for c, ts in pencils_by_c.items()
               for t in ts]
    circles += [_c(0, 1, 9), _c(0, 1, 16), _c(1, 0, 1), _c(3, 0, 4)]
    for seed in range(5):
        random.Random(seed).shuffle(circles)
        oracle = brute_force_lenses(Scene(circles=tuple(circles)))
        counts = []
        for k in (2, 3, 4, 5):
            lenses = enumerate_lenses(Scene(circles=tuple(circles)), k)
            assert lenses == rich_lenses(oracle, k), (seed, k)
            counts.append(len(lenses))
        assert counts == [84, 7, 2, 1], seed


def test_large_coprime_denominators():
    # Pencils through m +- h*sqrt(3) and through two rational points, with
    # circle parameters over pairwise-coprime primes, so the scene's common
    # denominator L is large, and circles off both pencils.
    m, h = (F(1, 3), F(2, 5)), (1, 2)
    ts = (F(1, 101), F(-2, 103), F(3, 107), F(5, 109))
    circles = [_c(m[0] - t * h[1], m[1] + t * h[0], (t * t + 3) * 5) for t in ts]
    circles += [_c(F(u, p), F(1, 2), F(u, p) ** 2 + F(5, 4))
                for u, p in ((1, 113), (-4, 127), (7, 131))]
    circles += [_c(F(1, 137), F(-1, 139), F(17, 149)),
                _c(F(2, 151), F(3, 157), F(5, 163))]
    scene = Scene(circles=tuple(circles))
    lenses = _assert_matches_oracle(scene)
    assert sorted(l.degree for l in lenses)[-2:] == [3, 4]
    # some radical axis, written over the scaled integer coordinates, has a
    # content that its original integer form lacks
    scale = math.lcm(*(q.denominator for c in circles for q in (c.cx, c.cy, c.r2)))
    contents = []
    for c1, c2 in combinations(circles, 2):
        axis = radical_axis(c1, c2)
        contents.append(math.gcd(axis.a, axis.b, axis.c * scale))
    assert max(contents) > 1


@pytest.mark.parametrize("centres", [
    ((0, 0, 5), (1, 1, 5)),  # axis x + y - 1 = 0: b > 0
    ((0, 0, 5), (1, -1, 5)),  # x - y - 1 = 0: b < 0
    ((0, 0, 2), (2, 0, 2)),  # x = 1, a vertical chord: b = 0
    ((0, 0, 3), (2, 0, 3)),  # x = 1 again, base points irrational
    ((0, 0, 3), (0, 2, 3)),  # y = 1, a horizontal chord: a = 0, b > 0
    ((F(1, 3), F(-2, 7), 4), (F(-5, 11), F(3, 13), 3)),
])
def test_chord_points_order_follows_the_sign_of_b(centres):
    # the rule the enumeration orders base pairs by, without comparing them:
    # chord_points gives the points in increasing order iff b > 0
    c1, c2 = (_c(*c) for c in centres)
    axis = radical_axis(c1, c2)
    p, q = circle_line_points(c1, axis)
    assert (p.compare(q) < 0) == (axis.b > 0)
    (lens,) = enumerate_lenses(Scene(circles=(c1, c2)))
    assert set(lens.base) == {p, q}
    assert lens.base[0].compare(lens.base[1]) < 0


@pytest.mark.parametrize("n,seed", [(48, 1), (64, 2)])
def test_enumerated_base_points_increase(n, seed):
    scene = random_scene(GeneratorSpec(model="lattice-triples", n=n, seed=seed,
                                       spread=F(4)))
    lenses = enumerate_lenses(scene)
    for lens in lenses:
        assert lens.base[0].compare(lens.base[1]) < 0, lens
        # the checked constructor agrees on base and circles
        checked = Lens(lens.base[::-1], reversed(lens.circles))
        assert checked.base == lens.base and checked.circles == lens.circles
    assert {l.base[0].is_rational for l in lenses} == {True, False}


def test_fast_path_beyond_the_oracle_cap():
    # 120 circles, past brute_force_lenses' cap: every lens against its
    # definition
    scene = random_scene(GeneratorSpec(model="lattice-triples", n=120, seed=1,
                                       spread=F(4)))
    lenses = enumerate_lenses(scene)
    assert max(l.degree for l in lenses) >= 6
    for lens in lenses:
        c0, c1 = (scene.circles[i] for i in lens.circles[:2])
        expected = sorted(circle_line_points(c0, radical_axis(c0, c1)),
                          key=cmp_to_key(QuadPoint.compare))
        assert repr(lens.base) == repr(tuple(expected)), lens
    assert all(a.compare(b) < 0 for a, b in zip(lenses, lenses[1:]))
    assert {l.base[0].is_rational for l in lenses} == {True, False}


def test_enumeration_memory_scales_with_its_output():
    # each circle buckets only the circles after it, so the peak is the
    # kept lenses plus one circle's buckets, not every pair of the scene
    scene = random_scene(GeneratorSpec(model="lattice-triples", n=240, seed=1,
                                       spread=F(5)))
    pencils.scene_frame(scene)
    tracemalloc.start()
    try:
        lenses = enumerate_lenses(scene, 3)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lenses and peak <= 3 * retained, (peak, retained)


DATA = Path(__file__).parent / "data"


def _rich_scenes():
    """Factories of fresh, equal scenes: the tests/data scenes, a bundle and
    a lattice-triple scene with lenses of degree 2 to 6."""
    texts = {path.stem: path.read_text() for path in sorted(DATA.glob("*.scene"))}
    out = {name: (lambda text=text: parse_scene(text))
           for name, text in texts.items()}
    out["bundle-20-4"] = lambda: pencil_bundle_construction(20, 4)[0]
    out["lattice-64-g4-s2"] = lambda: random_scene(GeneratorSpec(
        model="lattice-triples", n=64, seed=2, spread=F(4)))
    return out


RICH_SCENES = _rich_scenes()


@pytest.mark.parametrize("name", sorted(RICH_SCENES))
def test_enumerate_k_is_the_rich_part_of_the_full_enumeration(name):
    full = enumerate_lenses(RICH_SCENES[name]())
    for k in (2, 3, 4, 5):
        lenses = enumerate_lenses(RICH_SCENES[name](), k)
        expected = rich_lenses(full, k)
        assert lenses == expected, (name, k)
        assert [repr(l.base) for l in lenses] == [repr(l.base) for l in expected]


def test_enumerate_k_validates_richness():
    scene = RICH_SCENES["bundle-n12-k3"]()
    for k in (1, 0, -3):
        with pytest.raises(InvalidRichness):
            enumerate_lenses(scene, k)


@pytest.mark.parametrize("order", [(4, 3, 2), (2, 4), (3, 3), (5, 3, 4, 2)])
def test_requests_of_any_k_on_one_scene(order):
    # a k no smaller than any before filters the kept lenses, the same
    # objects; a smaller k builds equal lenses anew, and the ones kept before
    # are no longer the scene's own.  An own lens's index is its position,
    # and every kept vertex record equals a fresh one
    scene = RICH_SCENES["lattice-64-g4-s2"]()
    full = enumerate_lenses(RICH_SCENES["lattice-64-g4-s2"]())
    # an equal scene's lenses, at the same indices, are not this one's own
    enumerate_lenses(scene)
    assert not any(pencils._own(scene, lens) for lens in full)
    scene = RICH_SCENES["lattice-64-g4-s2"]()
    kept = {}
    for step, k in enumerate(order):
        lenses = enumerate_lenses(scene, k)
        assert lenses == rich_lenses(full, k), (order, k)
        if step and k >= min(order[:step]):
            assert all(kept[lens.base] is lens for lens in lenses)
        else:
            old = list(kept.values())
            kept = {lens.base: lens for lens in lenses}
            for lens in old[::7]:
                assert not pencils._own(scene, lens)
                vertices = lens_vertices(scene, lens)
                assert vertices is not lens._vertices
                assert vertices == pencils._vertices(scene, lens)
        for i, lens in enumerate(enumerate_lenses(scene, min(order[:step + 1]))):
            assert pencils._own(scene, lens) and lens._index == i
        for lens in lenses[::7]:
            record = lens_vertices(scene, lens)
            assert lens_vertices(scene, lens) is record is lens._vertices
            assert record == pencils._vertices(scene, lens)


def test_enumeration_breaks_a_prefix_tie_exactly(monkeypatch):
    # chords at x = 1/3 (circles 0, 1) and x = 1/3 + 2^-40 (circles 2, 3)
    # share floor(2^32*x), and the second chord's lower base point lies
    # lower, so an order read from the prefixes alone would put it first
    scene = parse_scene((DATA / "prefix-tie-n4.scene").read_text())
    compared = []
    real = Surd._sign

    def counted(self, other):
        compared.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Surd, "_sign", counted)
    lenses = enumerate_lenses(scene)
    assert compared
    assert [l.circles for l in lenses] == [(0, 3), (0, 1), (2, 3), (1, 2)]
    (p1, _), (p2, _) = lenses[1].base, lenses[2].base
    assert (p1.x.a, p2.x.a) == (F(1, 3), F(1, 3) + F(1, 2 ** 40))
    assert math.floor(p1.x.a * 2 ** 32) == math.floor(p2.x.a * 2 ** 32)
    assert p2.y < p1.y
    assert lenses == sorted(lenses, key=cmp_to_key(Lens.compare))
    assert lenses == brute_force_lenses(scene)


def _ray(v):
    """An IntDir reduced by the gcd of its parts: equal for positive
    multiples of one direction over one radicand."""
    g = math.gcd(*v[:4])
    return (*(x // g for x in v[:4]), v[4])


@pytest.mark.parametrize("name", sorted(RICH_SCENES))
def test_records_agree_with_the_checked_path(name):
    # every enumerated lens against an equal one built apart, which builds
    # its record from its base pair (cleared_parts) and is not the scene's
    # own, so its points are tested on each circle
    scene = RICH_SCENES[name]()
    lenses = enumerate_lenses(scene)
    dirs = [lens_dirs(scene, lens) for lens in lenses]
    vertices = [lens_vertices(scene, lens) for lens in lenses]
    texts = [base_text(lens) for lens in lenses]
    assert all(lens._base is None for lens in lenses)  # none read so far
    for lens, own_dirs, own_vertices, text in zip(lenses, dirs, vertices, texts):
        apart = Lens(lens.base, lens.circles)
        assert text == base_text(apart) == [str(v) for p in apart.base
                                            for v in p]
        assert not pencils._own(scene, apart)
        assert lens_vertices(scene, apart) == own_vertices
        assert [tuple(map(_ray, pair)) for pair in lens_dirs(scene, apart)] \
            == [tuple(map(_ray, pair)) for pair in own_dirs]
        assert apart == lens and hash(apart) == hash(lens)
        assert repr(apart) == repr(lens)
        assert repr(apart.base) == repr(lens.base)


def test_base_text_prints_a_pair_built_apart_over_one_radicand():
    # p and q of a lens built apart may write one field two ways, sqrt(2)
    # and sqrt(2*1009^2) (1009 is past the primes a printed radicand drops);
    # the record writes both over the first radicand, the same values
    root = QuadNum(0, 1, 2 * 1009 ** 2)
    lens = Lens(((0, root), (1, QuadNum.sqrt(2))), (0, 1))
    assert [str(v) for p in lens.base for v in p] == ["0", "1*sqrt(2036162)",
                                                      "1", "1*sqrt(2)"]
    assert base_text(lens) == ["0", "1*sqrt(2036162)", "1",
                               "1/1009*sqrt(2036162)"]
    assert QuadNum(0, F(1, 1009), 2 * 1009 ** 2) == QuadNum.sqrt(2)
