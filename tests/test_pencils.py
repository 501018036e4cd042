from fractions import Fraction as F

import pytest

from circlelens import pencils
from circlelens.errors import (DegenerateInput, InvalidRichness,
                               OracleCapExceeded)
from circlelens.families import lens_cutting, verify_cut
from circlelens.generators import GeneratorSpec, random_scene
from circlelens.geometry import Circle
from circlelens.pencils import (Lens, Scene, brute_force_lenses,
                                enumerate_lenses, rich_lenses)
from circlelens.quadfield import QuadPoint


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
    scene = random_scene(GeneratorSpec(model="uniform-random", n=8, seed=3))
    with pytest.raises(OracleCapExceeded):
        brute_force_lenses(scene, cap=4)


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
    scene = random_scene(GeneratorSpec(model="unit-circles-on-grid", n=12,
                                       seed=3))
    before = (repr(scene), hash(scene))
    axes, builds = [], []

    def counted_axis(c1, c2):
        axes.append((c1, c2))
        return real_axis(c1, c2)

    def counted_build(s):
        builds.append(s)
        return real_build(s)

    real_axis, real_build = pencils.radical_axis, pencils._build_lenses
    monkeypatch.setattr(pencils, "radical_axis", counted_axis)
    monkeypatch.setattr(pencils, "_build_lenses", counted_build)
    pairs = len(scene) * (len(scene) - 1) // 2

    lenses = enumerate_lenses(scene)
    result = lens_cutting(scene, 2)
    assert result.cut_count > 0 and verify_cut(scene, result)
    assert len(builds) == 1 and len(axes) == pairs
    # the kept lenses are outside the dataclass fields
    assert (repr(scene), hash(scene)) == before

    # a returned list is the caller's own, and its lenses cannot change
    with pytest.raises(AttributeError):
        lenses[0].circles = (0, 1)
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
