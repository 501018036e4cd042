from fractions import Fraction as F

import pytest

from circlelens.errors import InvalidInput
from circlelens.generators import (MODELS, GeneratorSpec,
                                   pencil_bundle_construction, random_scene)
from circlelens.geometry import power_of_point
from circlelens.pencils import enumerate_lenses, rich_lenses


def test_spec_validation():
    with pytest.raises(InvalidInput):
        GeneratorSpec(model="hexagonal", n=10)
    with pytest.raises(InvalidInput):
        GeneratorSpec(model="bundle", n=10, k=3)  # k does not divide n
    with pytest.raises(InvalidInput):
        GeneratorSpec(model="bundle", n=10, k=1)
    with pytest.raises(InvalidInput):
        GeneratorSpec(model="uniform-random", n=0)
    with pytest.raises(InvalidInput):
        GeneratorSpec(model="lattice-triples", n=10, spread=F(7, 2))
    with pytest.raises(InvalidInput):
        GeneratorSpec(model="lattice-triples", n=1, spread=F(2))
    for spread in (F(-5), F(0), F(1, 2)):
        with pytest.raises(InvalidInput):
            GeneratorSpec(model="uniform-random", n=5, spread=spread)
    assert GeneratorSpec(model="uniform-random", n=5, spread=F(1)).spread == 1
    assert set(MODELS) == {"bundle", "uniform-random", "unit-circles-on-grid",
                           "lattice-triples"}


def test_bundle_descriptor_promises():
    scene, desc = pencil_bundle_construction(12, 3)
    assert desc.pencil_count == 4
    assert desc.degree == 3
    assert len(scene) == 12
    # every promised base point lies on exactly k circles
    for p, q in desc.bases:
        for pt in (p, q):
            assert sum(1 for c in scene.circles
                       if power_of_point(pt, c) == 0) == 3


def test_bundle_tightness():
    for n, k in ((12, 3), (20, 4), (24, 2), (30, 5)):
        scene, desc = pencil_bundle_construction(n, k)
        lenses = rich_lenses(enumerate_lenses(scene), k)
        assert len(lenses) == n // k
        assert all(l.degree == k for l in lenses)


def test_bundle_invalid_args():
    with pytest.raises(InvalidInput):
        pencil_bundle_construction(10, 1)
    with pytest.raises(InvalidInput):
        pencil_bundle_construction(10, 4)


def test_uniform_random_deterministic():
    spec = GeneratorSpec(model="uniform-random", n=15, seed=9)
    assert random_scene(spec) == random_scene(spec)
    other = GeneratorSpec(model="uniform-random", n=15, seed=10)
    assert random_scene(spec) != random_scene(other)


def test_uniform_random_counts_and_rationality():
    scene = random_scene(GeneratorSpec(model="uniform-random", n=25, seed=2))
    assert len(scene) == 25
    assert len(set(scene.circles)) == 25
    for c in scene.circles:
        assert isinstance(c.cx, F) and c.r2 > 0


def test_grid_layout():
    scene = random_scene(GeneratorSpec(model="unit-circles-on-grid", n=9))
    assert len(scene) == 9
    assert all(c.r2 == 1 for c in scene.circles)
    centers = {(c.cx, c.cy) for c in scene.circles}
    assert centers == {(F(j), F(i)) for i in range(3) for j in range(3)}


def test_bundle_via_random_scene():
    spec = GeneratorSpec(model="bundle", n=12, k=3)
    scene = random_scene(spec)
    ref, _ = pencil_bundle_construction(12, 3)
    assert scene == ref


def test_lattice_triples_circles_pass_through_grid_points():
    spec = GeneratorSpec(model="lattice-triples", n=30, seed=4, spread=F(4))
    scene = random_scene(spec)
    assert scene == random_scene(spec)
    assert scene != random_scene(
        GeneratorSpec(model="lattice-triples", n=30, seed=5, spread=F(4)))
    assert len(scene) == 30 and len(set(scene.circles)) == 30
    grid = {(F(x), F(y)) for x in range(4) for y in range(4)}
    assert set(scene.points) == grid
    for c in scene.circles:
        assert sum(1 for p in grid if power_of_point(p, c) == 0) >= 3
    assert max(lens.degree for lens in enumerate_lenses(scene)) >= 4


def test_lattice_triples_runs_out_of_circles():
    # a 3 x 3 grid has 34 distinct circumcircles
    assert len(random_scene(GeneratorSpec(model="lattice-triples", n=34,
                                          spread=F(3)))) == 34
    with pytest.raises(InvalidInput, match="only 34"):
        random_scene(GeneratorSpec(model="lattice-triples", n=35, spread=F(3)))
