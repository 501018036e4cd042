"""Shared scene corpus: extremal bundles, grids, lattice-triple scenes,
seeded random arrangements and hand-built pencils.  Everything is
deterministic so frozen expectations stay valid run to run."""

from __future__ import annotations

from fractions import Fraction

import pytest

from circlelens.generators import (GeneratorSpec, pencil_bundle_construction,
                                   random_scene)
from circlelens.geometry import Circle
from circlelens.pencils import Scene


def _worked_pencil() -> Scene:
    # three circles through (0, +-1): centers (0,0), (1,0), (2,0)
    return Scene(circles=(Circle(Fraction(0), Fraction(0), Fraction(1)),
                          Circle(Fraction(1), Fraction(0), Fraction(2)),
                          Circle(Fraction(2), Fraction(0), Fraction(5))))


def _concentric_pair() -> Scene:
    return Scene(circles=(Circle(Fraction(0), Fraction(0), Fraction(1)),
                          Circle(Fraction(0), Fraction(0), Fraction(4)),
                          Circle(Fraction(3), Fraction(0), Fraction(1))))


def build_corpus() -> list[tuple[str, Scene]]:
    corpus: list[tuple[str, Scene]] = []
    for n, k in ((12, 3), (20, 4), (24, 2), (30, 5), (10, 5), (8, 2), (18, 3)):
        scene, _ = pencil_bundle_construction(n, k)
        corpus.append((f"bundle-{n}-{k}", scene))
    for n in (4, 9, 16, 25):
        corpus.append((f"grid-{n}", random_scene(
            GeneratorSpec(model="unit-circles-on-grid", n=n))))
    # circumcircles of grid triples: rational and 3-rich lenses, which the
    # uniform scenes almost never hold
    for n, seed, spread in ((12, 1, 3), (18, 2, 4), (24, 3, 4)):
        corpus.append((f"lattice-{n}-s{seed}", random_scene(
            GeneratorSpec(model="lattice-triples", n=n, seed=seed,
                          spread=Fraction(spread)))))
    for seed in range(35):
        n = 6 + seed % 7
        corpus.append((f"random-{n}-s{seed}", random_scene(
            GeneratorSpec(model="uniform-random", n=n, seed=seed))))
    corpus.append(("worked-pencil", _worked_pencil()))
    corpus.append(("concentric", _concentric_pair()))
    for seed in (100, 101, 102, 103):
        corpus.append((f"random-wide-s{seed}", random_scene(
            GeneratorSpec(model="uniform-random", n=10, seed=seed,
                          spread=Fraction(4)))))
    return corpus


_CORPUS = build_corpus()

# pass/fail lines from the acceptance tests, flushed after capture ends
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, Scene]]:
    assert len(_CORPUS) >= 50
    return _CORPUS


@pytest.fixture(scope="session")
def worked_pencil() -> Scene:
    return _worked_pencil()
