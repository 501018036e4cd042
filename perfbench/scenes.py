"""The benchmark's own scene generators and workload definitions.

Scenes are plain data here: circles are (cx, cy, r2) triples of Fractions and
marked points are (x, y) pairs.  Nothing in this module imports the program,
so the checks in checks.py can compare the program's outputs against inputs
the program never produced.

Every workload holds scenes drawn by a fixed generator seed; the benchmark's
--seed shuffles the order of each scene's circles and marked points.  The
geometry, and with it each lens, family and fault, is the same for every
seed, while the files the program reads differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SceneSpec:
    name: str
    circles: tuple  # ((cx, cy, r2), ...) as Fractions
    points: tuple = ()  # ((x, y), ...) as Fractions

    def text(self) -> str:
        """The scene in the program's line format."""
        lines = [f"circle {cx} {cy} {r2}" for cx, cy, r2 in self.circles]
        lines += [f"point {x} {y}" for x, y in self.points]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    stages: tuple  # pipeline stage names, in order
    scenes: tuple  # SceneSpec, in the order the program sees them


# -- generators ---------------------------------------------------------------

def circumcircle(a, b, c):
    """(cx, cy, r2) of the circle through three points, None if collinear."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0:
        return None
    sa, sb, sc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = Fraction(sa * (by - cy) + sb * (cy - ay) + sc * (ay - by), d)
    uy = Fraction(sa * (cx - bx) + sb * (ax - cx) + sc * (bx - ax), d)
    return ux, uy, (ax - ux) ** 2 + (ay - uy) ** 2


def grid_points(g: int) -> tuple:
    return tuple((Fraction(x), Fraction(y)) for x in range(g) for y in range(g))


def lattice_triples(n: int, g: int, seed: int) -> tuple:
    """Circumcircles of random non-collinear triples of the g x g grid.

    Triples are drawn with random.Random(seed).sample; collinear triples and
    repeated circles are skipped until n distinct circles are placed.
    """
    rng = random.Random(seed)
    pts = [(x, y) for x in range(g) for y in range(g)]
    circles, seen = [], set()
    while len(circles) < n:
        c = circumcircle(*rng.sample(pts, 3))
        if c is not None and c not in seen:
            seen.add(c)
            circles.append(c)
    return tuple(circles)


def _small_fraction(rng: random.Random) -> Fraction:
    den = rng.randint(1, 8)
    return Fraction(rng.randint(-den, den), den * 4)


def uniform_random(n: int, seed: int, spread: int) -> tuple:
    """The uniform-random model: lattice centres scaled by spread plus small
    rational offsets, squared radii in [1, 2*spread]."""
    rng = random.Random(seed)
    circles, seen = [], set()
    while len(circles) < n:
        cx = Fraction(rng.randint(-spread, spread)) + _small_fraction(rng)
        cy = Fraction(rng.randint(-spread, spread)) + _small_fraction(rng)
        r2 = Fraction(rng.randint(1, 2 * spread)) + abs(_small_fraction(rng))
        if (cx, cy, r2) not in seen:
            seen.add((cx, cy, r2))
            circles.append((cx, cy, r2))
    return tuple(circles)


# -- workloads ----------------------------------------------------------------

RANDOM_N, RANDOM_SEEDS, RANDOM_SPREAD = 28, (1, 2, 3), 6
LATTICE_N, LATTICE_GRID, LATTICE_SEED = 120, 4, 1

STAGES = {
    "random-k2": ("enumerate", "family", "audit", "order", "cut", "verify"),
    "lattice-rich": ("enumerate", "family", "audit", "order", "cut", "verify",
                     "szekely"),
}


def _shuffled(name, circles, points, rng) -> SceneSpec:
    circles, points = list(circles), list(points)
    rng.shuffle(circles)
    rng.shuffle(points)
    return SceneSpec(name, tuple(circles), tuple(points))


def workload(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "random-k2":
        scenes = tuple(
            _shuffled(f"uniform-n{RANDOM_N}-s{s}",
                      uniform_random(RANDOM_N, s, RANDOM_SPREAD), (), rng)
            for s in RANDOM_SEEDS)
        return Workload(name, 2, STAGES[name], scenes)
    if name == "lattice-rich":
        circles = lattice_triples(LATTICE_N, LATTICE_GRID, LATTICE_SEED)
        scene = _shuffled(f"lattice-n{LATTICE_N}-g{LATTICE_GRID}-s{LATTICE_SEED}",
                          circles, grid_points(LATTICE_GRID), rng)
        return Workload(name, 3, STAGES[name], (scene,))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = tuple(STAGES)
