"""Deterministic scene generators: extremal pencil bundles and seeded models.

lattice-triples is the rich model: circumcircles of random grid triples share
many grid points, so its lenses reach degree 8 on a 4 x 4 grid, where the
uniform-random model rarely has a 3-rich lens.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from .errors import InvalidInput
from .geometry import Circle
from .pencils import Scene
from .quadfield import frac
from .records import FrozenRecord

MODELS = ("bundle", "uniform-random", "unit-circles-on-grid", "lattice-triples")


class GeneratorSpec(FrozenRecord):
    _fields = ("model", "n", "k", "seed", "spread")

    def __init__(self, model: str, n: int, k: int = 0, seed: int = 0,
                 spread: Fraction = Fraction(10)):
        if model not in MODELS:
            raise InvalidInput(f"unknown model {model!r}")
        if n < 1:
            raise InvalidInput("n must be positive")
        if model == "bundle" and (k < 2 or n % k):
            raise InvalidInput("bundle model requires k >= 2 and k | n")
        # the spread is the lattice-triples grid side, the uniform-random span
        least = {"lattice-triples": 3, "uniform-random": 1}.get(model)
        if least and (frac(spread).denominator != 1 or spread < least):
            raise InvalidInput(f"{model} needs an integer spread of at "
                               f"least {least}")
        self.__dict__.update(model=model, n=n, k=k, seed=seed,
                             spread=frac(spread))


class BundleDescriptor(FrozenRecord):
    """What the extremal construction promises: n/k pencils of degree k."""

    _fields = ("pencil_count", "degree", "bases")


def pencil_bundle_construction(n: int, k: int) -> tuple[Scene, BundleDescriptor]:
    """Union of n/k pencils of k circles each, every pencil through a common
    point pair.  Pencil i has base points (4ki, +-1) and circles centered at
    (4ki + a, 0) with squared radius a^2 + 1 for a = 0..k-1.  The 4k spacing
    exceeds twice the largest radius, so circles from distinct pencils are
    disjoint and the only lenses are the n/k pencil lenses of degree k."""
    if k < 2 or n < k or n % k:
        raise InvalidInput("bundle construction requires k >= 2 and k | n")
    circles = []
    bases = []
    for i in range(n // k):
        x0 = Fraction(4 * k * i)
        bases.append(((x0, Fraction(1)), (x0, Fraction(-1))))
        for a in range(k):
            circles.append(Circle(x0 + a, Fraction(0), Fraction(a * a + 1)))
    scene = Scene(circles=tuple(circles))
    return scene, BundleDescriptor(pencil_count=n // k, degree=k,
                                   bases=tuple(bases))


def _seeded_fraction(rng: random.Random, max_den: int = 8) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(-den, den)
    return Fraction(num, den * 4)


def _circumcircle(a, b, c) -> Circle | None:
    """The circle through three rational points, None if they are collinear."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0:
        return None
    sa, sb, sc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = Fraction(sa * (by - cy) + sb * (cy - ay) + sc * (ay - by), d)
    uy = Fraction(sa * (cx - bx) + sb * (ax - cx) + sc * (bx - ax), d)
    return Circle(ux, uy, (ax - ux) ** 2 + (ay - uy) ** 2)


def _lattice_triples(n: int, g: int, seed: int) -> Scene:
    """Circumcircles of random non-collinear triples of the g x g grid
    {0..g-1}^2, with the grid points as the scene's marked points.

    Triples are drawn with random.Random(seed).sample; collinear triples and
    repeated circles are skipped until n distinct circles are placed.  A 4 x 4
    grid has 223 distinct circumcircles, so the draws are capped and asking
    for more circles than the grid holds raises InvalidInput.
    """
    rng = random.Random(seed)
    pts = [(x, y) for x in range(g) for y in range(g)]
    circles: list[Circle] = []
    seen = set()
    draws = 0
    while len(circles) < n:
        if draws == 100 * n + 1000:
            raise InvalidInput(f"the {g} x {g} grid gave only {len(circles)} "
                               f"distinct circumcircles, not {n}")
        draws += 1
        c = _circumcircle(*rng.sample(pts, 3))
        if c is not None and c not in seen:
            seen.add(c)
            circles.append(c)
    return Scene(circles=tuple(circles), points=tuple(pts))


def random_scene(spec: GeneratorSpec) -> Scene:
    """Deterministic scene for a generator spec; rational coordinates only."""
    if spec.model == "bundle":
        scene, _ = pencil_bundle_construction(spec.n, spec.k)
        return scene
    if spec.model == "unit-circles-on-grid":
        side = max(1, isqrt(spec.n - 1) + 1)
        circles = []
        for idx in range(spec.n):
            i, j = divmod(idx, side)
            circles.append(Circle(Fraction(j), Fraction(i), Fraction(1)))
        return Scene(circles=tuple(circles))
    if spec.model == "lattice-triples":
        return _lattice_triples(spec.n, int(spec.spread), spec.seed)
    # uniform-random: integer lattice scaled by spread, plus a bounded-
    # denominator rational perturbation so predicates stay exact
    rng = random.Random(spec.seed)
    span = int(spec.spread)
    circles: list[Circle] = []
    seen = set()
    while len(circles) < spec.n:
        cx = Fraction(rng.randint(-span, span)) + _seeded_fraction(rng)
        cy = Fraction(rng.randint(-span, span)) + _seeded_fraction(rng)
        r2 = Fraction(rng.randint(1, 2 * span)) + abs(_seeded_fraction(rng))
        c = Circle(cx, cy, r2)
        if c not in seen:
            seen.add(c)
            circles.append(c)
    return Scene(circles=tuple(circles))
