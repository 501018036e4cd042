"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture so the lines
always show up in the run log) and then asserts, so a failing criterion is
both visible and red.
"""

import math
import random
import time
from fractions import Fraction as F

from circlelens.bounds import bound_eval, dyadic_degree_sum, recurrence_certify
from circlelens.dual import (coplanarity_audit, dual_plane, lens_line,
                             lift_circle, lines_coplanar, DualLine)
from circlelens.errors import Inconclusive
from circlelens.families import LensFamily, lens_cutting, select_family, verify_cut
from circlelens.generators import (GeneratorSpec, pencil_bundle_construction,
                                   random_scene)
from circlelens.geometry import Circle, power_of_point
from circlelens.incidence import szekely_stats
from circlelens.pencils import (Scene, brute_force_lenses, enumerate_lenses,
                                rich_lenses)
from circlelens.slopes import order_reversal_check

import conftest
from conftest import build_corpus

CORPUS = build_corpus()


def report(idx, name, ok, detail=""):
    line = f"ACCEPTANCE {idx:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_extremal_tightness():
    start = time.time()
    ok = True
    for n, k in ((12, 3), (20, 4), (24, 2), (30, 5)):
        scene, _ = pencil_bundle_construction(n, k)
        lenses = rich_lenses(enumerate_lenses(scene), k)
        family = select_family(lenses, scene, mode="exact")
        ok &= len(family) == n // k
        ok &= all(l.degree == k for l in family.members)
        ok &= family.total_degree == n
        ok &= family.certificate
    elapsed = time.time() - start
    report(1, "extremal tightness", ok and elapsed < 5.0,
           f"4 pipelines in {elapsed:.2f}s")


def test_criterion_2_duality_transport():
    start = time.time()
    rng = random.Random(2024)
    violations = 0
    for _ in range(10 ** 4):
        px = F(rng.randint(-60, 60), rng.randint(1, 11))
        py = F(rng.randint(-60, 60), rng.randint(1, 11))
        cx = F(rng.randint(-60, 60), rng.randint(1, 11))
        cy = F(rng.randint(-60, 60), rng.randint(1, 11))
        if rng.random() < 0.5 and (px, py) != (cx, cy):
            r2 = (px - cx) ** 2 + (py - cy) ** 2  # p exactly on the circle
        else:
            r2 = F(rng.randint(1, 3000), rng.randint(1, 11))
        if r2 <= 0:
            continue
        c = Circle(cx, cy, r2)
        star = lift_circle(c)
        on = power_of_point((px, py), c) == 0
        dual = dual_plane((px, py)).contains((star.x, star.y, star.z))
        if on != dual:
            violations += 1
    elapsed = time.time() - start
    report(2, "duality transport", violations == 0 and elapsed < 10.0,
           f"10^4 pairs, {violations} violations, {elapsed:.2f}s")


def test_criterion_3_pencil_to_line_collinearity():
    checked = 0
    ok = True
    for name, scene in CORPUS:
        for lens in enumerate_lenses(scene):
            line = lens_line(*lens.base)
            for cid in lens.circles:
                pt = lift_circle(scene.circles[cid])
                ok &= line.contains((pt.x, pt.y, pt.z))
                checked += 1
    worked = Scene(circles=(Circle(F(0), F(0), F(1)),
                            Circle(F(1), F(0), F(2)),
                            Circle(F(2), F(0), F(5))))
    (lens,) = enumerate_lenses(worked)
    ok &= lens_line(*lens.base) == DualLine.of((F(0), F(0), F(1)),
                                               (F(1), F(0), F(0)))
    report(3, "pencil-to-line collinearity", ok and len(CORPUS) >= 50,
           f"{checked} lifted incidences over {len(CORPUS)} scenes")


def test_criterion_4_lemma3_audit():
    ok = True
    audited = 0
    for name, scene in CORPUS:
        lenses = rich_lenses(enumerate_lenses(scene), 2)
        family = select_family(lenses, scene, mode="greedy")
        ok &= coplanarity_audit(scene, family).clean
        audited += 1
    # >= 10^3 seeded triples of lens lines sharing a participating circle:
    # three chords of one circle through distinct anchor points are never
    # concurrent, so their lens lines must not be coplanar
    rng = random.Random(7)
    clean_triples = 0
    on_circle = [(3, 4), (4, 3), (5, 0), (4, -3), (3, -4), (0, -5),
                 (-3, -4), (-4, -3), (-5, 0), (-4, 3), (-3, 4), (0, 5)]

    def chord_line(p, q):
        # rational line through p and q as (a, b, c) with a*x + b*y + c = 0
        a, b = q[1] - p[1], p[0] - q[0]
        return a, b, -(a * p[0] + b * p[1])

    def concurrent(chords):
        # common point (possibly at infinity, i.e. all parallel)?
        (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = chords
        det = lambda r1, r2, r3: (r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
                                  - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
                                  + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0]))
        return det((a1, b1, c1), (a2, b2, c2), (a3, b3, c3)) == 0

    while clean_triples < 1000:
        pts = rng.sample(on_circle, 6)
        pairs = [(pts[0], pts[1]), (pts[2], pts[3]), (pts[4], pts[5])]
        lines = [lens_line((F(p[0]), F(p[1])), (F(q[0]), F(q[1])))
                 for p, q in pairs]
        coplanar = lines_coplanar(*lines)
        if concurrent([chord_line(p, q) for p, q in pairs]):
            # concurrent chords do lift to coplanar lines; the audit must say so
            ok &= coplanar
            continue
        if coplanar:
            ok = False
            break
        clean_triples += 1
    # the engineered concurrent-chord configuration IS flagged
    scene = Scene(circles=(Circle(F(0), F(0), F(1)),
                           Circle(F(0), F(1), F(2)),
                           Circle(F(-1), F(0), F(12, 5)),
                           Circle(F(-1, 2), F(1, 2), F(17, 10))))
    trio = tuple(l for l in enumerate_lenses(scene) if 0 in l.circles)
    forged = LensFamily(members=trio, certificate=True,
                        total_degree=sum(l.degree for l in trio))
    flagged = not coplanarity_audit(scene, forged).clean
    report(4, "Lemma 3 audit", ok and flagged and clean_triples >= 1000,
           f"{audited} family audits clean, {clean_triples} clean triples, "
           f"engineered case flagged={flagged}")


def test_criterion_5_order_reversal():
    ok = True
    checked = 0
    for name, scene in CORPUS:
        for lens in enumerate_lenses(scene):
            try:
                ok &= order_reversal_check(lens, scene).reversed
                checked += 1
            except Inconclusive:
                continue
    worked = Scene(circles=(Circle(F(0), F(0), F(1)),
                            Circle(F(1), F(0), F(2)),
                            Circle(F(2), F(0), F(5))))
    (lens,) = enumerate_lenses(worked)
    check = order_reversal_check(lens, worked)
    ok &= check.reversed and check.order_at_p == tuple(reversed(check.order_at_q))
    report(5, "order reversal", ok, f"{checked} lenses checked")


def test_criterion_6_oracle_equivalence():
    start = time.time()
    ok = True
    for seed in range(200):
        scene = random_scene(GeneratorSpec(model="uniform-random",
                                           n=4 + seed % 7, seed=seed))
        ok &= enumerate_lenses(scene) == brute_force_lenses(scene)
    elapsed = time.time() - start
    report(6, "oracle equivalence", ok and elapsed < 60.0,
           f"200 scenes in {elapsed:.2f}s")


def test_criterion_7_lens_cutting():
    ok = True
    ratios = []
    count = 0
    for seed in range(17):
        # one scene per seed, so its lenses are enumerated once for all k
        n = 20 + 12 * (seed % 4)
        scene = random_scene(GeneratorSpec(model="uniform-random", n=n,
                                           seed=1000 + seed, spread=F(6)))
        for k in (2, 3, 4):
            if count >= 50:
                break
            result = lens_cutting(scene, k)
            ok &= verify_cut(scene, result)
            bound = bound_eval("thm1-degree", n=n, k=k)
            ratio = result.cut_count / bound
            ok &= math.isfinite(ratio)
            ratios.append(ratio)
            count += 1
    detail = (f"{count} scenes, cut/bound ratio in "
              f"[{min(ratios):.3f}, {max(ratios):.3f}]")
    report(7, "lens cutting", ok and count >= 50, detail)


def test_criterion_8_recurrence_certification():
    trace = recurrence_certify(2.0 ** 20, 16.0, a=1.0, a0=1.0)
    iterates = [row.n_j / 16.0 ** 3 for row in reversed(trace.rows)]
    ok = trace.z == 2.0 and trace.depth == 3
    ok &= iterates == [256.0, 16.0, 4.0, 2.0]
    for label, lhs, rhs, passed in trace.checks:
        ok &= passed
        if label.startswith("identity"):
            ok &= abs(lhs - rhs) <= 1e-12 * rhs
    start = time.time()
    swept = 0
    for e in range(10, 30):
        n = 2.0 ** e
        for k in (2.0, 3.0, 5.0, 8.0, 13.0, 21.0):
            if n > k ** 3 * math.sqrt(2) and swept < 100:
                ok &= recurrence_certify(n, k).passed
                swept += 1
    elapsed = time.time() - start
    report(8, "recurrence certification",
           ok and swept == 100 and elapsed < 1.0,
           f"trace 256->16->4->2, s=3, z=2; {swept}-point sweep {elapsed:.3f}s")


def test_criterion_9_dyadic_decomposition():
    ratios = []
    for e in range(10, 31):
        n = 2.0 ** e
        kmax = int(n ** (1 / 3))
        for k in range(2, kmax + 1, max(1, kmax // 8)):
            _, ratio = dyadic_degree_sum(n, float(k))
            ratios.append(ratio)
    bound_const = 16.0
    ok = all(r <= bound_const for r in ratios)
    report(9, "dyadic decomposition", ok,
           f"max ratio {max(ratios):.3f} <= {bound_const} "
           f"over {len(ratios)} sweep points")


def test_criterion_10_szekely_statistics():
    scene = Scene(circles=(Circle(F(0), F(0), F(25)),
                           Circle(F(8), F(0), F(25))),
                  points=((F(4), F(3)), (F(4), F(-3))))
    stats = szekely_stats(scene.points, scene, 2)
    ok = stats.edges == 4 and stats.max_multiplicity == 4
    checked = 0
    for name, scene in CORPUS[:25]:
        pts = []
        for lens in enumerate_lenses(scene):
            for pt in lens.base:
                if pt.is_rational:
                    pts.append((pt.x.a, pt.y.a))
        pts = list(dict.fromkeys(pts))[:6]
        if not pts:
            continue
        st = szekely_stats(pts, scene, 2)
        neigh = sum(sum(1 for p in pts if power_of_point(p, c) == 0)
                    for c in scene.circles)
        ok &= st.incidences == neigh
        ok &= st.crossings <= len(scene) * (len(scene) - 1)
        checked += 1
    report(10, "Szekely statistics", ok,
           f"frozen instance + {checked} corpus scenes")
