"""Differential checks of the lens arcs of families, closed CCW intervals of
cyclic keys, against the direction predicates they replaced (dir_oracle), on
uniform-random and lattice-triple scenes:

- lens overlap and greedy families against arcs_overlap, and the greedy
  scan's bisection against the pairwise scan on drawn arcs whose keys all
  tie on quadrant and prefix;
- lens cutting against the direction-based greedy cutting, and covering
  counts against dir_in_ccw_arc over the sorted cut arcs, both of cutting's
  results and of tilings cut at base points, their midpoints and between;
- Szekely edges, G1 and edge multiplicity against edges between
  direction-sorted marked points and lens_arc directions;
- cut arcs that keep their keys: the pipeline builds no QuadNum direction,
  and arcs rebuilt from their directions are equal and verified alike.
"""

from collections import Counter, defaultdict
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations
from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelens import families, geometry, incidence
from circlelens.families import (CircleArc, CutResult, _covering_counts,
                                 _greedy, _lens_arcs, _overlap, lens_cutting,
                                 select_family, verify_cut)
from circlelens.generators import GeneratorSpec, random_scene
from circlelens.geometry import Circle, power_of_point
from circlelens.incidence import szekely_stats
from circlelens.pencils import (Lens, Scene, enumerate_lenses, lens_vertices,
                               rich_lenses)
from circlelens.quadfield import QuadPoint
from dir_oracle import (canonical_dir, centered, cyclic_key, dir_in_ccw_arc,
                        lens_arc, lenses_overlap, opposite_direction,
                        same_direction)


def lattice(n, seed, g):
    return random_scene(GeneratorSpec(model="lattice-triples", n=n, seed=seed,
                                      spread=F(g)))


def uniform(n, seed, spread):
    return random_scene(GeneratorSpec(model="uniform-random", n=n, seed=seed,
                                      spread=F(spread)))


uniform_scenes = st.builds(
    uniform, st.integers(6, 14), st.integers(0, 10 ** 6), st.sampled_from((3, 4, 6)))
lattice_scenes = st.builds(
    lattice, st.integers(6, 18), st.integers(0, 10 ** 6), st.sampled_from((3, 4)))
scenes = st.one_of(uniform_scenes, lattice_scenes)


# -- oracles ------------------------------------------------------------------

def greedy_oracle(lenses, scene) -> list:
    kept = []
    for lens in sorted(lenses, key=cmp_to_key(
            lambda a, b: (b.degree - a.degree) or a.compare(b))):
        if not any(lenses_overlap(lens, other, scene) for other in kept):
            kept.append(lens)
    return kept


def cut_arcs(cuts) -> list:
    """Arcs between cyclically consecutive cuts: None if uncut, (c, c) for
    one cut."""
    ordered = sorted(cuts, key=cyclic_key)
    if not ordered:
        return [None]
    return [(d, ordered[(j + 1) % len(ordered)]) for j, d in enumerate(ordered)]


def holds(arc, v) -> bool:
    return arc is None or same_direction(*arc) or dir_in_ccw_arc(v, *arc)


def cutting_oracle(scene, k) -> list:
    """The greedy cutting on direction predicates, re-sorting each circle's
    cuts for every covering test: (circle id, start, end) per arc."""
    targets = rich_lenses(enumerate_lenses(scene), k)
    cuts = defaultdict(list)

    def add(cid, m) -> bool:
        if any(same_direction(m, c) for c in cuts[cid]):
            return False
        cuts[cid].append(m)
        return True

    def in_path(arc, dp, dq, v) -> bool:
        s = arc[0]
        if same_direction(dq, s):
            first, second = dq, dp
        elif same_direction(dp, s) or dir_in_ccw_arc(dp, s, dq):
            first, second = dp, dq
        else:
            first, second = dq, dp
        return dir_in_ccw_arc(v, first, second)

    changed = True
    while changed:
        changed = False
        for lens in targets:
            cov = []
            for cid in lens.circles:
                dp, dq = (centered(p, scene.circles[cid]) for p in lens.base)
                cov += [(cid, arc, dp, dq) for arc in cut_arcs(cuts[cid])
                        if holds(arc, dp) and holds(arc, dq)]
            for cid, arc, dp, dq in cov[k - 1:] if len(cov) >= k else ():
                if opposite_direction(dp, dq):
                    short = canonical_dir((-dp[1], dp[0]))
                    long = canonical_dir((dp[1], -dp[0]))
                else:
                    m = (dp[0] + dq[0], dp[1] + dq[1])
                    short, long = canonical_dir(m), canonical_dir((-m[0], -m[1]))
                if arc is None or same_direction(*arc):
                    changed |= add(cid, short) | add(cid, long)
                    continue
                chosen = next(m for m in (short, long)
                              if holds(arc, m) and in_path(arc, dp, dq, m))
                changed |= any(add(cid, m) for m in (chosen, long, short))
    return [(cid, *(arc or (None, None)))
            for cid in range(len(scene)) for arc in cut_arcs(cuts[cid])]


def covering_oracle(scene, result) -> list[int]:
    by_circle = defaultdict(list)
    for arc in result.arcs:
        by_circle[arc.circle_id].append(
            None if arc.is_full else (arc.start, arc.end))
    counts = []
    for lens in rich_lenses(enumerate_lenses(scene), result.k):
        count = 0
        for cid in lens.circles:
            dp, dq = (centered(p, scene.circles[cid]) for p in lens.base)
            count += sum(holds(arc, dp) and holds(arc, dq)
                         for arc in by_circle[cid])
        counts.append(count)
    return counts


def lens_cuts(scene, lens, cid) -> list:
    """Directions to cut circle cid at for a lens through it: its base points
    dp and dq, the midpoints of its lens arc and of the rest, and dp plus
    the first midpoint, strictly inside the lens arc."""
    dp, dq = (centered(p, scene.circles[cid]) for p in lens.base)
    if opposite_direction(dp, dq):  # the lens arc is the CCW half from dp
        m = (-dp[1], dp[0])
    else:
        m = (dp[0] + dq[0], dp[1] + dq[1])
    return [canonical_dir(d) for d in (
        dp, dq, m, (-m[0], -m[1]), (dp[0] + m[0], dp[1] + m[1]))]


def cut_pool(scene) -> dict:
    """Per circle, the lens_cuts of each lens through it."""
    pool = defaultdict(list)
    for lens in enumerate_lenses(scene):
        for cid in lens.circles:
            pool[cid].append(lens_cuts(scene, lens, cid))
    return pool


def tiling(scene, k, cuts) -> CutResult:
    """The arcs of a scene whose circle cid is cut at the directions
    cuts[cid] (repeats dropped)."""
    arcs, count = [], 0
    for cid in range(len(scene)):
        distinct = []
        for d in cuts.get(cid, ()):
            if not any(same_direction(d, c) for c in distinct):
                distinct.append(d)
        arcs += [CircleArc(cid, *(arc or (None, None)))
                 for arc in cut_arcs(distinct)]
        count += len(distinct)
    return CutResult(tuple(arcs), count, k)


def marked_pairs(points, scene, k) -> dict:
    """{(u, v): the circles through both} for the pairs u < v of marked
    points with k or more circles through both."""
    through = defaultdict(list)
    for cid, c in enumerate(scene.circles):
        ids = [i for i, p in enumerate(points) if power_of_point(p, c) == 0]
        for u, v in combinations(ids, 2):
            through[u, v].append(cid)
    return {pair: cids for pair, cids in through.items() if len(cids) >= k}


def szekely_oracle(points, scene, k) -> tuple[int, int, int]:
    """(edges, g1, max multiplicity) from the edges between cyclically
    consecutive marked points, sorted by direction on each circle, and the
    lens_arc directions of the greedy family on the marked pairs' lenses."""
    on = [[i for i, p in enumerate(points) if power_of_point(p, c) == 0]
          for c in scene.circles]
    edges = []  # (circle, u, v, (direction of u, direction of v))
    for cid, ids in enumerate(on):
        if len(ids) >= 2:
            dirs = {i: centered(QuadPoint(*points[i]), scene.circles[cid])
                    for i in ids}
            ids = sorted(ids, key=lambda i: cyclic_key(dirs[i]))
            edges += [(cid, u, v, (dirs[u], dirs[v]))
                      for u, v in zip(ids, ids[1:] + ids[:1])]
    pool = [Lens((points[u], points[v]), cids)
            for (u, v), cids in marked_pairs(points, scene, k).items()]
    lens_edges = {(cid, lens_arc(scene.circles[cid], *lens.base))
                  for lens in greedy_oracle(pool, scene) for cid in lens.circles}
    g1 = sum((cid, arc) in lens_edges for cid, _, _, arc in edges)
    multiplicity = Counter(frozenset((u, v)) for _, u, v, _ in edges)
    return len(edges), g1, max(multiplicity.values(), default=0)


def marked_points(scene) -> list:
    """The scene's marked points; a scene without them gets its rational
    base points and two points that are on no circle in general."""
    if scene.points:
        return list(scene.points)
    points = {(p.x.a, p.y.a) for lens in enumerate_lenses(scene)
              for p in lens.base if p.is_rational}
    return sorted(points) + [(F(1, 7), F(-2, 3)), (F(100), F(3, 5))]


def diameters() -> Scene:
    """Pencils through (+-1, 0) and (0, +-1), both with the unit circle, whose
    two lenses are diameters of it, and circles crossing them."""
    return Scene(circles=tuple(Circle(F(x), F(y), F(r2)) for x, y, r2 in (
        (0, 0, 1), (0, 1, 2), (0, 2, 5), (1, 0, 2), (2, 0, 5), (1, 1, 1),
        (-1, 1, 2))))


# -- checks -------------------------------------------------------------------

# a scene whose unit circle is cut by two diameter lenses
@given(scenes, st.randoms(use_true_random=False))
@example(diameters(), Random(0))
@settings(max_examples=8, deadline=None)
def test_overlap_and_greedy_family_match_arcs_overlap(scene, rnd):
    lenses = enumerate_lenses(scene)
    pairs = [(a, b) for a, b in combinations(lenses, 2)
             if set(a.circles) & set(b.circles)]
    for a, b in rnd.sample(pairs, min(len(pairs), 100)):
        assert _overlap(*_lens_arcs(scene, (a, b))) == \
            lenses_overlap(a, b, scene)
    for k in (2, 3):
        rich = rich_lenses(lenses, k)
        family = select_family(rich, scene)
        assert set(family.members) == set(greedy_oracle(rich, scene))


# the first scene covers a base pair by both arcs of a circle cut exactly at
# its two points; the second cuts an arc over the rest of a circle
@given(scenes, st.sampled_from((2, 3)))
@example(lattice(8, 0, 3), 2)
@example(lattice(14, 3, 3), 3)
@settings(max_examples=16, deadline=None)
def test_cutting_matches_direction_cutting(scene, k):
    result = lens_cutting(scene, k)
    got = [(arc.circle_id, arc.start, arc.end) for arc in result.arcs]
    assert got == cutting_oracle(scene, k)
    counts = covering_oracle(scene, result)
    assert _covering_counts(scene, result) == counts
    assert all(n < k for n in counts)


@given(scenes, st.sampled_from((2, 3)), st.data())
@settings(max_examples=12, deadline=None)
def test_covering_counts_of_drawn_tilings_match_the_direction_oracle(
        scene, k, data):
    # each circle is left whole or cut at a drawn subset of its lenses'
    # base points, midpoints and points inside their lens arcs
    cuts = {}
    for cid, lenses in sorted(cut_pool(scene).items()):
        picks = data.draw(st.lists(st.tuples(
            st.integers(0, len(lenses) - 1), st.integers(0, 4)), max_size=5))
        cuts[cid] = [lenses[i][j] for i, j in picks]
    result = tiling(scene, k, cuts)
    assert _covering_counts(scene, result) == covering_oracle(scene, result)


def test_covering_counts_on_one_cut_base_point_cuts_and_a_shared_gap():
    scene = lattice(8, 0, 3)
    lenses = enumerate_lenses(scene)
    i, lens = next((i, lens) for i, lens in enumerate(lenses) if lens.degree == 3)
    one, both, gap = lens.circles
    short, _, inner = lens_cuts(scene, lens, gap)[2:]
    result = tiling(scene, 2, {
        one: lens_cuts(scene, lens, one)[2:3],  # a single cut: one arc
        both: lens_cuts(scene, lens, both)[:2],  # both arcs hold p and q
        gap: [inner, short]})  # both inside the lens arc: the rest is held
    counts = _covering_counts(scene, result)
    assert counts == covering_oracle(scene, result)
    assert counts[i] == 1 + 2 + 1
    assert not verify_cut(scene, result)


def test_family_selection_and_szekely_stats_build_one_arc_model_each(
        monkeypatch):
    # cutting and its re-check read the base pairs' keys, not lens arcs;
    # incidence imports the name, so it is patched there too
    built = []

    def counted(scene, lenses):
        built.append(len(lenses))
        return _lens_arcs(scene, lenses)

    for module in (families, incidence):
        monkeypatch.setattr(module, "_lens_arcs", counted)
    scene = lattice(14, 3, 3)
    result = lens_cutting(scene, 2)
    assert result.cut_count and verify_cut(scene, result)
    assert not built
    rich = enumerate_lenses(scene, 2)
    assert select_family(rich, scene).certificate
    assert built == [len(rich)]
    points = marked_points(scene)
    szekely_stats(points, scene, 2)
    pool = len(marked_pairs(points, scene, 2))
    assert pool and built == [len(rich), pool]


def test_the_szekely_pool_is_the_marked_pairs_lens_for_lens(corpus,
                                                            monkeypatch):
    # the pool that szekely_stats hands to _lens_arcs, against the lenses of
    # the marked pairs in (u, v) order over the sorted points
    pools = []
    monkeypatch.setattr(incidence, "_lens_arcs", lambda scene, lenses: (
        pools.append(lenses) or _lens_arcs(scene, lenses)))
    sizes = []
    for scene in (LATTICE_18, HALF_18, *(scene for _, scene in corpus)):
        points = sorted(marked_points(scene))
        for k in (2, 3):
            szekely_stats(points, scene, k)
            pool = pools.pop()
            assert pool == [Lens((points[u], points[v]), cids) for (u, v), cids
                            in sorted(marked_pairs(points, scene, k).items())]
            sizes.append(len(pool))
    # most corpus scenes are uniform-random, with no rational lens
    assert not pools and sum(sizes) > 300 and len(sizes) - sizes.count(0) >= 20


# the rational lens vertices of a lattice scene, all marked (and two points
# on no circle) or every other one, so that 35 rational lenses have one
# marked base point and are no pool lens
LATTICE_18 = Scene(lattice(18, 1, 4).circles)
HALF_18 = Scene(LATTICE_18.circles, marked_points(LATTICE_18)[:-2:2])


# a uniform scene with a rational lens, whose two arcs join G1 at k = 2; a
# lattice scene whose family changes if a pool lens's base order is reversed
@given(scenes, st.sampled_from((2, 3)))
@example(uniform(14, 2, 3), 2)
@example(lattice(20, 1, 3), 2)
@example(LATTICE_18, 2)
@example(LATTICE_18, 3)
@example(HALF_18, 2)
@example(HALF_18, 3)
@settings(max_examples=16, deadline=None)
def test_szekely_g1_matches_lens_arc_directions(scene, k):
    points = marked_points(scene)
    stats = szekely_stats(points, scene, k)
    assert (stats.edges, stats.g1, stats.max_multiplicity) == \
        szekely_oracle(points, scene, k)


def pairwise_greedy(arcs, degrees) -> list:
    """The greedy scan testing each lens against every kept one."""
    kept = []
    for i in sorted(range(len(degrees)), key=lambda i: -degrees[i]):
        if not any(_overlap(arcs[i], arcs[j]) for j in kept):
            kept.append(i)
    return kept


# cyclic keys of directions in the first quadrant, ordered by v, that all
# share the slope prefix floor(2^32 * y/x) = 2^32: every comparison between
# two of them reaches the exact cross sign of geometry._Ray
TIED = [geometry.cyclic_key((2 ** 40, 0, 2 ** 40 + v, 0, 0)) for v in range(8)]


def keyed(ends) -> list:
    """Lens arcs ends[i] = {cid: (s, e)} of vertices s, e, each vertex v of
    a circle at the key TIED[v]."""
    return [{cid: (TIED[s], TIED[e]) for cid, (s, e) in arcs.items()}
            for arcs in ends]


@st.composite
def key_arcs(draw):
    """(arcs, degrees): circles of 2 to 8 vertices and lenses on one to
    three of them, each arc (s, e) with s != e, so many wrap past vertex 0
    (s > e) and share an end vertex with another."""
    sizes = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    ends = []
    for _ in range(draw(st.integers(0, 20))):
        cids = draw(st.sets(st.integers(0, len(sizes) - 1), min_size=1,
                            max_size=3))
        ends.append({cid: tuple(draw(st.lists(
            st.integers(0, sizes[cid] - 1), min_size=2, max_size=2, unique=True)))
            for cid in sorted(cids)})
    degrees = draw(st.lists(st.integers(2, 4), min_size=len(ends),
                            max_size=len(ends)))
    return keyed(ends), degrees


# after kept arcs (0, 1) and (2, 3), an arc from 5 past vertex 0 meets the
# first kept arc; after kept arcs (2, 3) and (5, 1), the one wrapping past
# vertex 0 holds the start of (0, 1)
@given(key_arcs())
@example((keyed([{0: (0, 1)}, {0: (2, 3)}, {0: (5, 0)}]), [2, 2, 2]))
@example((keyed([{0: (2, 3)}, {0: (5, 1)}, {0: (0, 1)}]), [2, 2, 2]))
@settings(max_examples=300, deadline=None)
def test_bisecting_greedy_matches_the_pairwise_scan(drawn):
    arcs, degrees = drawn
    assert _greedy(arcs, degrees) == pairwise_greedy(arcs, degrees)


def test_the_diameter_scene_has_diameters():
    scene = diameters()
    unit = [kq[2].v == tuple(-a for a in kp[2].v[:4]) + (kp[2].v[4],)
            for lens in enumerate_lenses(scene) if 0 in lens.circles
            for kp, kq, _ in lens_vertices(scene, lens)[:1]]
    assert unit.count(True) >= 2


def test_the_pipeline_builds_no_quadnum_directions(monkeypatch):
    # enumerate, family, cut and verify stay on cyclic keys; the directions
    # of a cut's arcs are built only when read
    calls = Counter()
    for name in ("canonical_dir", "int_dir"):
        def counted(*args, name=name, real=getattr(geometry, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(geometry, name, counted)
        monkeypatch.setattr(families, name, counted)
    scene = lattice(14, 3, 3)
    results = []
    for k in (2, 3):
        assert select_family(enumerate_lenses(scene, k), scene).certificate
        results.append(lens_cutting(scene, k))
        assert results[-1].cut_count and verify_cut(scene, results[-1])
    assert not calls
    for result in results:
        for arc in result.arcs:
            twin = CircleArc(arc.circle_id, arc.start, arc.end)
            assert (arc == twin and hash(arc) == hash(twin)
                    and repr(arc) == repr(twin))
    # start and end, once each, for every arc on a cut circle
    assert calls["canonical_dir"] == 2 * sum(
        not arc.is_full for result in results for arc in result.arcs)
    assert not calls["int_dir"]


def test_verify_cut_reads_arcs_rebuilt_from_directions_alike():
    scene = lattice(14, 3, 3)
    for k in (2, 3):
        result = lens_cutting(scene, k)
        arcs = result.arcs
        cut = next(i for i, arc in enumerate(arcs) if not arc.is_full)
        for variant in (result, CutResult(arcs, result.cut_count - 1, k),
                        CutResult(arcs[:cut] + arcs[cut + 1:], result.cut_count, k),
                        CutResult(arcs, result.cut_count, k + 1)):
            rebuilt = CutResult(tuple(CircleArc(a.circle_id, a.start, a.end)
                                      for a in variant.arcs),
                                variant.cut_count, variant.k)
            assert rebuilt == variant
            assert verify_cut(scene, rebuilt) == verify_cut(scene, variant)
        assert verify_cut(scene, result)
        # names other than start, end and keys are still missing
        assert not hasattr(arcs[cut], "midpoint")
