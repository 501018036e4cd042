import hashlib
import random
from collections import Counter
from fractions import Fraction as F
from functools import cmp_to_key
from pathlib import Path

import pytest

from circlelens import families, pencils
from circlelens.dual import coplanarity_audit
from circlelens.errors import CapExceeded, DegenerateInput, InvalidRichness
from circlelens.families import (EXACT_CAP, CircleArc, CutResult, lens_cutting,
                                 select_family, verify_cut)
from circlelens.generators import (GeneratorSpec, pencil_bundle_construction,
                                   random_scene)
from circlelens.geometry import Circle, Line, circle_line_points
from circlelens.pencils import (Lens, Scene, enumerate_lenses, lens_vertices,
                                rich_lenses)
from circlelens.quadfield import QuadNum, QuadPoint
from circlelens.sceneio import parse_scene
from circlelens.slopes import order_reversal_check
from dir_oracle import lenses_overlap

DATA = Path(__file__).parent / "data"


def _lenses(scene):
    return enumerate_lenses(scene)


def test_same_base_lenses_overlap(worked_pencil):
    (lens,) = _lenses(worked_pencil)
    assert lenses_overlap(lens, lens, worked_pencil)


def test_disjoint_pencils_do_not_overlap():
    circles = (Circle(F(0), F(0), F(1)), Circle(F(1), F(0), F(2)),
               Circle(F(10), F(0), F(1)), Circle(F(11), F(0), F(2)))
    scene = Scene(circles=circles)
    l1, l2 = _lenses(scene)
    assert not lenses_overlap(l1, l2, scene)
    assert not lenses_overlap(l2, l1, scene)


def test_shared_circle_overlapping_arcs():
    # two lenses on the unit circle with interleaved chords must overlap
    circles = (Circle(F(0), F(0), F(25)),  # radius 5
               Circle(F(6), F(0), F(25)),  # chord x = 3
               Circle(F(4), F(0), F(5)))   # chord x = 4 -> inside [3,5] arc
    scene = Scene(circles=circles)
    lenses = _lenses(scene)
    shared = [ (a, b) for i, a in enumerate(lenses) for b in lenses[i+1:]
               if set(a.circles) & set(b.circles) ]
    assert shared
    l1, l2 = next((a, b) for a, b in shared
                  if 0 in set(a.circles) & set(b.circles))
    assert lenses_overlap(l1, l2, scene) == lenses_overlap(l2, l1, scene)


def test_overlap_symmetry_on_corpus(corpus):
    for name, scene in corpus[:12]:
        lenses = _lenses(scene)
        for i, a in enumerate(lenses):
            for b in lenses[i + 1:]:
                assert lenses_overlap(a, b, scene) == \
                    lenses_overlap(b, a, scene), name


# circle (3/2, 3/2), r2 = 9/2 and one partner through each of the base pairs
# (-3/5, 6/5)-(0, 0), (0, 3)-(3, 0) and (9/5, 18/5)-(3, 3); the three chords
# meet at (-3, 6), and the middle pair is a diameter
DIAMETER_SCENE = Scene(circles=(
    Circle(F(3, 2), F(3, 2), F(9, 2)), Circle(F(-3, 10), F(3, 5), F(9, 20)),
    Circle(F(0), F(0), F(9)), Circle(F(12, 5), F(33, 10), F(9, 20))))


def test_diameter_lens_uses_designated_half():
    by_circles = {lens.circles: lens for lens in _lenses(DIAMETER_SCENE)}
    assert set(by_circles) == {(0, 1), (0, 2), (0, 3)}
    # the diameter (0, 3)-(3, 0) uses the CCW half from (0, 3), through (0, 0)
    assert lenses_overlap(by_circles[(0, 2)], by_circles[(0, 1)], DIAMETER_SCENE)
    assert not lenses_overlap(by_circles[(0, 2)], by_circles[(0, 3)],
                              DIAMETER_SCENE)
    family = select_family(list(by_circles.values()), DIAMETER_SCENE)
    assert family.certificate and len(family) == 2
    assert coplanarity_audit(DIAMETER_SCENE, family).clean


def test_greedy_family_certified(corpus):
    for name, scene in corpus:
        lenses = rich_lenses(_lenses(scene), 2)
        family = select_family(lenses, scene, mode="greedy")
        assert family.certificate, name
        assert family.total_degree == sum(m.degree for m in family.members)
        for a, b in zip(family.members, family.members[1:]):
            assert a.compare(b) < 0, name  # canonical member order
        for m in family.members:
            assert m in lenses


def test_select_family_rejects_a_base_point_off_its_circles():
    unit = Circle(F(0), F(0), F(1))
    scene = Scene(circles=(unit, Circle(F(1), F(1), F(1))))
    east = QuadPoint(1, 0)
    assert select_family([Lens((east, QuadPoint(0, 1)), (0, 1))], scene).certificate
    # rational: (3/5, 4/5) is on the unit circle, not on circle 1
    off = Lens((QuadPoint(F(3, 5), F(4, 5)), east), (0, 1))
    with pytest.raises(DegenerateInput, match="is not on circle 1$"):
        select_family([off], scene)
    # of two faulty lenses, the first in lens order is named, in any input order
    far = Lens((QuadPoint(2, 0), QuadPoint(3, 0)), (0, 1))
    for pool in ([off, far], [far, off]):
        with pytest.raises(DegenerateInput, match=r"\(3/5, 4/5\) is not on circle 1$"):
            select_family(pool, scene)
    # irrational: p on the chord x + y = 1/2 of the unit circle, moved so that
    # only one of the two integer parts of its power vanishes
    p = circle_line_points(unit, Line.of(2, 2, -1))[0]
    x, y = p.x, p.y
    for moved in (QuadPoint(x - 2 * x.a, y),  # only the sqrt(d) part is left
                  QuadPoint(x + y.b / 3, y - x.b / 3)):  # only the rational part
        power = moved.x * moved.x + moved.y * moved.y - 1
        assert (power.a == 0) != (power.b == 0)
        with pytest.raises(DegenerateInput, match="is not on circle 0$"):
            select_family([Lens((moved, east), (0, 1))], scene)


def test_select_family_rejects_a_circle_id_outside_the_scene():
    # -1 would read the last circle's frame entry: with it, two lenses with
    # identical arcs on circle 2 passed as non-overlapping
    scene = Scene(circles=(Circle(F(0), F(0), F(1)), Circle(F(1), F(0), F(2)),
                           Circle(F(-1), F(0), F(2))))
    base = next(lens for lens in enumerate_lenses(scene) if lens.degree == 3).base
    for bad, cid in (((-1, 1), -1), ((0, 3), 3)):
        with pytest.raises(DegenerateInput, match=f"^lens on circle {cid}, "
                           "but the scene has circles 0..2$"):
            select_family([Lens(base, (0, 2)), Lens(base, bad)], scene)


def test_select_family_checks_each_point_over_one_radicand():
    # p = (-sqrt(8), 1) is on both circles; q = (sqrt(2), 1) is on neither.
    # Each over its own radicand, their parts look conjugate: x is -1*sqrt(8)
    # and 1*sqrt(2).  Over sqrt(8), q's x is 1/2*sqrt(8), so q is checked.
    scene = Scene(circles=(Circle(F(0), F(0), F(9)), Circle(F(0), F(3), F(12))))
    p = QuadPoint(QuadNum(0, -1, 8), F(1))
    q = QuadPoint(QuadNum(0, 1, 2), F(1))
    with pytest.raises(DegenerateInput, match="is not on circle 0$"):
        select_family([Lens((p, q), (0, 1))], scene)


def test_one_point_given_as_two_objects_is_one_vertex():
    # lenses built apart share the point (0, 1) by value only; their closed
    # lens arcs on the unit circle meet there
    scene = Scene(circles=(Circle(F(0), F(0), F(1)), Circle(F(1), F(1), F(1)),
                           Circle(F(-1), F(1), F(1))))
    a = Lens((QuadPoint(1, 0), QuadPoint(0, 1)), (0, 1))
    b = Lens((QuadPoint(0, 1), QuadPoint(-1, 0)), (0, 2))
    assert lenses_overlap(a, b, scene)
    assert len(select_family([a, b], scene)) == 1


def _kept_records(lenses):
    """The vertex records the lenses keep, one per lens that has one."""
    return [lens._vertices for lens in lenses if lens._vertices is not None]


def test_scene_keeps_vertices_of_its_own_lenses_only():
    scene = Scene(circles=(Circle(F(0), F(0), F(1)), Circle(F(1), F(1), F(1))))
    built = [Lens((QuadPoint(1, 0), QuadPoint(0, 1)), (0, 1)) for _ in range(3)]
    for lens in built:
        select_family([lens], scene)
    assert not _kept_records(built)
    (own,) = _lenses(scene)
    # an equal lens built apart is not the scene's own
    apart = Lens(own.base, own.circles)
    select_family([apart], scene)
    assert not pencils._own(scene, apart)
    assert not _kept_records([apart, own])
    select_family([own], scene)
    (record,) = _kept_records([apart, own])
    assert pencils._own(scene, own) and lens_vertices(scene, own) is record


def test_stages_read_the_records_of_own_lenses(monkeypatch):
    # family selection, the audit, cutting, verify_cut and the order check
    # read each enumerated lens's integer record: no base pair is cleared
    # again and no lens builds its QuadPoints
    scene = parse_scene((DATA / "lattice-n48-g4-s1.scene").read_text())
    cleared = []

    def counted(values):
        cleared.append(tuple(values))
        return real(values)

    real = pencils.cleared_parts
    monkeypatch.setattr(pencils, "cleared_parts", counted)
    lenses = enumerate_lenses(scene)
    rich = rich_lenses(lenses, 3)
    family = select_family(rich, scene)
    assert family.certificate and coplanarity_audit(scene, family).clean
    assert verify_cut(scene, lens_cutting(scene, 3))
    for lens in rich:
        order_reversal_check(lens, scene)
    assert len(rich) > 50 and not cleared
    assert all(lens._base is None for lens in lenses)
    # a lens built apart clears its pair once, on its record's first read,
    # and keeps the record
    (first,) = rich[:1]
    apart = Lens(first.base, first.circles)
    assert lens_vertices(scene, apart) == lens_vertices(scene, first)
    assert order_reversal_check(apart, scene) == order_reversal_check(first, scene)
    assert len(cleared) == 1


def test_exact_at_least_greedy(corpus):
    for name, scene in corpus:
        lenses = rich_lenses(_lenses(scene), 2)
        if len(lenses) > 30:
            continue
        greedy = select_family(lenses, scene, mode="greedy")
        exact = select_family(lenses, scene, mode="exact")
        assert exact.certificate, name
        assert len(exact) >= len(greedy), name


def test_exact_cap_and_bad_mode(worked_pencil):
    scene = parse_scene((DATA / "lattice-n48-g4-s1.scene").read_text())
    lenses = rich_lenses(_lenses(scene), 2)[:EXACT_CAP + 1]
    assert len(lenses) == EXACT_CAP + 1 == 31
    with pytest.raises(CapExceeded, match="^exact selection capped at 30 lenses$"):
        select_family(lenses, scene, mode="exact")
    assert select_family(lenses[:-1], scene, mode="exact").certificate
    with pytest.raises(ValueError):
        select_family(_lenses(worked_pencil), worked_pencil, mode="best")


def test_exact_on_interval_overlap_chain():
    # three chords of one big circle: outer two disjoint, middle overlaps both
    circles = (Circle(F(0), F(0), F(100)),     # radius 10
               Circle(F(12), F(5), F(61)),     # through (6, +-8)
               Circle(F(12), F(-5), F(61)),    # through (8, +-6)... see below
               Circle(F(16), F(0), F(136)))
    scene = Scene(circles=circles)
    lenses = [l for l in _lenses(scene) if 0 in l.circles]
    if len(lenses) >= 2:
        fam = select_family(lenses, scene, mode="exact")
        assert fam.certificate


def test_bundle_family_is_all_pencils():
    scene, desc = pencil_bundle_construction(20, 4)
    lenses = rich_lenses(_lenses(scene), 4)
    for mode in ("greedy", "exact"):
        fam = select_family(lenses, scene, mode=mode)
        assert len(fam) == desc.pencil_count
        assert fam.total_degree == 20
        assert fam.certificate


# -- cutting ------------------------------------------------------------------

def test_cutting_invalid_richness(worked_pencil):
    with pytest.raises(InvalidRichness):
        lens_cutting(worked_pencil, 1)


def test_cutting_pencil_scene(worked_pencil):
    result = lens_cutting(worked_pencil, 2)
    assert result.k == 2
    assert result.cut_count > 0
    assert verify_cut(worked_pencil, result)
    # every circle id appears among the arcs
    assert {arc.circle_id for arc in result.arcs} == {0, 1, 2}


def test_cutting_no_rich_lenses_cuts_nothing():
    circles = (Circle(F(0), F(0), F(1)), Circle(F(10), F(0), F(1)))
    scene = Scene(circles=circles)
    result = lens_cutting(scene, 2)
    assert result.cut_count == 0
    assert all(arc.is_full for arc in result.arcs)
    assert verify_cut(scene, result)


def test_cutting_that_repeats_its_cuts_stops(worked_pencil, monkeypatch):
    # cuts on the lens's base points: after the first pass each is one that
    # exists, and no side of the lens ever stops being covered
    monkeypatch.setattr(families, "_midpoints", lambda kp, kq, forward: (kp, kq))
    with pytest.raises(DegenerateInput, match="more passes than it has cuts"):
        lens_cutting(worked_pencil, 2)


def test_cutting_corpus_postcondition(corpus):
    for name, scene in corpus[:20]:
        for k in (2, 3):
            result = lens_cutting(scene, k)
            assert verify_cut(scene, result), (name, k)
            assert len(result.arcs) >= len(scene)


def test_verify_cut_rejects_uncut():
    scene, _ = pencil_bundle_construction(12, 3)
    uncut = lens_cutting(scene, 3)
    assert verify_cut(scene, uncut)
    # replacing all arcs by full circles must fail verification
    fake = CutResult(arcs=tuple(CircleArc(cid, None, None)
                                for cid in range(len(scene))),
                     cut_count=0, k=3)
    assert not verify_cut(scene, fake)


def test_verify_cut_rejects_a_circle_without_arcs():
    scene, _ = pencil_bundle_construction(12, 3)
    assert not verify_cut(scene, CutResult(arcs=(), cut_count=0, k=3))
    result = lens_cutting(scene, 3)
    dropped = tuple(arc for arc in result.arcs if arc.circle_id != 5)
    assert not verify_cut(scene, CutResult(dropped, result.cut_count, 3))


def test_verify_cut_names_an_unknown_circle():
    scene, _ = pencil_bundle_construction(12, 3)
    result = lens_cutting(scene, 3)
    for cid in (99, -1):
        bad = CutResult(result.arcs + (CircleArc(cid, None, None),),
                        result.cut_count, 3)
        with pytest.raises(DegenerateInput, match=f"circle {cid}"):
            verify_cut(scene, bad)


def test_verify_cut_needs_arcs_that_chain_around_the_circle():
    scene, _ = pencil_bundle_construction(12, 3)
    result = lens_cutting(scene, 3)
    cut = next(cid for cid in range(len(scene))
               if sum(arc.circle_id == cid for arc in result.arcs) >= 2)
    arcs = [arc for arc in result.arcs if arc.circle_id == cut]
    rest = tuple(arc for arc in result.arcs if arc.circle_id != cut)

    def verdict(*circle_arcs):
        # with the count of arcs on cut circles that these arcs hold
        arcs = rest + circle_arcs
        return verify_cut(scene, CutResult(
            arcs, sum(not arc.is_full for arc in arcs), 3))

    assert verdict(*arcs) and verdict(*reversed(arcs))
    assert not verdict(*arcs[1:])  # a gap
    assert not verdict(*arcs, arcs[0])  # once round and a bit more
    assert not verdict(CircleArc(cut, None, None), *arcs)
    first = arcs[0]
    assert not verdict(CircleArc(cut, first.start, arcs[1].end), *arcs[1:])
    # a single arc must be full or closed at its one cut
    assert not verdict(first)
    assert verdict(CircleArc(cut, first.start, first.start)) == \
        verdict(CircleArc(cut, None, None))


@pytest.mark.parametrize("end", ["start", "end"])
def test_an_arc_with_one_end_is_degenerate(end):
    # neither a cut arc nor a whole circle: with no start it would read as
    # whole (is_full reads start), and with no end it breaks verify_cut
    scene = parse_scene((DATA / "lattice-n48-g4-s1.scene").read_text())
    arc = next(a for a in lens_cutting(scene, 3).arcs if not a.is_full)
    ends = {"start": arc.start, "end": arc.end, end: None}
    with pytest.raises(DegenerateInput, match="both ends or neither"):
        CircleArc(0, ends["start"], ends["end"])


def test_verify_cut_checks_the_cut_count():
    # the count is the number of arcs on cut circles, which the cut CLI
    # prints with its ratio to the Theorem 1 degree bound
    scene = parse_scene((DATA / "lattice-n48-g4-s1.scene").read_text())
    result = lens_cutting(scene, 3)
    assert verify_cut(scene, result)
    for count in (0, result.cut_count - 1, result.cut_count + 1,
                  len(result.arcs)):
        assert not verify_cut(scene, CutResult(result.arcs, count, 3)), count


def test_verify_cut_counts_both_arcs_through_a_cut_base_pair(worked_pencil):
    # the pencil's lens (0, -1)-(0, 1) at k = 3: cutting leaves circle 0
    # whole and cuts circle 2 at both midpoints; cutting circle 0 exactly at
    # the base points gives two arcs that each hold both points
    result = lens_cutting(worked_pencil, 3)
    assert verify_cut(worked_pencil, result)
    assert [a.circle_id for a in result.arcs] == [0, 1, 2, 2]

    def with_circle_0_cut_at(*dirs):
        ends = [(QuadNum.of(x), QuadNum.of(y)) for x, y in dirs]
        arcs = tuple(CircleArc(0, d, ends[(j + 1) % 2])
                     for j, d in enumerate(ends))
        return CutResult(arcs + result.arcs[1:], result.cut_count + 2, 3)

    assert not verify_cut(worked_pencil, with_circle_0_cut_at((0, -1), (0, 1)))
    assert verify_cut(worked_pencil, with_circle_0_cut_at((1, 0), (-1, 0)))


LATTICE = {n: random_scene(GeneratorSpec(model="lattice-triples", n=n,
                                         seed=seed, spread=F(4)))
           for n, seed in ((24, 2), (36, 3))}


def test_cutting_leaves_no_circle_with_a_single_cut(corpus):
    # lens_cutting cuts an uncut circle at both sides' midpoints, and a cut
    # circle only inside a side free of cuts, so no circle holds one cut
    # and no cut repeats
    scenes = corpus + [(f"lattice-{n}", scene) for n, scene in LATTICE.items()]
    for name, scene in scenes:
        for k in (2, 3, 4):
            result = lens_cutting(scene, k)
            arcs = Counter(arc.circle_id for arc in result.arcs)
            assert all(arcs[arc.circle_id] > 1 for arc in result.arcs
                       if not arc.is_full), (name, k)
            starts = {(arc.circle_id, arc.start) for arc in result.arcs}
            assert len(starts) == len(result.arcs), (name, k)


@pytest.mark.parametrize("n", sorted(LATTICE))
def test_cutting_rich_lattice_scenes(n):
    scene = LATTICE[n]
    for k in (3, 4):
        assert rich_lenses(enumerate_lenses(scene), k)
        result = lens_cutting(scene, k)
        assert result.cut_count > 0, (n, k)
        assert verify_cut(scene, result), (n, k)
        family = select_family(rich_lenses(enumerate_lenses(scene), k), scene)
        assert family.certificate and coplanarity_audit(scene, family).clean


def _copy(lens, square: bool) -> Lens:
    """The lens built apart on fresh point objects; when square, a base pair
    over the radicand delta is written over 4*delta."""
    p, q = lens.base
    if square and p.delta:
        p, q = (QuadPoint(QuadNum(u.x.a, u.x.b / 2, 4 * u.delta),
                          QuadNum(u.y.a, u.y.b / 2, 4 * u.delta)) for u in (p, q))
    return Lens((QuadPoint(p.x, p.y), QuadPoint(q.x, q.y)), lens.circles)


def test_family_does_not_depend_on_lens_objects_or_order():
    # the scene's own lenses are selected in index order, shuffled or not;
    # any other pool (fresh copies, copies over a radicand with a square
    # factor, or a shuffled mix of own lenses and copies) is sorted by
    # Lens.compare.  The greedy scan and the exact search's branching both
    # follow that lens order; the exact pools stay within its cap of 30.
    rng, radicands = random.Random(3), set()
    for spec, k in ((GeneratorSpec(model="lattice-triples", n=48, seed=1,
                                   spread=F(4)), 3),
                    (GeneratorSpec(model="uniform-random", n=16, seed=9), 2)):
        scene = random_scene(spec)
        own = rich_lenses(enumerate_lenses(scene), k)
        for mode, pool in (("greedy", own), ("exact", own[:30])):
            family = select_family(pool, scene, mode)
            assert len(family) > 1
            copies = [_copy(lens, False) for lens in pool]
            squared = [_copy(lens, True) for lens in pool]
            radicands.update(lens.base[0].delta % 4 for lens in squared
                             if lens.base[0].delta)
            mixed = [rng.choice(pair) for pair in zip(pool, copies)]
            assert {lens._index is None for lens in mixed} == {True, False}
            for other in (list(pool), copies, squared, mixed):
                rng.shuffle(other)
                assert select_family(other, scene, mode) == family, mode
            assert not _kept_records(copies + squared)  # none for the copies
            assert list(family.members) == sorted(family.members,
                                                  key=cmp_to_key(Lens.compare))
    assert radicands == {0}  # some copies, all over 4*delta


def _pinned_reprs(scene_path: Path) -> list[str]:
    """The reprs of the greedy and (within EXACT_CAP) exact families, the
    cut, its verdict and the greedy family's audit, at k = 2 and 3."""
    scene, out = parse_scene(scene_path.read_text()), []
    for k in (2, 3):
        pool = enumerate_lenses(scene, k)
        family = select_family(pool, scene)
        out += [repr(family), repr(coplanarity_audit(scene, family))]
        if len(pool) <= EXACT_CAP:
            out.append(repr(select_family(pool, scene, mode="exact")))
        cut = lens_cutting(scene, k)
        out += [repr(cut), repr(verify_cut(scene, cut))]
    return out


# the sha256 of _pinned_reprs over the tests/data scenes: a change to any
# family, audit, cut or verdict they give changes it
PINNED_SHA256 = \
    "d3d7e85aad55297cb7a9b78d0daed0bc8fc82fca326dd52e44c10ca2649d81d6"


def test_families_cuts_verdicts_and_audits_match_their_pinned_hash():
    digest = hashlib.sha256()
    for path in sorted(DATA.glob("*.scene")):
        for text in _pinned_reprs(path):
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == PINNED_SHA256
