"""Non-overlapping lens families and lens cutting, on integer cyclic keys.

A lens's vertices are its base points on each of its circles, as the integer
cyclic keys of pencils.lens_vertices.  A lens arc is the shorter arc between
the base points p < q, or for a diameter the CCW half from p; every stage
holds it as a closed CCW interval of keys (s, e), and two arcs meet iff one
holds the other's start (_holds).  Family selection is greedy (a
degree-descending scan that bisects each circle's kept arcs) or exact
(branch-and-bound maximum independent set in the overlap graph), in lens
order: by enumeration index when all are the scene's own, else by
Lens.compare.  Lens cutting cuts circles until no k-rich lens lies on k
arcs, and its arcs keep their end keys; cut_fault re-reads the arcs alone
and names a fault, verify_cut its verdict.
Both keep each circle's cuts as sorted cyclic keys and count covering arcs
by one rule, _covered.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from functools import cmp_to_key
from operator import attrgetter, eq, itemgetter

from .errors import CapExceeded, DegenerateInput
from .geometry import Dir, canonical_dir, cyclic_key, int_dir, paired_keys
from .pencils import (Lens, Scene, _own, enumerate_lenses, lens_text,
                      lens_vertices)
from .records import FrozenRecord


class LensFamily(FrozenRecord):
    """A set of lenses with a verified pairwise-non-overlap certificate."""

    _fields = ("members", "certificate", "total_degree")

    def __len__(self):
        return len(self.members)


def _max_independent_set(adj: list[int], n: int) -> int:
    """Deterministic branch-and-bound MIS on a bitmask adjacency list."""
    best = 0

    def expand(cand: int, cur: int):
        nonlocal best
        if (cur | cand).bit_count() <= best.bit_count():
            return
        if cand == 0:
            best = cur
            return
        # pivot on the candidate with most candidate-neighbors
        v = max((i for i in range(n) if cand >> i & 1),
                key=lambda i: (adj[i] & cand).bit_count())
        expand(cand & ~(adj[v] | 1 << v), cur | 1 << v)
        expand(cand & ~(1 << v), cur)

    expand((1 << n) - 1, 0)
    return best


def _lens_arcs(scene: Scene, lenses) -> list[dict]:
    """Per lens, {cid: (s, e)} on each of its circles: the cyclic keys of
    its base points (pencils.lens_vertices), its lens arc CCW from s to e."""
    return [{cid: (kp, kq) if forward else (kq, kp) for cid, (kp, kq, forward)
             in zip(lens.circles, lens_vertices(scene, lens))} for lens in lenses]


def _holds(s, e, x) -> bool:
    """Does the closed CCW arc from key s to key e, past angle 0 when e < s,
    hold the key x?  Keys tied on quadrant and prefix end in a
    geometry._Ray, which has only < and ==, so this uses < alone."""
    if e < s:
        return not (x < s and e < x)
    return not (x < s or e < x)


def _overlap(a: dict, b: dict) -> bool:
    """Two closed CCW arcs meet iff one holds the other's start; lenses
    overlap iff their lens arcs (_lens_arcs) meet on a shared circle."""
    return any(cid in b and (_holds(s, e, b[cid][0]) or _holds(*b[cid], s))
               for cid, (s, e) in a.items())


def _greedy(arcs: list[dict], degrees) -> list[int]:
    """The degree-descending scan, ties in index order, keeps each lens that
    overlaps none kept before it.  Kept arcs on a circle are disjoint, so an
    arc (s, e) meets one iff the first kept start from s on lies in it or
    the last kept arc to start before s holds s: one bisect per circle."""
    kept, held = [], defaultdict(list)  # cid -> kept (s, e), sorted
    for i in sorted(range(len(degrees)), key=lambda i: -degrees[i]):
        for cid, (s, e) in arcs[i].items():
            if ring := held[cid]:
                j = bisect_left(ring, (s,))
                if _holds(s, e, ring[j % len(ring)][0]) or _holds(*ring[j - 1], s):
                    break
        else:
            kept.append(i)
            for cid, arc in arcs[i].items():
                insort(held[cid], arc)
    return kept


# the most lenses exact selection searches
EXACT_CAP = 30


def select_family(lenses, scene: Scene, mode: str = "greedy") -> LensFamily:
    """Pick a pairwise non-overlapping subfamily.

    greedy: scan by degree descending, keep whatever stays non-overlapping.
    exact: maximum-cardinality independent set in the overlap graph.
    """
    lenses = list(lenses)
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and len(lenses) > EXACT_CAP:
        raise CapExceeded(f"exact selection capped at {EXACT_CAP} lenses")
    # in lens order, so the family does not depend on input order
    if all(_own(scene, lens) for lens in lenses):
        lenses.sort(key=attrgetter("_index"))
    else:
        lenses.sort(key=cmp_to_key(Lens.compare))
    arcs, n = _lens_arcs(scene, lenses), len(lenses)
    if mode == "greedy":
        kept = sorted(_greedy(arcs, [lens.degree for lens in lenses]))
    else:
        mask = _max_independent_set(
            [sum(1 << j for j in range(n) if j != i and _overlap(arcs[i], arcs[j]))
             for i in range(n)], n)
        kept = [i for i in range(n) if mask >> i & 1]
    certificate = all(not _overlap(arcs[i], arcs[j])
                      for a, i in enumerate(kept) for j in kept[a + 1:])
    members = tuple(lenses[i] for i in kept)
    return LensFamily(members=members, certificate=certificate,
                      total_degree=sum(m.degree for m in members))


# -- lens cutting -------------------------------------------------------------

class CircleArc(FrozenRecord):
    """A closed arc of a cut circle, CCW from start to end: exact directions
    (geometry.canonical_dir) of lens arc midpoints, None for an uncut
    circle; start == end for a circle with a single cut.  keys holds their
    cyclic keys, or None; an arc is built from either (lens_cutting's from
    keys), and the other is built on first read.  An arc with one end is
    DegenerateInput."""

    _fields = ("circle_id", "start", "end")

    def __init__(self, circle_id: int, start: Dir | None, end: Dir | None):
        if (start is None) != (end is None):
            raise DegenerateInput(f"arc on circle {circle_id} needs both "
                                  "ends or neither")
        self.__dict__.update(circle_id=circle_id, start=start, end=end)

    def __getattr__(self, name):
        values = vars(self)
        if name == "keys":
            values[name] = self.start and tuple(
                cyclic_key(int_dir(d)) for d in (self.start, self.end))
        elif name in ("start", "end"):
            values["start"], values["end"] = (canonical_dir(key[2].v)
                                              for key in self.keys)
        else:
            raise AttributeError(name)
        return values[name]

    @property
    def is_full(self) -> bool:
        return self.keys is None


def _keyed(circle_id: int, keys: tuple) -> CircleArc:
    arc = object.__new__(CircleArc)
    arc.__dict__.update(circle_id=circle_id, keys=keys)
    return arc


class CutResult(FrozenRecord):
    _fields = ("arcs", "cut_count", "k")


def _midpoints(kp, kq, forward: bool) -> tuple[tuple, tuple]:
    """Cyclic keys of the midpoint directions of a lens arc and of the rest
    of the circle, from lens_vertices.  The base points' directions share one
    scale and one radicand, so their sum bisects the lens arc, unless it is a
    diameter's half circle from s."""
    s, e = (kp[2].v, kq[2].v) if forward else (kq[2].v, kp[2].v)
    m = [a + b for a, b in zip(s[:4], e[:4])]
    if not any(m):
        m = [-s[2], -s[3], s[0], s[1]]
    return paired_keys((*m, s[4]), False)


def _covered(cuts: list, s, e) -> list:
    """The sides of the base pair (s, e) that one arc of a circle cut at the
    sorted keys cuts covers, in order from angle 0: 0 for the side CCW from
    s to e, 1 for the other, each iff no cut lies strictly inside it.  With
    at most one cut, [None]: one arc covers the whole circle."""
    if len(cuts) <= 1:
        return [None]
    out = []
    for side in ((0, 1) if s < e else (1, 0)):
        a, b = (s, e)[::1 - 2 * side]
        inside = bisect_left(cuts, b) - bisect_right(cuts, a)
        if inside + (len(cuts) if a > b else 0) == 0:
            out.append(side)
    return out


def lens_cutting(scene: Scene, k: int) -> CutResult:
    """Cut circles into arcs until no point pair lies on k arcs.

    While a k-rich lens lies on k arcs, each after the first k - 1 (by circle,
    then from angle 0) is cut at the midpoint of the side of the base pair it
    covers; an uncut circle is cut at both sides' midpoints.  A circle thus
    holds no cut or at least two, and a covered side has no cut strictly
    inside it, so every cut is new."""
    targets = enumerate_lenses(scene, k)  # InvalidRichness if k < 2
    cuts: dict[int, list] = defaultdict(list)  # cid -> cut keys, sorted
    # every cut is new and one of the two midpoints of a target lens on one
    # of its circles, so every pass but the last makes one of those cuts
    for _ in range(2 * sum(lens.degree for lens in targets) + 1):
        changed = False
        for lens in targets:
            cov = []  # (cid, side, vertex triple) per covering arc
            for cid, vertex in zip(lens.circles, lens_vertices(scene, lens)):
                s, e = vertex[:2] if vertex[2] else vertex[1::-1]
                cov += [(cid, side, vertex) for side in _covered(cuts[cid], s, e)]
            for cid, side, vertex in cov[k - 1:] if len(cov) >= k else ():
                mids = _midpoints(*vertex)
                for key in mids if side is None else (mids[side],):
                    insort(cuts[cid], key)
                changed = True
        if not changed:
            break
    else:
        raise DegenerateInput("lens cutting made more passes than it has cuts")
    arcs = []
    for cid in range(len(scene)):
        keys = cuts.get(cid, [])
        arcs += [_keyed(cid, ends) for ends in zip(keys, keys[1:] + keys[:1])
                 ] or [CircleArc(cid, None, None)]
    return CutResult(tuple(arcs), sum(map(len, cuts.values())), k)


def _covering_counts(scene: Scene, result: CutResult) -> list[int] | None:
    """Per k-rich lens, the number of the result's arcs holding both base
    points; None unless one arc or a chain of arcs tiles each circle."""
    by_circle: list[list] = [[] for _ in scene.circles]
    for arc in result.arcs:
        if not 0 <= arc.circle_id < len(scene):
            raise DegenerateInput(f"arc on circle {arc.circle_id}, but the "
                                  f"scene has circles 0..{len(scene) - 1}")
        by_circle[arc.circle_id].append(arc)
    cut_keys = []  # per circle, the sorted keys of its cuts (arc j: j -> j + 1)
    for arcs in by_circle:
        ends = [arc.keys for arc in arcs]
        if ends == [None]:
            cut_keys.append([])
            continue
        if not ends or None in ends:
            return None
        ends.sort(key=itemgetter(0))
        keys = [start for start, _ in ends]
        if ([end for _, end in ends] != keys[1:] + keys[:1]
                or any(map(eq, keys, keys[1:]))):
            return None
        cut_keys.append(keys)
    return [sum(len(_covered(cut_keys[cid], kp, kq))
                for cid, (kp, kq, _) in zip(lens.circles, lens_vertices(scene, lens)))
            for lens in enumerate_lenses(scene, result.k)]


def cut_fault(scene: Scene, result: CutResult) -> str | None:
    """The first fault of a cut, read from its arcs alone, or None: arcs
    that fail to tile each circle, a k-rich lens on k arcs, or a wrong
    cut_count.  An arc on a circle the scene lacks is DegenerateInput."""
    counts = _covering_counts(scene, result)
    if counts is None:
        return "the arcs do not tile every circle"
    for i, n in enumerate(counts):
        if n >= result.k:
            return f"{lens_text(enumerate_lenses(scene, result.k)[i])} lies on {n} arcs"
    cut = sum(not arc.is_full for arc in result.arcs)
    return None if result.cut_count == cut else (
        f"cut_count {result.cut_count}, but {cut} arcs on cut circles")


def verify_cut(scene: Scene, result: CutResult) -> bool:
    """Does the cut pass its re-check (cut_fault)?"""
    return cut_fault(scene, result) is None
