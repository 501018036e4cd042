"""Non-overlapping lens families and lens cutting, on one arc model.

The model sorts the base points on each circle once (geometry.cyclic_key),
so a lens arc (geometry.lens_arc) is a pair of vertex indices, and overlap
and covering tests compare integers.  Family selection is greedy (degree-
descending scan) or exact (branch-and-bound maximum independent set in the
overlap graph).  Lens cutting cuts circles until no k-rich lens of the
scene's one enumeration lies on k arcs; verify_cut re-reads the arcs alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass
from operator import eq

from .errors import CapExceeded, DegenerateInput
from .geometry import (Dir, canonical_dir, centered, cyclic_key,
                       lens_arc_forward, point_on_circle)
from .pencils import Lens, Scene, enumerate_lenses, lens_keys, rich_lenses


def _position(keys, d: Dir) -> int:
    """Doubled index of direction d among sorted cyclic keys: 2i at key i,
    2i + 1 strictly between keys i and i + 1 (cyclically)."""
    key = cyclic_key(d)
    i = bisect_left(keys, key)
    return 2 * i if i < len(keys) and keys[i] == key else (2 * i - 1) % (2 * len(keys))


def _point_ids(lenses) -> list[tuple[int, int]]:
    """Base pairs as ids, equal points sharing one (one hash per point)."""
    ids: dict = {}
    return [(ids.setdefault(p, len(ids)), ids.setdefault(q, len(ids)))
            for p, q in (lens.base for lens in lenses)]


class _ArcModel:
    """The vertices of each circle in CCW order from angle 0, and lens arcs
    as pairs of vertex indices.  on[cid] maps the ids of the vertices on
    circle cid to their directions, and pairs[i] holds the ids of lenses[i]'s
    base points in base order.  order[cid], dirs[cid] and keys[cid] are the
    ids, directions and cyclic keys in order; arcs[i][cid] = (s, e): the
    lens arc of lenses[i] runs CCW from vertex s to e.  Extra vertices leave
    overlap unchanged, since they keep which arcs hold which starts."""

    def __init__(self, on: dict, lenses, pairs):
        self.order, self.dirs, self.keys, index = {}, {}, {}, {}
        for cid, dirs in on.items():
            key = {pid: cyclic_key(d) for pid, d in dirs.items()}
            order = self.order[cid] = sorted(key, key=key.get)
            self.dirs[cid] = [dirs[pid] for pid in order]
            self.keys[cid] = [key[pid] for pid in order]
            index[cid] = {pid: i for i, pid in enumerate(order)}
        self.arcs = [{cid: (index[cid][p], index[cid][q])
                      if lens_arc_forward(on[cid][p], on[cid][q])
                      else (index[cid][q], index[cid][p])
                      for cid in lens.circles}
                     for lens, (p, q) in zip(lenses, pairs)]

    @classmethod
    def of(cls, scene: Scene, lenses, checked: bool = True) -> "_ArcModel":
        """The model whose vertices are the lenses' base points.  If checked,
        as overlap requires, base points must lie on their lens's circles."""
        pairs = _point_ids(lenses)
        on: dict[int, dict] = defaultdict(dict)  # cid -> {point id: direction}
        for lens, pair in zip(lenses, pairs):
            if pair[0] == pair[1]:
                raise DegenerateInput("coincident points in a pair")
            for cid in lens.circles:
                for pid, pt in zip(pair, lens.base):
                    if pid not in on[cid]:
                        if checked and not point_on_circle(pt, scene.circles[cid]):
                            raise DegenerateInput(
                                f"base point {pt} is not on circle {cid}")
                        on[cid][pid] = centered(pt, scene.circles[cid])
        return cls(on, lenses, pairs)

    def overlap(self, i: int, j: int) -> bool:
        """Two closed CCW index intervals meet iff one holds the other's
        start; lenses overlap iff their lens arcs meet on a shared circle."""
        for cid, (s, e) in self.arcs[i].items():
            if cid in self.arcs[j]:
                m, (s2, e2) = len(self.dirs[cid]), self.arcs[j][cid]
                if (s2 - s) % m <= (e - s) % m or (s - s2) % m <= (e2 - s2) % m:
                    return True
        return False


def lenses_overlap(l1: Lens, l2: Lens, scene: Scene) -> bool:
    """True iff a shared circle's lens arcs for the two base pairs meet."""
    shared = set(l1.circles) & set(l2.circles)
    return bool(shared) and _ArcModel.of(scene, (l1, l2)).overlap(0, 1)


@dataclass(frozen=True)
class LensFamily:
    """A set of lenses with a verified pairwise-non-overlap certificate."""

    members: tuple[Lens, ...]
    certificate: bool
    total_degree: int

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


def _greedy(model: _ArcModel, lenses, keys) -> list[int]:
    """The degree-descending scan (ties in lens order, by keys): each lens is
    kept unless it overlaps one kept before it."""
    kept: list[int] = []
    for i in sorted(range(len(lenses)), key=lambda i: (-lenses[i].degree, keys[i])):
        if not any(model.overlap(i, j) for j in kept):
            kept.append(i)
    return kept


def select_family(lenses, scene: Scene, mode: str = "greedy",
                  exact_cap: int = 30) -> LensFamily:
    """Pick a pairwise non-overlapping subfamily.

    greedy: scan by degree descending, keep whatever stays non-overlapping.
    exact: maximum-cardinality independent set in the overlap graph.
    """
    lenses = list(lenses)
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and len(lenses) > exact_cap:
        raise CapExceeded(f"exact selection capped at {exact_cap} lenses")
    model, n = _ArcModel.of(scene, lenses), len(lenses)
    keys = lens_keys(lenses)
    if mode == "greedy":
        kept = _greedy(model, lenses, keys)
    else:
        mask = _max_independent_set(
            [sum(1 << j for j in range(n) if j != i and model.overlap(i, j))
             for i in range(n)], n)
        kept = [i for i in range(n) if mask >> i & 1]
    kept.sort(key=keys.__getitem__)
    certificate = all(not model.overlap(i, j)
                      for a, i in enumerate(kept) for j in kept[a + 1:])
    members = tuple(lenses[i] for i in kept)
    return LensFamily(members=members, certificate=certificate,
                      total_degree=sum(m.degree for m in members))


# -- lens cutting -------------------------------------------------------------

@dataclass(frozen=True)
class CircleArc:
    """A closed arc of a cut circle, CCW from start to end: exact directions
    (geometry.canonical_dir) of lens arc midpoints.  start is None for an
    uncut circle; start == end for a circle with a single cut."""

    circle_id: int
    start: Dir | None
    end: Dir | None

    @property
    def is_full(self) -> bool:
        return self.start is None


@dataclass(frozen=True)
class CutResult:
    arcs: tuple[CircleArc, ...]
    cut_count: int
    k: int


def _midpoints(s: Dir, e: Dir) -> tuple[Dir, Dir]:
    """Midpoint directions of the lens arc CCW from s to e and of the rest of
    the circle.  Only a diameter's lens arc is a half circle; it starts at s."""
    m = (s[0] + e[0], s[1] + e[1])
    if not (m[0].sign() or m[1].sign()):
        m = (-s[1], s[0])
    return canonical_dir(m), canonical_dir((-m[0], -m[1]))


def lens_cutting(scene: Scene, k: int) -> CutResult:
    """Cut circles into arcs until no point pair lies on k arcs.

    While a k-rich lens lies on k arcs, each after the first k - 1 (by circle,
    then from angle 0) is cut at the midpoint of the side of the base pair it
    covers, else at the other side's; a one-arc circle is cut at both.  A cut
    sits at a doubled index: 2i on vertex i, 2i + 1 in the gap after it."""
    targets = rich_lenses(enumerate_lenses(scene), k)  # InvalidRichness if k < 2
    model = _ArcModel.of(scene, targets, checked=False)
    cuts: dict[int, set] = defaultdict(set)  # cid -> cut directions
    at: dict[int, list] = defaultdict(list)  # cid -> their doubled indices

    def covering(i) -> list:
        """(cid, side) per covering arc: side 0 over the lens arc, 1 over the
        rest (covered iff no cut is strictly inside), None for one arc."""
        out = []
        for cid, (s, e) in model.arcs[i].items():
            if len(at[cid]) <= 1:
                out.append((cid, None))
                continue
            # both sides free: arcs from cuts on vertices s and e, in order
            for side in ((0, 1) if s < e else (1, 0)):
                a, b = (2 * s, 2 * e)[::1 - 2 * side]
                inside = bisect_left(at[cid], b) - bisect_right(at[cid], a)
                if inside + (len(at[cid]) if a > b else 0) == 0:
                    out.append((cid, side))
        return out

    def cut(cid, d) -> bool:
        if d in cuts[cid]:
            return False
        cuts[cid].add(d)
        insort(at[cid], _position(model.keys[cid], d))
        return True

    changed = True
    while changed:
        changed = False
        for i in range(len(targets)):
            cov = covering(i)
            for cid, side in cov[k - 1:] if len(cov) >= k else ():
                mids = _midpoints(*(model.dirs[cid][v] for v in model.arcs[i][cid]))
                if side is None:
                    changed |= cut(cid, mids[0]) | cut(cid, mids[1])
                else:
                    changed |= cut(cid, mids[side]) or cut(cid, mids[1 - side])
    if any(len(covering(i)) >= k for i in range(len(targets))):
        raise DegenerateInput("lens cutting failed to reach a fixpoint")
    arcs = []
    for cid in range(len(scene)):
        ordered = sorted(cuts.get(cid, ()), key=cyclic_key)
        arcs += [CircleArc(cid, d, ordered[(j + 1) % len(ordered)])
                 for j, d in enumerate(ordered)] or [CircleArc(cid, None, None)]
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
        if len(arcs) == 1 and arcs[0].is_full:
            cut_keys.append([])
            continue
        if not arcs or any(arc.is_full for arc in arcs):
            return None
        arcs.sort(key=lambda arc: cyclic_key(arc.start))
        keys = [cyclic_key(arc.start) for arc in arcs]
        if ([cyclic_key(arc.end) for arc in arcs] != keys[1:] + keys[:1]
                or any(map(eq, keys, keys[1:]))):
            return None
        cut_keys.append(keys)
    rich = rich_lenses(enumerate_lenses(scene), result.k)
    held: dict = {}  # (cid, point id) -> the arcs holding the point
    counts = []
    for lens, pair in zip(rich, _point_ids(rich)):
        count = 0
        for cid in lens.circles:
            t = len(cut_keys[cid])
            for pid, pt in zip(pair, lens.base):
                if t > 1 and (cid, pid) not in held:
                    j, odd = divmod(_position(
                        cut_keys[cid], centered(pt, scene.circles[cid])), 2)
                    held[cid, pid] = {j} if odd else {j, (j - 1) % t}
            count += 1 if t <= 1 else len(held[cid, pair[0]] & held[cid, pair[1]])
        counts.append(count)
    return counts


def verify_cut(scene: Scene, result: CutResult) -> bool:
    """Re-check a cut from its arcs alone: they tile every circle, and no
    k-rich lens lies on k of them.  An arc on a circle the scene lacks
    raises DegenerateInput."""
    counts = _covering_counts(scene, result)
    return counts is not None and all(n < result.k for n in counts)
