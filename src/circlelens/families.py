"""Non-overlapping lens families: overlap tests, selection, and lens cutting.

Overlap between two lenses means their lens arcs intersect on some shared
circle (geometry.lens_arc: the shorter arc between the base points, or for a
diameter the CCW half from the lexicographically smaller one).  Family
selection comes in a greedy flavor (degree-descending scan) and an exact
flavor (branch-and-bound maximum independent set in the overlap graph).  Lens
cutting splits circles into arcs until no point pair lies on k of them; the
fixpoint is re-checked against the scene's k-rich lenses, which both cutting
and verify_cut take from the scene's one enumeration (enumerate_lenses).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .errors import CapExceeded, DegenerateInput, InvalidRichness
from .geometry import (Dir, arcs_overlap, canonical_dir, centered, cross_sign,
                       cyclic_cmp, dir_in_ccw_arc, opposite_direction,
                       same_direction)
from .pencils import Lens, Scene, enumerate_lenses, rich_lenses
from .quadfield import QuadNum


def lenses_overlap(l1: Lens, l2: Lens, scene: Scene) -> bool:
    """True iff a shared circle's lens arcs for the two base pairs meet."""
    shared = set(l1.circles) & set(l2.circles)
    if l1.base == l2.base and shared:
        return True
    for cid in shared:
        if arcs_overlap(scene.circles[cid], l1.base, l2.base):
            return True
    return False


@dataclass(frozen=True)
class LensFamily:
    """A set of lenses with a verified pairwise-non-overlap certificate."""

    members: tuple[Lens, ...]
    certificate: bool
    total_degree: int

    def __len__(self):
        return len(self.members)


def _certify(members, scene) -> bool:
    return all(not lenses_overlap(a, b, scene)
               for i, a in enumerate(members) for b in members[i + 1:])


def _greedy_order(lenses):
    return sorted(lenses, key=cmp_to_key(
        lambda a, b: (b.degree - a.degree) or a.compare(b)))


def _max_independent_set(adj: list[int], n: int) -> int:
    """Deterministic branch-and-bound MIS on a bitmask adjacency list."""
    best_mask = 0
    best_size = 0

    def expand(cand: int, cur: int, cur_size: int):
        nonlocal best_mask, best_size
        if cur_size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            if cur_size > best_size:
                best_size, best_mask = cur_size, cur
            return
        # pivot on the candidate with most candidate-neighbors
        v = max((i for i in range(n) if cand >> i & 1),
                key=lambda i: (adj[i] & cand).bit_count())
        expand(cand & ~(adj[v] | 1 << v), cur | 1 << v, cur_size + 1)
        expand(cand & ~(1 << v), cur, cur_size)

    expand((1 << n) - 1, 0, 0)
    return best_mask


def select_family(lenses, scene: Scene, mode: str = "greedy",
                  exact_cap: int = 30) -> LensFamily:
    """Pick a pairwise non-overlapping subfamily.

    greedy: scan by degree descending, keep whatever stays non-overlapping.
    exact: maximum-cardinality independent set in the overlap graph.
    """
    lenses = list(lenses)
    if mode == "greedy":
        kept: list[Lens] = []
        for lens in _greedy_order(lenses):
            if all(not lenses_overlap(lens, other, scene) for other in kept):
                kept.append(lens)
    elif mode == "exact":
        if len(lenses) > exact_cap:
            raise CapExceeded(f"exact selection capped at {exact_cap} lenses")
        n = len(lenses)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if lenses_overlap(lenses[i], lenses[j], scene):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        mask = _max_independent_set(adj, n)
        kept = [lenses[i] for i in range(n) if mask >> i & 1]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    members = tuple(sorted(kept, key=cmp_to_key(lambda a, b: a.compare(b))))
    return LensFamily(members=members,
                      certificate=_certify(members, scene),
                      total_degree=sum(m.degree for m in members))


# -- lens cutting -------------------------------------------------------------

@dataclass(frozen=True)
class CircleArc:
    """One arc of a cut circle.

    Endpoints are stored as exact direction vectors from the circle's center
    (cut points generally leave the quadratic field of any single lens, but
    their directions do not).  start is None for an uncut full circle; arcs
    run CCW from start to end and are closed.
    """

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


_dir_key = cmp_to_key(cyclic_cmp)


def _arcs_from_cuts(cuts: list[Dir]) -> list[tuple[Dir, Dir] | None]:
    """Arc intervals between cyclically consecutive cut directions."""
    if not cuts:
        return [None]
    if len(cuts) == 1:
        return [(cuts[0], cuts[0])]
    ordered = sorted(cuts, key=_dir_key)
    return [(ordered[i], ordered[(i + 1) % len(ordered)])
            for i in range(len(ordered))]


def _arc_contains(arc, v: Dir) -> bool:
    if arc is None:
        return True
    s, e = arc
    if same_direction(s, e):  # single cut: whole circle, closed at s
        return True
    return dir_in_ccw_arc(v, s, e)


def _mid_candidates(dp: Dir, dq: Dir) -> tuple[Dir, Dir]:
    """The two arc-midpoint directions of the p-q chord (shorter first)."""
    if opposite_direction(dp, dq):
        perp = (-dp[1], dp[0])
        return canonical_dir(perp), canonical_dir((dp[1], -dp[0]))
    m = (dp[0] + dq[0], dp[1] + dq[1])
    return canonical_dir(m), canonical_dir((-m[0], -m[1]))


def _in_path(arc, dp: Dir, dq: Dir, v: Dir) -> bool:
    """Is v on the path between dp and dq inside the given arc?"""
    if arc is None or same_direction(arc[0], arc[1]):
        # effectively uncut: both circle arcs between p and q are available
        return True
    s, _ = arc
    # order dp, dq by CCW position from the arc start
    if same_direction(dq, s):
        first, second = dq, dp
    elif same_direction(dp, s) or dir_in_ccw_arc(dp, s, dq):
        first, second = dp, dq
    else:
        first, second = dq, dp
    if same_direction(first, second):
        return False
    return dir_in_ccw_arc(v, first, second)


def lens_cutting(scene: Scene, k: int) -> CutResult:
    """Cut circles into arcs until no point pair lies on k arcs.

    Greedy fixpoint: while some k-rich base pair is still covered by k arcs,
    cut the lexicographically-last covering arcs at the midpoint of the in-arc
    path between the base points.  Before returning, every k-rich lens of
    the scene is checked against the returned arcs.
    """
    if k < 2:
        raise InvalidRichness("richness k must be at least 2")
    targets = [lens for lens in enumerate_lenses(scene) if lens.degree >= k]
    cuts: dict[int, list[Dir]] = {cid: [] for cid in range(len(scene))}
    base_dirs = {}
    for lens in targets:
        p, q = lens.base
        base_dirs[lens] = {cid: (centered(p, scene.circles[cid]),
                                 centered(q, scene.circles[cid]))
                           for cid in lens.circles}

    def covering(lens):
        out = []
        for cid in lens.circles:
            dp, dq = base_dirs[lens][cid]
            for idx, arc in enumerate(_arcs_from_cuts(cuts[cid])):
                if _arc_contains(arc, dp) and _arc_contains(arc, dq):
                    out.append((cid, idx, arc))
        return out

    changed = True
    while changed:
        changed = False
        for lens in targets:
            cov = covering(lens)
            if len(cov) < k:
                continue
            # keep the first k-1 covering arcs, cut the lexicographically-last
            for cid, _, arc in cov[k - 1:]:
                dp, dq = base_dirs[lens][cid]
                short_mid, long_mid = _mid_candidates(dp, dq)
                if arc is None or same_direction(arc[0], arc[1]):
                    # a full circle needs both midpoints to separate the pair
                    for m in (short_mid, long_mid):
                        if all(not same_direction(m, c) for c in cuts[cid]):
                            cuts[cid].append(m)
                            changed = True
                    continue
                chosen = None
                for m in (short_mid, long_mid):
                    if _arc_contains(arc, m) and _in_path(arc, dp, dq, m):
                        chosen = m
                        break
                candidates = (chosen, long_mid, short_mid) if chosen is not None \
                    else (short_mid, long_mid)
                for m in candidates:
                    if all(not same_direction(m, c) for c in cuts[cid]):
                        cuts[cid].append(m)
                        changed = True
                        break

    arcs = []
    for cid in range(len(scene)):
        for arc in _arcs_from_cuts(cuts[cid]):
            if arc is None:
                arcs.append(CircleArc(cid, None, None))
            else:
                arcs.append(CircleArc(cid, arc[0], arc[1]))

    # postcondition: re-check every k-rich base pair against the arcs
    for lens in targets:
        if len(covering(lens)) >= k:
            raise DegenerateInput("lens cutting failed to reach a fixpoint")
    return CutResult(arcs=tuple(arcs),
                     cut_count=sum(len(v) for v in cuts.values()),
                     k=k)


def verify_cut(scene: Scene, result: CutResult) -> bool:
    """Re-check from the result's arcs alone: no k-rich lens of the scene is
    covered by k arcs.  The lenses are the scene's one enumeration, which
    lens_cutting used too."""
    per_circle: dict[int, list] = {cid: [] for cid in range(len(scene))}
    for arc in result.arcs:
        per_circle[arc.circle_id].append(
            None if arc.is_full else (arc.start, arc.end))
    for lens in rich_lenses(enumerate_lenses(scene), result.k):
        count = 0
        for cid in lens.circles:
            dp = centered(lens.base[0], scene.circles[cid])
            dq = centered(lens.base[1], scene.circles[cid])
            for arc in per_circle[cid]:
                if _arc_contains(arc, dp) and _arc_contains(arc, dq):
                    count += 1
        if count >= result.k:
            return False
    return True
