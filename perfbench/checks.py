"""Exact checks of the program's outputs, computed apart from the program.

Nothing here imports circlelens or reuses its predicates.  Inputs are the
benchmark's own scene data (circles as (cx, cy, r2) Fraction triples, points
as (x, y) pairs) plus the program's outputs, read by attribute.  All
arithmetic is on Fractions: a value in a quadratic extension is a pair (a, b)
meaning a + b*sqrt(m) for a rational m >= 0 that need not be square-free,
and the sign of a sum over two such extensions is decided by squaring once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt


def sgn(x) -> int:
    return (x > 0) - (x < 0)


def sign_q(a, b, m) -> int:
    """Sign of a + b*sqrt(m)."""
    sa, sb = sgn(a), (sgn(b) if m else 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    t = sgn(a * a - b * b * m)
    return sa if t > 0 else sb if t < 0 else 0


def sign_biq(r0, r1, r2, r3, al, be) -> int:
    """Sign of r0 + r1*sqrt(al) + r2*sqrt(be) + r3*sqrt(al)*sqrt(be)."""
    if al == be:
        return sign_q(r0 + r3 * al, r1 + r2, al)
    # X + Y*sqrt(be) with X = r0 + r1*sqrt(al), Y = r2 + r3*sqrt(al)
    sx, sy = sign_q(r0, r1, al), (sign_q(r2, r3, al) if be else 0)
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    # compare X^2 with be * Y^2, both in Q(sqrt(al))
    sz = sign_q(r0 * r0 + r1 * r1 * al - be * (r2 * r2 + r3 * r3 * al),
                2 * r0 * r1 - 2 * be * r2 * r3, al)
    return sx if sz > 0 else sy if sz < 0 else 0


# A direction is (xa, xb, ya, yb, m): the vector (xa + xb*sqrt(m), ya + yb*sqrt(m)).

def _bilinear_sign(u, v, cross: bool) -> int:
    uxa, uxb, uya, uyb, al = u
    vxa, vxb, vya, vyb, be = v
    if cross:  # ux*vy - uy*vx
        pairs = ((uxa, uxb, vya, vyb, 1), (uya, uyb, vxa, vxb, -1))
    else:  # ux*vx + uy*vy
        pairs = ((uxa, uxb, vxa, vxb, 1), (uya, uyb, vya, vyb, 1))
    r = [0, 0, 0, 0]
    for a, b, c, d, s in pairs:
        r[0] += s * a * c
        r[1] += s * b * c
        r[2] += s * a * d
        r[3] += s * b * d
    return sign_biq(*r, al, be)


def cross_sign(u, v) -> int:
    return _bilinear_sign(u, v, True)


def dot_sign(u, v) -> int:
    return _bilinear_sign(u, v, False)


def same_direction(u, v) -> bool:
    return cross_sign(u, v) == 0 and dot_sign(u, v) > 0


def _half(s, w) -> int:
    c = cross_sign(s, w)
    return 0 if c > 0 or (c == 0 and dot_sign(s, w) > 0) else 1


def in_ccw_arc(v, s, e) -> bool:
    """v on the closed arc running counterclockwise from s to e (s != e)."""
    hv, he = _half(s, v), _half(s, e)
    if hv != he:
        return hv < he
    return cross_sign(v, e) >= 0


def quad_to_pair(q) -> tuple:
    """(a, b, m) of a program value a + b*sqrt(delta), read by attribute."""
    return Fraction(q.a), Fraction(q.b), Fraction(q.delta)


def direction_of(d) -> tuple:
    """A program direction (a pair of quadratic numbers) as a direction."""
    (xa, xb, mx), (ya, yb, my) = quad_to_pair(d[0]), quad_to_pair(d[1])
    if mx and my and mx != my:
        raise ValueError("direction coordinates in different fields")
    return (xa, xb if mx else 0, ya, yb if my else 0, mx or my)


# -- circles ------------------------------------------------------------------

def power(p, c) -> Fraction:
    return (p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2 - c[2]


def meets_twice(c1, c2) -> bool:
    """Two circles cross in two points: 4 r1^2 r2^2 > (D - r1^2 - r2^2)^2."""
    d = (c1[0] - c2[0]) ** 2 + (c1[1] - c2[1]) ** 2
    return 4 * c1[2] * c2[2] - (d - c1[2] - c2[2]) ** 2 > 0


def chord(c1, c2) -> tuple:
    """Radical axis A x + B y + C = 0 of two circles, as rationals."""
    return (2 * (c2[0] - c1[0]), 2 * (c2[1] - c1[1]),
            (c1[0] ** 2 + c1[1] ** 2 - c1[2]) - (c2[0] ** 2 + c2[1] ** 2 - c2[2]))


def det3(l1, l2, l3) -> Fraction:
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = l1, l2, l3
    return (a1 * (b2 * c3 - b3 * c2) - b1 * (a2 * c3 - a3 * c2)
            + c1 * (a2 * b3 - a3 * b2))


def meet(l1, l2):
    """Common point of two lines, None if parallel."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    den = a1 * b2 - a2 * b1
    if den == 0:
        return None
    return ((b1 * c2 - b2 * c1) / den, (c1 * a2 - c2 * a1) / den)


def base_points(c1, c2) -> tuple:
    """The two crossing points of two circles, each as (xa, xb, ya, yb, m):
    the chord midpoint plus/minus sqrt(m) times the chord normal rotated."""
    a, b, c = chord(c1, c2)
    n2 = a * a + b * b
    t = (a * c1[0] + b * c1[1] + c) / n2
    fx, fy = c1[0] - t * a, c1[1] - t * b
    m = (c1[2] - t * t * n2) / n2
    return (fx, -b, fy, a, m), (fx, b, fy, -a, m)


def rational_point(p):
    """The point as a Fraction pair if both coordinates are rational."""
    xa, xb, ya, yb, m = p
    num, den = m.numerator, m.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        r = Fraction(rn, rd)
        return (xa + xb * r, ya + yb * r)
    if xb == 0 and yb == 0:
        return (xa, ya)
    return None


def point_str(p) -> str:
    q = rational_point(p)
    if q is not None:
        return f"({q[0]}, {q[1]})"
    xa, xb, ya, yb, m = p
    return f"({xa} + ({xb})*sqrt({m}), {ya} + ({yb})*sqrt({m}))"


def on_circle(p, c) -> bool:
    xa, xb, ya, yb, m = p
    dx, dy = xa - c[0], ya - c[1]
    return sign_q(dx * dx + xb * xb * m + dy * dy + yb * yb * m - c[2],
                  2 * dx * xb + 2 * dy * yb, m) == 0


def centred(p, c) -> tuple:
    xa, xb, ya, yb, m = p
    return (xa - c[0], xb, ya - c[1], yb, m)


# -- stage checks -------------------------------------------------------------
# Each returns None when the output is right, else a one-line witness.

def check_enumeration(circles, lenses) -> str | None:
    """Every lens is real and the lenses account for every crossing pair."""
    pair_total = 0
    for lens in lenses:
        ids = tuple(lens.circles)
        if len(ids) < 2 or len(set(ids)) != len(ids):
            return f"lens {ids} has fewer than two distinct circles"
        p, q = base_points(circles[ids[0]], circles[ids[1]])
        for cid in ids[2:]:
            if not (on_circle(p, circles[cid]) and on_circle(q, circles[cid])):
                return f"circle {cid} misses the base pair of lens {ids}"
        pair_total += len(ids) * (len(ids) - 1) // 2
    crossing = sum(1 for c1, c2 in combinations(circles, 2) if meets_twice(c1, c2))
    if pair_total != crossing:
        return (f"sum of C(degree, 2) is {pair_total}, "
                f"but {crossing} circle pairs cross twice")
    return None


def grid_lenses(circles, grid) -> set:
    """(base pair, circles) of every lens with both base points on the grid,
    found by grouping circles through each pair of grid points."""
    on = [frozenset(i for i, c in enumerate(circles) if power(g, c) == 0)
          for g in grid]
    out = set()
    for (g1, s1), (g2, s2) in combinations(zip(grid, on), 2):
        shared = s1 & s2
        if len(shared) >= 2:
            out.add((frozenset((g1, g2)), shared))
    return out


def check_grid_lenses(circles, grid, lenses) -> str | None:
    grid_set = set(grid)
    found = set()
    for lens in lenses:
        pts = [rational_point(p)
               for p in base_points(circles[lens.circles[0]], circles[lens.circles[1]])]
        if all(p is not None and p in grid_set for p in pts):
            found.add((frozenset(pts), frozenset(lens.circles)))
    expected = grid_lenses(circles, grid)
    if found != expected:
        return (f"{len(found)} grid lenses enumerated, {len(expected)} expected; "
                f"{len(found ^ expected)} differ")
    return None


def _lens_chord(circles, lens) -> tuple:
    return chord(circles[lens.circles[0]], circles[lens.circles[1]])


def concurrent_triples(circles, members) -> set:
    """(circle id, frozenset of lens circle tuples) for every circle carrying
    three family lenses whose chords are concurrent or all parallel."""
    by_circle: dict[int, list] = {}
    for lens in members:
        for cid in lens.circles:
            by_circle.setdefault(cid, []).append(lens)
    out = set()
    for cid, ls in by_circle.items():
        for trio in combinations(ls, 3):
            if det3(*(_lens_chord(circles, l) for l in trio)) == 0:
                out.add((cid, frozenset(tuple(l.circles) for l in trio)))
    return out


def triple_witness(circles, cid, trio) -> str:
    trio = sorted(trio)
    c = circles[cid]
    bases = ["-".join(point_str(p) for p in base_points(circles[t[0]], circles[t[1]]))
             for t in trio]
    chords = [chord(circles[t[0]], circles[t[1]]) for t in trio]
    at = meet(chords[0], chords[1]) or meet(chords[0], chords[2])
    where = f"meet at ({at[0]}, {at[1]})" if at else "are parallel"
    return (f"circle ({c[0]}, {c[1]}) r2={c[2]}: chords of lenses "
            f"{'; '.join(bases)} {where}")


def check_family(circles, rich, family, k) -> str | None:
    members = list(family.members)
    rich_sets = {tuple(l.circles) for l in rich}
    for l in members:
        if len(l.circles) < k or tuple(l.circles) not in rich_sets:
            return f"family lens {tuple(l.circles)} is not a {k}-rich lens"
    if len({tuple(l.circles) for l in members}) != len(members):
        return "family repeats a lens"
    if not family.certificate:
        return "family is not certified non-overlapping"
    if family.total_degree != sum(len(l.circles) for l in members):
        return "total degree differs from the sum of member degrees"
    bad = concurrent_triples(circles, members)
    if bad:
        cid, trio = min(bad, key=lambda t: (t[0], sorted(t[1])))
        return (f"Lemma 3 fails on {len(bad)} triple(s) of a certified family; "
                + triple_witness(circles, cid, trio))
    return None


def check_audit(circles, family, report) -> str | None:
    flagged = {(cid, frozenset(tuple(l.circles) for l in trio))
               for cid, trio in report.coplanar_triples}
    expected = concurrent_triples(circles, family.members)
    if flagged != expected:
        return (f"audit flagged {len(flagged)} triples; "
                f"{len(expected)} have concurrent or parallel chords")
    return None


def check_orders(rich, results) -> str | None:
    """results[i] is the OrderReversal of rich[i], or None if Inconclusive."""
    for lens, r in zip(rich, results):
        if r is None:
            continue
        kept = sorted(set(lens.circles) - set(r.excluded))
        if sorted(r.order_at_p) != kept or sorted(r.order_at_q) != kept:
            return f"lens {tuple(lens.circles)}: orders are not of its circles"
        if not r.reversed or tuple(r.order_at_q) != tuple(reversed(r.order_at_p)):
            return f"lens {tuple(lens.circles)}: slope order does not reverse"
    return None


def count_covering_arcs(circles, lens, arcs_by_circle) -> int:
    """Cut arcs on the lens's circles that contain both of its base points."""
    p, q = base_points(circles[lens.circles[0]], circles[lens.circles[1]])
    count = 0
    for cid in lens.circles:
        c = circles[cid]
        dp, dq = centred(p, c), centred(q, c)
        for arc in arcs_by_circle.get(cid, ()):
            if arc.start is None:
                count += 1
                continue
            s, e = direction_of(arc.start), direction_of(arc.end)
            if same_direction(s, e) or (in_ccw_arc(dp, s, e) and in_ccw_arc(dq, s, e)):
                count += 1
    return count


def check_cut(circles, rich, result, k) -> str | None:
    if result.k != k:
        return f"cut result is for k={result.k}, not {k}"
    by_circle: dict[int, list] = {}
    for arc in result.arcs:
        by_circle.setdefault(arc.circle_id, []).append(arc)
    if set(by_circle) != set(range(len(circles))):
        return "some circle has no arc"
    for lens in rich:
        n = count_covering_arcs(circles, lens, by_circle)
        if n >= k:
            return f"lens {tuple(lens.circles)} lies on {n} >= {k} cut arcs"
    return None


def szekely_counts(circles, points) -> dict:
    on = [frozenset(i for i, p in enumerate(points) if power(p, c) == 0)
          for c in circles]
    drawn = [i for i, s in enumerate(on) if len(s) >= 2]
    return {
        "incidences": sum(len(s) for s in on),
        "edges": sum(2 if len(on[i]) == 2 else len(on[i]) for i in drawn),
        "crossings": sum(2 - len(on[i] & on[j]) for i, j in combinations(drawn, 2)
                         if meets_twice(circles[i], circles[j])),
    }


def check_szekely(circles, points, stats) -> str | None:
    want = szekely_counts(circles, points)
    got = {key: getattr(stats, key) for key in want}
    if got != want:
        return f"szekely stats {got}, own counts {want}"
    if stats.g0 + stats.g1 != stats.edges:
        return f"g0 + g1 = {stats.g0 + stats.g1}, edges = {stats.edges}"
    if (stats.m, stats.n) != (len(points), len(circles)):
        return f"m, n = {stats.m}, {stats.n}"
    return None


def check_cli_rows(stdout: str, rich_count: int, k: int) -> str | None:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("index,"):
        return "CLI printed no CSV header"
    rows = lines[1:]
    if len(rows) != rich_count:
        return f"CLI listed {len(rows)} lenses, in-process count is {rich_count}"
    if any(int(r.split(",")[5]) < k for r in rows):
        return f"CLI listed a lens of degree below {k}"
    return None
