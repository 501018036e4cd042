"""The (x, y, slope) lift of a circle and the order reversal check.

For a circle with center (cx, cy), the slope of the tangent at a point
(x, y) on it with y != cy is -(x - cx)/(y - cy); the lift keeps only this
non-vertical branch.  Within a lens, sorting the participating circles by
slope at one base point exactly reverses the order obtained at the other,
provided slopes are measured in the frame whose vertical axis is the base
chord d = q - p.  With u = point - center, that slope is -(u x d)/(u . d):
the tangent direction at the point is u turned a quarter, and the slope is
its component along d over its component across d.

The check runs on integers.  It reads each circle's radii to the base
points from the lens's vertex record (pencils.lens_vertices, kept on the
scene's own lenses), both scaled by one positive integer per circle and
over the one radicand delta of the base pair, so every quantity lies in
Z[sqrt(delta)], the base chord d included.  A slope is the integer surd
A/n (quadfield.Surd) with A in Z[sqrt(delta)] and n > 0.
"""

from __future__ import annotations

from .errors import DegenerateInput, Inconclusive, VerticalTangent
from .geometry import Circle, point_on_circle
from .pencils import Lens, Scene, lens_vertices
from .quadfield import QuadNum, QuadPoint, Surd
from .records import FrozenRecord


class GammaPoint(FrozenRecord):
    """A point of the slope lift: position on the circle plus tangent slope."""

    _fields = ("x", "y", "z", "circle_id")

    def __init__(self, x: QuadNum, y: QuadNum, z: QuadNum,
                 circle_id: int | None = None):
        self.__dict__.update(x=x, y=y, z=z, circle_id=circle_id)


def gamma_point(c: Circle, p, circle_id=None) -> GammaPoint:
    p = QuadPoint.of(p)
    if not point_on_circle(p, c):
        raise DegenerateInput("point not on circle")
    if p.y == c.cy:
        raise VerticalTangent("tangent is vertical at this point")
    z = -(p.x - c.cx) / (p.y - c.cy)
    return GammaPoint(x=p.x, y=p.y, z=z, circle_id=circle_id)


class OrderReversal(FrozenRecord):
    _fields = ("reversed", "order_at_p", "order_at_q", "excluded")


def _slope(ua, ub, wa, wb, d, delta: int) -> Surd:
    """The chord-frame slope -(u x d)/(u . d) at a point with
    u = (ua + ub*sqrt(delta), wa + wb*sqrt(delta)), as the surd
    (A0, n, A1, delta) = (A0 + A1*sqrt(delta))/n with n > 0.  On a circle
    through both base points u . d = -|d|^2/2, so the zero and negative norm
    cases need a point that is not on the circle.  Scaling u or d by a
    positive number leaves the slope as it is, so their scales may differ."""
    dxa, dxb, dya, dyb = d
    na = ua * dya + ub * dyb * delta - wa * dxa - wb * dxb * delta
    nb = ua * dyb + ub * dya - wa * dxb - wb * dxa
    ea = ua * dxa + ub * dxb * delta + wa * dya + wb * dyb * delta
    eb = ua * dxb + ub * dxa + wa * dyb + wb * dya
    norm = ea * ea - eb * eb * delta  # zero iff u . d is, as delta is no square
    if norm == 0:
        raise ZeroDivisionError(
            "u . d is zero: the point is on no circle through both base points")
    # -N/E = -N*conj(E)/norm(E)
    a0, a1 = nb * eb * delta - na * ea, na * eb - nb * ea
    return Surd((a0, norm, a1, delta) if norm > 0 else (-a0, -norm, -a1, delta))


def order_reversal_check(lens: Lens, scene: Scene) -> OrderReversal:
    """Sort lens circles by chord-frame slope at each base point and compare.

    Every circle must pass through both base points (DegenerateInput
    otherwise).  Circles with a vertical tangent at either base point are
    excluded (at most two such circles can contain the pair).  Raises
    Inconclusive when fewer than two circles remain, and DegenerateInput for
    base points in two quadratic fields.
    """
    dirs = [(kp[2].v, kq[2].v) for kp, kq, _ in lens_vertices(scene, lens)]
    # vq - vp is q - p, the base chord, at circle 0's scale (see _slope)
    vp, vq = dirs[0]
    d, delta = [b - a for a, b in zip(vp[:4], vq[:4])], vp[4]
    slopes, excluded = {}, []
    for cid, (vp, vq) in zip(lens.circles, dirs):
        if not (vp[2] or vp[3]) or not (vq[2] or vq[3]):  # a vertical tangent
            excluded.append(cid)
        else:
            slopes[cid] = (_slope(*vp[:4], d, delta), _slope(*vq[:4], d, delta))
    if len(slopes) < 2:
        raise Inconclusive("fewer than two circles with finite slopes")
    by_p = sorted(slopes, key=lambda cid: slopes[cid][0])
    by_q = sorted(slopes, key=lambda cid: slopes[cid][1])
    return OrderReversal(by_q == by_p[::-1], tuple(by_p), tuple(by_q),
                         tuple(excluded))
