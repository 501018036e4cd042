"""The (x, y, slope) lift of a circle and the order reversal check.

For a circle with center (cx, cy), the slope of the tangent at a point
(x, y) on it with y != cy is -(x - cx)/(y - cy); the lift keeps only this
non-vertical branch.  Within a lens, sorting the participating circles by
slope at one base point exactly reverses the order obtained at the other,
provided slopes are measured in the frame whose vertical axis is the base
chord (see _chord_frame_slope).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .errors import DegenerateInput, Inconclusive, VerticalTangent
from .geometry import Circle, point_on_circle
from .pencils import Lens, Scene
from .quadfield import QuadNum, QuadPoint


@dataclass(frozen=True)
class GammaPoint:
    """A point of the slope lift: position on the circle plus tangent slope."""

    x: QuadNum
    y: QuadNum
    z: QuadNum
    circle_id: int | None = None


def _check_lift_point(c: Circle, p: QuadPoint) -> None:
    """Raise unless p is on c with a non-vertical tangent there."""
    if not point_on_circle(p, c):
        raise DegenerateInput("point not on circle")
    if p.y == c.cy:
        raise VerticalTangent("tangent is vertical at this point")


def gamma_point(c: Circle, p, circle_id=None) -> GammaPoint:
    p = QuadPoint.of(p)
    _check_lift_point(c, p)
    z = -(p.x - c.cx) / (p.y - c.cy)
    return GammaPoint(x=p.x, y=p.y, z=z, circle_id=circle_id)


@dataclass(frozen=True)
class OrderReversal:
    reversed: bool
    order_at_p: tuple[int, ...]
    order_at_q: tuple[int, ...]
    excluded: tuple[int, ...]


def _chord_frame_slope(c: Circle, p: QuadPoint, d) -> QuadNum:
    """Tangent slope at p measured in the frame whose y-axis is the chord
    direction d.

    Linear order reversal between the two base points holds only in this
    frame: for a generic chord the two global slopes are related by a Mobius
    map whose pole can break the linear order even though the cyclic order
    always reverses.  With the chord "vertical" the relation is an exact
    negation, and no circle through both base points is ever frame-vertical
    (that would need its center on a line parallel to, but off, the
    perpendicular bisector).
    """
    tx, ty = -(p.y - c.cy), p.x - c.cx  # tangent direction at p
    return (tx * d[0] + ty * d[1]) / (tx * d[1] - ty * d[0])


def order_reversal_check(lens: Lens, scene: Scene) -> OrderReversal:
    """Sort lens circles by chord-frame slope at each base point and compare.

    Circles with a vertical tangent at either base point are excluded (at
    most two such circles can contain the pair).  Raises Inconclusive when
    fewer than two circles remain.
    """
    p, q = lens.base
    d = (q.x - p.x, q.y - p.y)
    slopes = {}
    excluded = []
    for cid in lens.circles:
        c = scene.circles[cid]
        try:
            _check_lift_point(c, p)
            _check_lift_point(c, q)
        except VerticalTangent:
            excluded.append(cid)
            continue
        slopes[cid] = (_chord_frame_slope(c, p, d),
                       _chord_frame_slope(c, q, d))
    if len(slopes) < 2:
        raise Inconclusive("fewer than two circles with finite slopes")
    by_p = sorted(slopes, key=cmp_to_key(
        lambda a, b: slopes[a][0].compare(slopes[b][0])))
    by_q = sorted(slopes, key=cmp_to_key(
        lambda a, b: slopes[a][1].compare(slopes[b][1])))
    return OrderReversal(reversed=by_q == list(reversed(by_p)),
                         order_at_p=tuple(by_p),
                         order_at_q=tuple(by_q),
                         excluded=tuple(excluded))
