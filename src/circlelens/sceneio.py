"""Line-oriented scene files.

Lines are `circle <cx> <cy> <r2>` or `point <x> <y>` with values written as
integers or `p/q` fractions; `#` starts a comment and blank lines are
ignored.  A circle or point given twice, in any spelling, is an error that
names both lines.  Serialization is canonical, so parse-then-serialize
round-trips canonical files byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SceneFormatError
from .geometry import Circle
from .pencils import Scene


def _parse_fraction(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise SceneFormatError(f"bad rational {token!r}", lineno) from None


def parse_scene(text: str) -> Scene:
    circles: dict[Circle, int] = {}  # circle -> the line that gave it
    points: dict[tuple[Fraction, Fraction], int] = {}  # likewise
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "circle":
            if len(args) != 3:
                raise SceneFormatError("circle needs cx cy r2", lineno)
            cx, cy, r2 = (_parse_fraction(a, lineno) for a in args)
            if r2 <= 0:
                raise SceneFormatError("squared radius must be positive", lineno)
            seen, key = circles, Circle(cx, cy, r2)
        elif kind == "point":
            if len(args) != 2:
                raise SceneFormatError("point needs x y", lineno)
            seen, key = points, tuple(_parse_fraction(a, lineno) for a in args)
        else:
            raise SceneFormatError(f"unknown record {kind!r}", lineno)
        first = seen.setdefault(key, lineno)
        if first != lineno:
            raise SceneFormatError(f"{kind} repeats line {first}", lineno)
    return Scene(circles=tuple(circles), points=tuple(points))


def serialize_scene(scene: Scene) -> str:
    lines = [f"circle {c.cx} {c.cy} {c.r2}" for c in scene.circles]
    lines += [f"point {x} {y}" for x, y in scene.points]
    return "\n".join(lines) + "\n"
