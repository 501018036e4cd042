from fractions import Fraction as F

import pytest

from circlelens.errors import SceneFormatError
from circlelens.geometry import Circle
from circlelens.pencils import Scene
from circlelens.sceneio import parse_scene, serialize_scene

SAMPLE = """\
# a pencil with one marked point
circle 0 0 1
circle 1 0 2
point 0 1
"""


def test_parse_basic():
    scene = parse_scene(SAMPLE)
    assert scene.circles == (Circle(F(0), F(0), F(1)),
                             Circle(F(1), F(0), F(2)))
    assert scene.points == ((F(0), F(1)),)


def test_parse_fractions_and_inline_comments():
    scene = parse_scene("circle 1/2 -3/4 17/10  # partner\n")
    assert scene.circles[0] == Circle(F(1, 2), F(-3, 4), F(17, 10))


def test_round_trip_byte_identical(corpus):
    for name, scene in corpus[:20]:
        text = serialize_scene(scene)
        assert serialize_scene(parse_scene(text)) == text, name


def test_round_trip_with_points():
    scene = Scene(circles=(Circle(F(0), F(0), F(25)),),
                  points=((F(4), F(3)), (F(-4), F(3))))
    text = serialize_scene(scene)
    assert text == "circle 0 0 25\npoint 4 3\npoint -4 3\n"
    assert parse_scene(text) == scene


@pytest.mark.parametrize("text,line", [
    ("circle 0 0\n", 1),
    ("circle 0 0 1\npoint 1\n", 2),
    ("circle 0 0 1\n\ncircle a 0 1\n", 3),
    ("sphere 0 0 1\n", 1),
    ("circle 0 0 0\n", 1),
    ("circle 0 0 -1\n", 1),
    ("point 1/0 2\n", 1),
])
def test_errors_carry_line_numbers(text, line):
    with pytest.raises(SceneFormatError) as exc:
        parse_scene(text)
    assert exc.value.line == line
    assert f"line {line}" in str(exc.value)


def test_duplicate_circles_rejected():
    # a repeat names its line and the line it repeats; equal values in other
    # spellings are the same circle
    for text, line in (("circle 0 0 1\ncircle 0 0 1\n", 2),
                       ("circle 0 0 1\n# c\ncircle 1 0 1\ncircle 0/3 0 2/2\n", 4)):
        with pytest.raises(SceneFormatError) as exc:
            parse_scene(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: circle repeats line 1"


def test_duplicate_points_rejected():
    # as for circles: a repeat names its line and the line it repeats, in
    # any spelling of equal values
    for text, line, first in (
            ("circle 0 0 25\ncircle 8 0 25\npoint 4 3\npoint 4 -3\n"
             "point 4 3\n", 5, 3),
            ("point 1/2 0\n# p\npoint 0 1/2\npoint 2/4 0/3\n", 4, 1),
            ("point 4 3\npoint 4/1 6/2\n", 2, 1)):
        with pytest.raises(SceneFormatError) as exc:
            parse_scene(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: point repeats line {first}"
