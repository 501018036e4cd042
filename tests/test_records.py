"""The value records, all on one base, keep the behaviour of the records
they replaced: repr, equality with their own class only, hash as the tuple
of their fields, no assignment or deletion, and a fresh list per list
default, which makes a record with a list field unhashable."""

from fractions import Fraction as F

import pytest

from circlelens.bounds import RecurrenceTrace, TraceRow
from circlelens.dual import AuditReport, DualLine, DualPlane, DualPoint
from circlelens.families import CircleArc, CutResult, LensFamily
from circlelens.generators import BundleDescriptor, GeneratorSpec
from circlelens.geometry import Circle, Line
from circlelens.incidence import SzekelyStats
from circlelens.pencils import Scene
from circlelens.slopes import GammaPoint, OrderReversal

UNIT = "Circle(cx=Fraction(0, 1), cy=Fraction(0, 1), r2=Fraction(1, 1))"

# (record, its field values, its repr)
FROZEN = [
    (Circle(0, 0, 1), (F(0), F(0), F(1)), UNIT),
    (Line(1, 0, -2), (1, 0, -2), "Line(a=1, b=0, c=-2)"),
    (Scene((Circle(0, 0, 1),), ((1, 0),)),
     ((Circle(0, 0, 1),), ((F(1), F(0)),)),
     f"Scene(circles=({UNIT},), points=((Fraction(1, 1), Fraction(0, 1)),))"),
    (LensFamily((), True, 0), ((), True, 0),
     "LensFamily(members=(), certificate=True, total_degree=0)"),
    (CircleArc(1, None, None), (1, None, None),
     "CircleArc(circle_id=1, start=None, end=None)"),
    (CutResult((), 0, 2), ((), 0, 2), "CutResult(arcs=(), cut_count=0, k=2)"),
    (DualPoint(F(1), F(2), F(3)), (F(1), F(2), F(3)),
     "DualPoint(x=Fraction(1, 1), y=Fraction(2, 1), z=Fraction(3, 1))"),
    (DualPlane(1, 2, 3), (1, 2, 3), "DualPlane(a=1, b=2, d=3)"),
    (DualLine.of((0, 1, 2), (2, 0, 0)),
     ((F(0), F(1), F(2)), (F(1), F(0), F(0))),
     "DualLine(anchor=(Fraction(0, 1), Fraction(1, 1), Fraction(2, 1)), "
     "direction=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)))"),
    (GammaPoint(1, 2, 3), (1, 2, 3, None),
     "GammaPoint(x=1, y=2, z=3, circle_id=None)"),
    (OrderReversal(True, (0, 1), (1, 0), ()), (True, (0, 1), (1, 0), ()),
     "OrderReversal(reversed=True, order_at_p=(0, 1), order_at_q=(1, 0), "
     "excluded=())"),
    (SzekelyStats(2, 2, 4, 4, 2, 2, 4, 0), (2, 2, 4, 4, 2, 2, 4, 0),
     "SzekelyStats(m=2, n=2, incidences=4, edges=4, g0=2, g1=2, "
     "max_multiplicity=4, crossings=0)"),
    (GeneratorSpec("bundle", 6, 3), ("bundle", 6, 3, 0, F(10)),
     "GeneratorSpec(model='bundle', n=6, k=3, seed=0, spread=Fraction(10, 1))"),
    (BundleDescriptor(1, 2, ()), (1, 2, ()),
     "BundleDescriptor(pencil_count=1, degree=2, bases=())"),
    (TraceRow(0, 1.0, 2.0, 3.0), (0, 1.0, 2.0, 3.0),
     "TraceRow(j=0, n_j=1.0, d_j=2.0, bound_j=3.0)"),
]

LISTED = [
    (AuditReport(), ([], []),
     "AuditReport(coplanar_triples=[], plane_violations=[])"),
    (RecurrenceTrace(1.5, 2), (1.5, 2, [], [], 0.0),
     "RecurrenceTrace(z=1.5, depth=2, rows=[], checks=[], certificate=0.0)"),
]


def _id(case):
    return type(case[0]).__name__


@pytest.mark.parametrize("record,values,text", FROZEN + LISTED,
                         ids=map(_id, FROZEN + LISTED))
def test_repr_and_equality(record, values, text):
    assert repr(record) == text
    assert record != values and values != record
    extra = (record.scaled,) if isinstance(record, DualLine) else ()
    assert record == type(record)(*values, *extra)


def _cannot_change(record):
    for name in vars(record):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, "other", None)


@pytest.mark.parametrize("record,values,text", FROZEN, ids=map(_id, FROZEN))
def test_frozen_records_hash_as_their_fields_and_cannot_change(
        record, values, text):
    assert hash(record) == hash(values)
    _cannot_change(record)
    assert repr(record) == text


def test_dual_line_scaled_is_not_a_field():
    line = DualLine.of((0, 1, 2), (2, 0, 0))
    other = DualLine(line.anchor, line.direction, None)
    assert line.scaled == ((0, 1, 2), (1, 0, 0), 1)
    assert line == other and hash(line) == hash(other)


@pytest.mark.parametrize("make", [AuditReport, lambda: RecurrenceTrace(1.5, 2)],
                         ids=["AuditReport", "RecurrenceTrace"])
def test_list_records_get_fresh_lists_no_hash_and_cannot_change(make):
    # their builders append to the lists; the fields themselves stay put
    a, b = make(), make()
    for name, value in vars(a).items():
        if isinstance(value, list):
            value.append(1)
            assert getattr(b, name) == []
    assert a != b
    with pytest.raises(TypeError):
        hash(a)
    _cannot_change(a)


# the records that only store their fields, which the base binds
BOUND = [case for case in FROZEN if "__init__" not in vars(type(case[0]))]


def test_nine_records_leave_binding_to_the_base():
    assert sorted(map(_id, BOUND)) == [
        "BundleDescriptor", "CutResult", "DualPlane", "DualPoint",
        "LensFamily", "Line", "OrderReversal", "SzekelyStats", "TraceRow"]


@pytest.mark.parametrize("record,values,text", BOUND, ids=map(_id, BOUND))
def test_fields_bind_by_position_by_name_or_both(record, values, text):
    cls, fields = type(record), record._fields
    named = dict(zip(fields, values))
    for split in range(len(fields) + 1):
        rest = dict(list(named.items())[split:])
        made = cls(*values[:split], **rest)
        assert made == record and repr(made) == text
        assert vars(made) == named


@pytest.mark.parametrize("record,values,text", BOUND, ids=map(_id, BOUND))
def test_a_bad_binding_names_the_class_and_its_fields(record, values, text):
    cls, fields = type(record), record._fields
    first = {fields[0]: values[0]}
    message = f"^{cls.__name__} takes its fields {', '.join(fields)} once each$"
    for args, kwargs in (((*values, 0), {}),  # too many
                         (values, {"other": 0}),  # an unknown name
                         (values, first),  # a name given twice
                         (values[:-1], {}),  # a missing field
                         ((), {})):
        with pytest.raises(TypeError, match=message):
            cls(*args, **kwargs)
