import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelens.radicals import Rad


def test_rad_zero_and_sign():
    assert Rad.rational(0).is_zero
    assert Rad.rational(Fraction(-3, 7)).sign() == -1
    r = Rad.root_term(1, 2) - Rad.root_term(1, 2)
    assert r.is_zero
    # sqrt(2) + sqrt(3) - sqrt(5 + 2*sqrt(6)) is zero, but that nesting is
    # outside this tower; instead check linear independence directly:
    assert not (Rad.root_term(1, 2) - Rad.root_term(1, 3)).is_zero


def test_rad_sign_close_call():
    # sqrt(2) + sqrt(3) vs sqrt(5) + sqrt(6) - 1: floats agree to ~1e-2,
    # the exact sign test must still resolve it
    lhs = Rad.root_term(1, 2) + Rad.root_term(1, 3)
    rhs = Rad.root_term(1, 5) + Rad.root_term(1, 6) - Rad.rational(1)
    assert (lhs - rhs).sign() == math.copysign(
        1, float(lhs) - float(rhs))


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10])


@st.composite
def rads(draw):
    terms = draw(st.lists(st.tuples(radicands, coeffs), min_size=0,
                          max_size=3))
    out = Rad.rational(0)
    for d, c in terms:
        out = out + Rad.root_term(c, d)
    return out


@given(rads(), rads())
@settings(max_examples=200)
def test_rad_sign_matches_float(x, y):
    diff = x - y
    approx = float(diff)
    if abs(approx) > 1e-9:
        assert diff.sign() == (1 if approx > 0 else -1)
    else:
        # tiny float difference: exact arithmetic decides; just check
        # consistency of sign with is_zero
        assert (diff.sign() == 0) == diff.is_zero


@given(rads(), rads(), rads())
@settings(max_examples=100)
def test_rad_ring_axioms(x, y, z):
    assert (x + y) - y == x
    assert x * (y + z) == x * y + x * z
    assert (x * y) - (y * x) == Rad.rational(0)


@given(rads())
@settings(max_examples=100)
def test_rad_hash_consistent(x):
    assert hash(x + Rad.rational(0)) == hash(x)
    assert x - x == Rad.rational(0)
