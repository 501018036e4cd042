import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlelens.quadfield import (QuadNum, QuadPoint, Surd,
                                  _printed_radicand, _quad, cleared_parts,
                                  conjugate_floors, sign_q, two_field_sign)


def test_canonical_storage_folds_square_radicands():
    x = QuadNum(1, 3, 4)  # 1 + 3*sqrt(4) = 7
    assert x.is_rational and x.a == 7
    y = QuadNum(0, 1, Fraction(9, 4))
    assert y == QuadNum.of(Fraction(3, 2))


def test_sqrt_and_square():
    r = QuadNum.sqrt(2)
    assert r * r == QuadNum.of(2)
    assert (r * r).is_rational
    s = QuadNum.sqrt(Fraction(8))
    assert s == 2 * QuadNum.sqrt(2) and hash(s) == hash(2 * QuadNum.sqrt(2))


def test_one_field_two_representatives():
    x, y = QuadNum(0, 2, 2), QuadNum(0, 1, 8)  # 2*sqrt(2) and sqrt(8)
    assert x == y and hash(x) == hash(y)
    assert x - y == QuadNum.of(0)
    assert x + y == QuadNum(0, 4, 2) and x * y == QuadNum.of(8)
    assert (1 + x) / (1 + y) == QuadNum.of(1)
    assert x.compare(y) == 0 and (x + 1).compare(y) == 1
    p = QuadPoint(QuadNum.sqrt(2), QuadNum.sqrt(8))
    assert p.x.delta == p.y.delta == p.delta
    assert p == QuadPoint(QuadNum.sqrt(2), 2 * QuadNum.sqrt(2))


def test_mixed_radicand_arithmetic_rejected():
    with pytest.raises(ValueError):
        QuadNum.sqrt(2) + QuadNum.sqrt(3)


def test_cross_field_compare():
    assert QuadNum.sqrt(2).compare(QuadNum.sqrt(3)) == -1
    # 1 + sqrt(2) vs sqrt(6): 2.414... vs 2.449...
    assert (1 + QuadNum.sqrt(2)).compare(QuadNum.sqrt(6)) == -1
    assert QuadNum.sqrt(2).compare(QuadNum(0, 2, Fraction(1, 2))) == 0


def test_two_field_sign_with_u_zero_is_the_sign_of_v():
    # U = 0, so U + V*sqrt(3) has the sign of V = -+1 + sqrt(2)
    zero, one = Fraction(0), Fraction(1)
    assert two_field_sign(zero, zero, -one, one, 2, 3) == 1
    assert two_field_sign(zero, zero, one, -one, 2, 3) == -1


def test_quadnum_equals_no_non_number():
    x = QuadNum.sqrt(2)
    assert x.__eq__("x") is NotImplemented
    assert x != "x" and not x == "x"


def test_inverse_and_division():
    x = QuadNum(1, 1, 2)
    assert x * x.inverse() == QuadNum.of(1)
    assert (x / x) == QuadNum.of(1)
    with pytest.raises(ZeroDivisionError):
        QuadNum(0).inverse()


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        QuadNum(0, 1, -2)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=8)
deltas = st.sampled_from([2, 3, 5, 6, 7])


@st.composite
def quadnums(draw, delta=None):
    a = draw(rationals)
    b = draw(rationals)
    d = delta if delta is not None else draw(deltas)
    return QuadNum(a, b, d)


@given(st.data())
@settings(max_examples=150)
def test_field_axioms_same_radicand(data):
    d = data.draw(deltas)
    x = data.draw(quadnums(delta=d))
    y = data.draw(quadnums(delta=d))
    z = data.draw(quadnums(delta=d))
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x
    assert (x - y) + y == x
    if x.sign() != 0:
        assert (y / x) * x == y


@given(quadnums())
@settings(max_examples=150)
def test_sign_matches_float(x):
    approx = float(x)
    if abs(approx) > 1e-9:
        assert x.sign() == (1 if approx > 0 else -1)


@given(quadnums(), quadnums())
@settings(max_examples=150)
def test_eq_hash_contract(x, y):
    if x.compare(y) == 0:
        assert x == y and hash(x) == hash(y)
    if x == y:
        assert hash(x) == hash(y)


def test_hash_agrees_with_fraction():
    assert hash(QuadNum.of(Fraction(3, 2))) == hash(Fraction(3, 2))


def test_pow():
    x = QuadNum(1, 1, 2)
    assert x ** 0 == QuadNum.of(1)
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()


def test_order_and_reflected_division_agree_with_fraction():
    values = [Fraction(-3, 2), Fraction(0), Fraction(1, 3), Fraction(2)]
    for a in values:
        for b in values:
            x, y = QuadNum.of(a), QuadNum.of(b)
            expected = (a <= b, a > b, a >= b)
            assert (x <= y, x > y, x >= y) == expected
            assert (x <= b, x > b, x >= b) == expected
            if b:
                assert a / y == a / b and 3 / y == 3 / b
    # 1 + sqrt(2) = 2.41421... against Fractions on either side of it
    r, lo, hi = 1 + QuadNum.sqrt(2), Fraction(2414, 1000), Fraction(2415, 1000)
    assert (r <= hi, r > lo, r >= lo, r <= r, r >= r) == (True,) * 5
    assert (r <= lo, r > hi, r >= hi, r > r) == (False,) * 4
    assert QuadNum.sqrt(3) >= QuadNum.sqrt(2) > Fraction(141, 100)
    assert 1 / r == QuadNum.sqrt(2) - 1
    assert Fraction(1, 2) / QuadNum.sqrt(2) == QuadNum.sqrt(2) / 4


def test_quadpoint_equals_a_pair_and_not_a_non_point():
    p = QuadPoint(0, QuadNum.sqrt(2))
    assert p == (0, QuadNum.sqrt(2)) and (Fraction(0), QuadNum.sqrt(2)) == p
    assert p != (0, QuadNum.sqrt(3)) and p != (Fraction(0), Fraction(1))
    # not a pair, or a pair in two fields: unequal, not an error
    for other in ("p", 3, None, (1, 2, 3), (QuadNum.sqrt(2), QuadNum.sqrt(3))):
        assert p != other and not p == other


def test_quadpoint_field_constraint():
    QuadPoint(QuadNum.sqrt(2), QuadNum(1, 2, 2))
    with pytest.raises(ValueError):
        QuadPoint(QuadNum.sqrt(2), QuadNum.sqrt(3))


def test_quadpoint_order_and_equality():
    p = QuadPoint.of((Fraction(0), Fraction(1)))
    q = QuadPoint.of((Fraction(0), Fraction(-1)))
    assert p.compare(q) > 0
    assert p == QuadPoint(QuadNum(0), QuadNum(1))
    assert hash(p) == hash(QuadPoint(0, 1))
    assert float(p.x) == 0.0 and math.isclose(float(p.y), 1.0)


def _joined_sum(x: QuadNum, y, sign: int) -> QuadNum:
    """x + sign*y by the generic path: y as a QuadNum, over x's radicand."""
    y = QuadNum.of(y)
    if sign < 0:
        y = _quad(-y.a, -y.b, y.delta)
    d, yb = x._join(y)
    return _quad(x.a + y.a, x.b + yb, d)


def _parts(x: QuadNum) -> tuple:
    return x.a, x.b, x.delta


@st.composite
def operand_pairs(draw):
    """x, and y that is an int, a Fraction, a rational QuadNum, a QuadNum
    over x's radicand, or one over x's field written with a square factor."""
    d = draw(deltas)
    x = draw(quadnums(delta=d))
    kind = draw(st.sampled_from(["int", "fraction", "rational", "same", "compatible"]))
    if kind == "int":
        y = draw(st.integers(-20, 20))
    elif kind == "fraction":
        y = draw(rationals)
    elif kind == "rational":
        y = QuadNum.of(draw(rationals))
    elif kind == "same":
        y = draw(quadnums(delta=d))
    else:
        s = draw(st.integers(2, 5))
        y = QuadNum(draw(rationals), draw(rationals), d * s * s)
    return x, y


@given(operand_pairs())
@settings(max_examples=100)
def test_add_sub_fast_paths_match_the_joined_path(pair):
    x, y = pair
    assert _parts(x + y) == _parts(_joined_sum(x, y, 1))
    assert _parts(x - y) == _parts(_joined_sum(x, y, -1))
    if not isinstance(y, QuadNum):
        assert _parts(y + x) == _parts(_joined_sum(x, y, 1))
        assert _parts(y - x) == _parts(_joined_sum(-x, y, 1))


big_rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                             max_denominator=10 ** 12)


def _scaled_floor(x: QuadNum, k: int) -> int:
    """floor(2^k * x) by conjugate_floors, on x written over its own
    denominator."""
    d, delta, (a, b) = cleared_parts((x,))
    return conjugate_floors(a, b, delta, d, k)[0]


@given(big_rationals, big_rationals, st.integers(2, 10 ** 15),
       st.sampled_from([0, 1, 7, 32, 64]))
@settings(max_examples=150)
def test_floor_root_brackets_the_value(a, b, delta, k):
    # f <= 2^k * x < f + 1, decided exactly by sign_q, for x and for its
    # conjugate, whose floor conjugate_floors gives second
    x = QuadNum(a, b, delta)
    d, _, (ia, ib) = cleared_parts((x,))
    assert conjugate_floors(ia, -ib, x.delta, d, k) == \
        conjugate_floors(ia, ib, x.delta, d, k)[::-1]
    for y in (x, QuadNum(x.a, -x.b, x.delta)):
        f = _scaled_floor(y, k)
        assert isinstance(f, int)
        scaled_a, scaled_b = y.a * 2 ** k, y.b * 2 ** k
        assert sign_q(scaled_a - f, scaled_b, y.delta) >= 0
        assert sign_q(scaled_a - f - 1, scaled_b, y.delta) < 0


def test_floor_root_cases():
    assert _scaled_floor(QuadNum.of(Fraction(-3, 2)), 0) == -2
    assert _scaled_floor(QuadNum.of(Fraction(-3, 2)), 1) == -3
    assert _scaled_floor(QuadNum.sqrt(2), 0) == 1
    assert _scaled_floor(-QuadNum.sqrt(2), 0) == -2
    assert _scaled_floor(QuadNum(1, Fraction(-1, 3), 2), 10) == 541  # 0.5285...
    assert _scaled_floor(QuadNum(0, 1, 8), 32) == _scaled_floor(QuadNum(0, 2, 2), 32)


def test_cleared_parts_over_one_radicand():
    # 1/2 + sqrt(8), 1/3 - 2*sqrt(2) and 5/4: one field, written over sqrt(8)
    values = (QuadNum(Fraction(1, 2), 1, 8), QuadNum(Fraction(1, 3), -2, 2),
              QuadNum(Fraction(5, 4)))
    assert cleared_parts(values) == (12, 8, [6, 12, 4, -12, 15, 0])
    assert cleared_parts((QuadNum(1), QuadNum(Fraction(1, 2)))) == (2, 0, [2, 0, 1, 0])
    with pytest.raises(ValueError):
        cleared_parts((QuadNum.sqrt(2), QuadNum.sqrt(3)))


# radicands: rational, one field written two ways (sqrt(8) = 2*sqrt(2)), and
# a second field
@st.composite
def surds(draw):
    d = draw(st.sampled_from((0, 2, 3, 8)))
    return Surd((draw(st.integers(-300, 300)), draw(st.integers(1, 40)),
                 draw(st.integers(-40, 40)) if d else 0, d))


def _surd_value(s: Surd) -> QuadNum:
    a, n, b, d = s
    return QuadNum(Fraction(a, n), Fraction(b, n), d)


def _rewritten(s: Surd, m: int) -> Surd:
    """s over m times its denominator, and over sqrt(8) when it is over
    sqrt(2): the same value written another way."""
    a, n, b, d = s
    if d == 2:
        return Surd((2 * m * a, 2 * m * n, m * b, 8))
    return Surd((m * a, m * n, m * b, d))


# one example per case of two_field_sign's dispatch: the other rational, this
# one rational, one radicand, two representatives of one field, two fields
@example(Surd((1, 1, 1, 2)), Surd((3, 2, 0, 0)), 1)
@example(Surd((1, 1, 0, 0)), Surd((1, 1, 1, 3)), 1)
@example(Surd((7, 5, 1, 2)), Surd((3, 2, 1, 2)), 2)
@example(Surd((0, 1, 1, 2)), Surd((0, 1, 1, 8)), 1)
@example(Surd((1, 1, 1, 2)), Surd((1, 1, 1, 3)), 1)
@given(surds(), surds(), st.integers(1, 5))
@settings(max_examples=300)
def test_surd_order_matches_fraction_and_quadnum(x, y, m):
    for other in (y, _rewritten(x, m)):
        want = _surd_value(x).compare(_surd_value(other))
        if not (x[2] or other[2]):
            ratio = Fraction(x[0], x[1]) - Fraction(other[0], other[1])
            assert want == (ratio > 0) - (ratio < 0)
        assert x._sign(other) == want == -other._sign(x)
        assert (x < other, x == other) == (want < 0, want == 0)
    assert x == _rewritten(x, m)


def _trial_division_radicand(n: int) -> tuple[int, int]:
    """The oracle: n = s*s*m, the square of every prime below 1000 taken out
    by trial division, the prime table built by trial division too."""
    s = 1
    for p in range(2, 1000):
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        if p * p > n:
            break
        while n % (p * p) == 0:
            n //= p * p
            s *= p
    return s, n


# products of prime powers, near 1000 and past it among them
_RADICANDS = st.builds(
    lambda factors, rest: math.prod(p ** e for p, e in factors) * rest,
    st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 97, 541, 983, 991, 997,
                                        1009, 1013]),
                       st.integers(1, 5)), max_size=5),
    st.integers(1, 10 ** 12))


@settings(max_examples=300, deadline=None)
@example(997 ** 2 * 991 ** 2 * 2)
@example(1009 ** 2 * 3)
@example(2 ** 7 * 997 ** 3)
@example(1)
@given(_RADICANDS)
def test_printed_radicand_matches_trial_division(n):
    assert _printed_radicand(n) == _trial_division_radicand(n)
