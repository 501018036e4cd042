"""Exact signs on hard radicands, checked against an integer oracle.

Radicands include semiprimes of two ~31-bit primes, which no factoring-based
kernel handles quickly, and one field written in several forms (k^2*m/j^2).
The oracle merges the terms of a sum of c*sqrt(d) whose radicands lie in one
square class, scales by 10^40 and brackets every root with isqrt, so it
settles calls far closer than any float can.
"""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlelens.quadfield import QuadNum, two_field_sign
from dir_oracle import cross_sign, dot_sign

P31 = (2147483647, 2147483629, 2147483587)
P30 = (1000000007, 1000000009, 998244353)
BASES = [p * q for p in P31 for q in P30] + [2, 3, 6, P30[0]]

SCALE = 10 ** 40


def _bracket(c, d):
    """c*sqrt(d)*SCALE as an interval (lo, hi)."""
    c, d = Fraction(c), Fraction(d)
    if c == 0 or d == 0:
        return Fraction(0), Fraction(0)
    n = d.numerator * d.denominator * SCALE * SCALE
    r = isqrt(n)
    lo, hi = Fraction(r, d.denominator), Fraction(r + (r * r != n), d.denominator)
    return (c * lo, c * hi) if c > 0 else (c * hi, c * lo)


def _merged(terms):
    """Terms with one radicand per square class (d1*d2 a rational square)."""
    groups: list[list] = []
    for c, d in terms:
        c, d = Fraction(c), Fraction(d)
        for g in groups:
            prod = d * g[1]
            n, m = isqrt(prod.numerator), isqrt(prod.denominator)
            if n * n == prod.numerator and m * m == prod.denominator:
                g[0] += c * Fraction(n, m) / g[1]  # sqrt(d) = sqrt(d*g)/g * sqrt(g)
                break
        else:
            groups.append([c, d])
    return [(c, d) for c, d in groups if c and d]


def oracle_sign(terms):
    """Sign of sum(c*sqrt(d)), or None when the brackets cannot settle it."""
    brackets = [_bracket(c, d) for c, d in _merged(terms)]
    lo = sum(b[0] for b in brackets)
    hi = sum(b[1] for b in brackets)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return 0 if not brackets else None


def near(terms, digits=25):
    """A rational within 10^-digits of sum(c*sqrt(d))."""
    scale = 10 ** digits
    total = Fraction(0)
    for c, d in terms:
        d = Fraction(d)
        root = Fraction(isqrt(d.numerator * d.denominator * scale * scale),
                        d.denominator * scale)
        total += Fraction(c) * root
    return total


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def radicands(draw, base=None):
    """One of the hard fields, in the form k^2*m/j^2."""
    m = draw(st.sampled_from(BASES)) if base is None else base
    k, j = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    return Fraction(k * k * m, j * j)


@st.composite
def specs(draw, base=None):
    """(a, b, radicand) for the value a + b*sqrt(radicand)."""
    return draw(rationals), draw(small), draw(radicands(base))


def quad(spec):
    return QuadNum(*spec)


def terms_of(spec, sign=1):
    a, b, r = spec
    return [(sign * a, 1), (sign * b, r)]


@st.composite
def pairs(draw):
    """Two values: independent, equal in two forms, or a close rational."""
    x = draw(specs())
    kind = draw(st.sampled_from(["independent", "same-field", "equal", "close"]))
    if kind == "independent":
        y = draw(specs())
    elif kind == "same-field":
        y = draw(specs(base=x[2]))
    elif kind == "equal":
        a, b, r = x
        k, j = draw(st.integers(1, 12)), draw(st.integers(1, 5))
        # b*sqrt(r) == (b*j/k)*sqrt(r*k^2/j^2)
        y = (a, b * j / k, r * k * k / (j * j))
    else:
        y = (near(terms_of(x)) + draw(st.sampled_from([-1, 0, 1]))
             * Fraction(1, 10 ** 30), 0, 0)
    return kind, x, y


@given(pairs())
@settings(max_examples=120, deadline=None)
def test_compare_matches_integer_oracle(pair):
    kind, x, y = pair
    expected = oracle_sign(terms_of(x) + terms_of(y, -1))
    got = quad(x).compare(quad(y))
    if kind == "equal":
        assert got == 0 and quad(x) == quad(y)
        assert hash(quad(x)) == hash(quad(y))
    else:
        assert expected is not None and got == expected
        assert (quad(x) == quad(y)) == (expected == 0)


def product_terms(s, t, sign=1):
    """Terms of (a + b*sqrt(r)) * (c + e*sqrt(q))."""
    (a, b, r), (c, e, q) = s, t
    return [(sign * a * c, 1), (sign * b * c, r), (sign * a * e, q),
            (sign * b * e, Fraction(r) * q)]


@st.composite
def directions(draw):
    """Two directions u, v, each over one field in two forms per coordinate."""
    m1 = draw(st.sampled_from(BASES))
    u = (draw(specs(base=m1)), draw(specs(base=m1)))
    kind = draw(st.sampled_from(["independent", "close"]))
    if kind == "independent":
        m2 = draw(st.sampled_from(BASES))
        v = (draw(specs(base=m2)), draw(specs(base=m2)))
    else:
        # nearly a multiple of u, with a tiny component in another field
        m2 = draw(st.sampled_from([m for m in BASES if m != m1]))
        t = Fraction(draw(st.integers(-3, 3)), 10 ** 28)
        v = tuple((near(terms_of(c) + [(-t, m2)]), t, m2) for c in u)
    return u, v


@given(directions())
@settings(max_examples=120, deadline=None)
def test_cross_and_dot_sign_match_integer_oracle(uv):
    (ux, uy), (vx, vy) = uv
    u, v = (quad(ux), quad(uy)), (quad(vx), quad(vy))
    cross = product_terms(ux, vy) + product_terms(uy, vx, -1)
    dot = product_terms(ux, vx) + product_terms(uy, vy)
    assert cross_sign(u, v) == oracle_sign(cross)
    assert dot_sign(u, v) == oracle_sign(dot)


def test_adjacent_semiprime_roots():
    n = P31[0] * P30[0]
    assert QuadNum.sqrt(n).compare(QuadNum.sqrt(n + 1)) == -1
    assert QuadNum.sqrt(n + 1).compare(QuadNum.sqrt(n)) == 1
    assert oracle_sign([(1, n), (-1, n + 1)]) == -1


def test_parallel_directions_over_two_forms_of_one_field():
    n = P31[1] * P30[1]
    u = (QuadNum.sqrt(n), QuadNum.of(1))
    v = (QuadNum.sqrt(9 * n), QuadNum.of(3))  # 3*u, radicand written 9n
    assert cross_sign(u, v) == 0 and dot_sign(u, v) == 1
    assert cross_sign(u, (-v[0], -v[1])) == 0 and dot_sign(u, (-v[0], -v[1])) == -1


_M1, _M2 = P31[0] * P30[0], P31[1] * P30[1]
_R1, _R2 = isqrt(_M1), isqrt(_M2)


# (u0, u1, v0, v1, m1, m2) for every branch of two_field_sign
@pytest.mark.parametrize("args", [
    (-3, 2, 5, 7, 2, 0),               # m2 = 0 with V != 0
    (-7, 100, 5, -9, 0, 2),            # m1 = 0 with u1 != 0
    (-5, 0, 3, 0, 2, 3),               # u1 = v1 = 0: u0 + v0*sqrt(m2)
    (3, -5, 0, 0, 2, 3),               # V = 0
    (1, -1, 0, 1, 2, 3),               # V = v1*sqrt(m1) alone
    (-5, 1, 1, 1, 3, 3),               # m1 == m2
    (0, 2, -1, 0, 2, 8),               # sqrt(2) against sqrt(8): zero
    (1, 3, -2, 0, 2, 8),               # and one field in two forms
    (1, 1, 2, 1, 2, 3),                # U and V of one sign
    (0, 0, -1, 1, 2, 3),               # U = 0
    (5, -3, 1, -1, 2, 3),              # U and V of opposite sign
    (-_R1, 1, _R2 + 1, -1, _M1, _M2),  # a semiprime pair
    (0, _R2, -_R1, 0, _M1, _M2),
])
def test_two_field_sign_branches_match_integer_oracle(args):
    u0, u1, v0, v1, m1, m2 = args
    terms = [(u0, 1), (u1, m1), (v0, m2), (v1, m1 * m2)]
    expected = oracle_sign(terms)
    assert expected is not None
    assert two_field_sign(*args) == expected
    # the same values over a common denominator, as Fractions
    den = 7 * 10 ** 9
    parts = [Fraction(x, den) for x in (u0, u1, v0, v1)]
    assert two_field_sign(*parts, m1, m2) == expected
