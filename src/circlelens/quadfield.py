"""Numbers and points in a quadratic extension Q(sqrt(delta)) of the rationals.

A :class:`QuadNum` is stored as ``a + b*sqrt(delta)`` with a, b rational and
delta a positive non-square integer (delta == 0 for rational values).  A
rational radicand p/q is stored as delta = p*q with b scaled by 1/q, so an
``isqrt`` test is the only integer work a radicand ever needs; delta is not
made square-free.  One field therefore has many representatives
(sqrt(8) = 2*sqrt(2)).  Two radicands name the same field iff their product
is a perfect square, and equality and hashing go through
(a, sign of b, b*b*delta), which is unique per value.

One sign decides every exact predicate of the package:
:func:`two_field_sign`, of (u0 + u1*sqrt(m1)) + (v0 + v1*sqrt(m1))*sqrt(m2),
under QuadNum.compare, the integer :class:`Surd` (a + b*sqrt(d))/n and the
cross sign of geometry's cyclic keys.  Over two different radicands it
squares once, which uses only real-number reasoning and so stays sound when
the two radicands turn out to name the same field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt

_ZERO = Fraction(0)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def cleared(values, base: int = 1) -> tuple[int, list[int]]:
    """(D, [v*D for v in values]) for a sequence of rationals, with D the lcm
    of base and their denominators, so every v*D is an integer."""
    d = lcm(base, *(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def sign_q(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rationals a, b and an integer d >= 0."""
    sa = (a > 0) - (a < 0)
    if not b or not d:
        return sa
    sb = 1 if b > 0 else -1
    if sa == 0 or sa == sb:
        return sb
    t = a * a - b * b * d
    return sa * ((t > 0) - (t < 0))


def two_field_sign(u0, u1, v0, v1, m1: int, m2: int) -> int:
    """Exact sign of U + V*sqrt(m2) with U = u0 + u1*sqrt(m1), V = v0 + v1*sqrt(m1),
    for rationals u0, u1, v0, v1 and integers m1, m2 >= 0.

    A vanishing term or one radicand leaves one sign_q.  Otherwise, if U and
    V agree in sign (or one is zero) that is the answer, and else the sign
    is sign(U) * sign(U^2 - m2*V^2), one sign in Q(sqrt(m1)).  Plain * and -
    keep the work exact for ints and Fractions alike.
    """
    if not m1 or not (u1 or v1):
        return sign_q(u0, v0, m2)
    if not m2 or not (v0 or v1):
        return sign_q(u0, u1, m1)
    if m1 == m2:
        return sign_q(u0 + v1 * m1, u1 + v0, m1)
    su, sv = sign_q(u0, u1, m1), sign_q(v0, v1, m1)
    if sv == 0 or su == sv:
        return su
    if su == 0:
        return sv
    return su * sign_q(u0 * u0 + u1 * u1 * m1 - m2 * (v0 * v0 + v1 * v1 * m1),
                       2 * (u0 * u1 - m2 * v0 * v1), m1)


def _quad(a: Fraction, b: Fraction, delta: int) -> "QuadNum":
    """A QuadNum from a canonical radicand (non-square, or 0 with b == 0)."""
    x = object.__new__(QuadNum)
    if b and delta:
        x.a, x.b, x.delta = a, b, delta
    else:
        x.a, x.b, x.delta = a, _ZERO, 0
    return x


# Squares of these primes are taken out of a radicand when it is printed.
_PRINT_PRIMES = tuple(p for p in range(2, 1000)
                      if all(p % q for q in range(2, isqrt(p) + 1)))


def _printed_radicand(n: int) -> tuple[int, int]:
    """n = s*s*m with m free of the squares of the primes below 1000."""
    s = 1
    for p in _PRINT_PRIMES:
        pp = p * p
        if pp > n:
            break
        while n % pp == 0:
            n //= pp
            s *= p
    return s, n


class QuadNum:
    """Exact number a + b*sqrt(delta); delta a non-square integer, 0 iff rational."""

    __slots__ = ("a", "b", "delta")

    def __init__(self, a, b=0, delta=0):
        a, b = frac(a), frac(b)
        d = 0
        if b and delta:
            delta = frac(delta)
            if delta < 0:
                raise ValueError("radicand must be nonnegative")
            # sqrt(p/q) = sqrt(p*q)/q
            d = delta.numerator * delta.denominator
            b = b / delta.denominator
            r = isqrt(d)
            if r * r == d:
                a, d = a + b * r, 0
        self.a, self.b, self.delta = (a, b, d) if d else (a, _ZERO, 0)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, value) -> "QuadNum":
        if isinstance(value, QuadNum):
            return value
        return _quad(frac(value), _ZERO, 0)

    @classmethod
    def sqrt(cls, radicand) -> "QuadNum":
        """Exact square root of a nonnegative rational."""
        return cls(0, 1, radicand)

    @property
    def is_rational(self) -> bool:
        return self.delta == 0

    # -- field arithmetic (one field, or one side rational) -------------------

    def _join(self, other: "QuadNum") -> tuple[int, Fraction]:
        """A radicand for both operands, and other.b rewritten over it."""
        d1, d2 = self.delta, other.delta
        if d1 == d2 or d2 == 0:
            return d1, other.b
        if d1 == 0:
            return d2, other.b
        r = isqrt(d1 * d2)
        if r * r != d1 * d2:
            raise ValueError("mixed radicands in QuadNum arithmetic")
        # sqrt(d2) = sqrt(d1*d2)/d1 * sqrt(d1)
        return d1, other.b * Fraction(r, d1)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return _quad(self.a + other, self.b, self.delta)
        other = QuadNum.of(other)
        d, ob = self._join(other)
        return _quad(self.a + other.a, self.b + ob, d)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.a, -self.b, self.delta)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _quad(self.a - other, self.b, self.delta)
        if isinstance(other, QuadNum) and other.delta == self.delta:
            return _quad(self.a - other.a, self.b - other.b, self.delta)
        return self + (-QuadNum.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = QuadNum.of(other)
        d, ob = self._join(other)
        return _quad(self.a * other.a + self.b * ob * d,
                     self.a * ob + self.b * other.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        # nonzero for every nonzero value, since delta is not a square
        norm = self.a * self.a - self.b * self.b * self.delta
        if norm == 0:
            raise ZeroDivisionError("QuadNum division by zero")
        return _quad(self.a / norm, -self.b / norm, self.delta)

    def __truediv__(self, other):
        return self * QuadNum.of(other).inverse()

    def __rtruediv__(self, other):
        return QuadNum.of(other) * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = QuadNum(1)
        for _ in range(exponent):
            out = out * self
        return out

    # -- ordering and equality ------------------------------------------------

    def sign(self) -> int:
        return sign_q(self.a, self.b, self.delta)

    def compare(self, other) -> int:
        """Exact three-way comparison; works across different radicands."""
        other = QuadNum.of(other)
        return two_field_sign(self.a - other.a, self.b, -other.b, 0,
                              self.delta, other.delta)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadNum.of(other)
        if not isinstance(other, QuadNum):
            return NotImplemented
        if self.delta == other.delta:
            return self.a == other.a and self.b == other.b
        return (self.a == other.a and self.delta != 0 and other.delta != 0
                and (self.b > 0) == (other.b > 0)
                and self.b * self.b * self.delta
                == other.b * other.b * other.delta)

    def __hash__(self):
        if self.delta == 0:
            return hash(self.a)
        # b*b*delta in lowest terms: gcd(n, d) = 1, so only delta and d*d share
        n, d = self.b.numerator, self.b.denominator
        g = gcd(self.delta, d * d)
        return hash((self.a, n * abs(n) * (self.delta // g), d * d // g))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * sqrt(self.delta)

    def __repr__(self):
        return f"QuadNum({self.a!r}, {self.b!r}, {self.delta!r})"

    def __str__(self):
        a, b = self.a, self.b
        return parts_text([(a.numerator * b.denominator,
                            b.numerator * a.denominator)],
                          self.delta, a.denominator * b.denominator)[0]


def _ratio_text(a: int, n: int) -> str:
    """a/n in lowest terms, printed as a Fraction prints, for n > 0."""
    h = gcd(a, n)
    return f"{a // h}" if h == n else f"{a // h}/{n // h}"


def parts_text(parts, delta: int, n: int) -> list[str]:
    """The printed form of (a + b*sqrt(delta))/n for each integer pair (a, b)
    of parts, with n > 0 and delta 0 or not a square, as QuadNum prints it;
    the radicand's squares are taken out once for all of them."""
    s, m = _printed_radicand(delta) if delta else (1, 0)
    out = []
    for a, b in parts:
        if not (b and delta):
            out.append(_ratio_text(a, n))
            continue
        head = _ratio_text(a, n) if a else ""
        sgn = "+" if b > 0 and head else ""
        out.append(f"{head}{sgn}{_ratio_text(b * s, n)}*sqrt({m})")
    return out


def conjugate_floors(p: int, q: int, d: int, n: int, k: int) -> tuple[int, int]:
    """floor(2^k * (p +- q*sqrt(d))/n), + first, for integers p, q, d >= 0
    and n > 0, from s = isqrt(q^2*d*4^k): floor((2^k*p + s)/n) and
    floor((2^k*p - s - 1)/n), swapped for q < 0.  q^2*d is 0 (and the - 1
    goes) or not a square, as d is 0 or not a square."""
    s = isqrt((q << k) ** 2 * d)
    p <<= k
    hi, lo = (p + s) // n, (p - s - (s > 0)) // n
    return (hi, lo) if q >= 0 else (lo, hi)


# bits of the integer prefix floor(2^K * v) that sort keys compare first
PREFIX_BITS = 32


class Surd(tuple):
    """(a, n, b, d): the integer surd (a + b*sqrt(d))/n, with n > 0 and d 0
    or not a square, ordered exactly; a sort key compares it when the
    prefixes floor(2^K * v) before it tie."""

    __slots__ = ()

    def _sign(self, other: "Surd") -> int:
        """The sign of self - other."""
        a, n, b, d = self
        oa, on, ob, od = other
        return two_field_sign(a * on - oa * n, b * on, -ob * n, 0, d, od)

    def __eq__(self, other):
        return not self._sign(other)

    def __lt__(self, other):
        return self._sign(other) < 0


ZERO = QuadNum(0)


def cleared_parts(values) -> tuple[int, int, list[int]]:
    """(D, delta, ints) for a sequence of QuadNums: each written over one
    radicand delta (QuadNum._join), and its parts a, b in order times D, the
    lcm of their denominators, so v = (a + b*sqrt(delta))/D.

    Raises ValueError when the values lie in two quadratic fields.
    """
    first = next((v for v in values if v.delta), ZERO)
    parts = []
    for v in values:
        parts += (v.a, first._join(v)[1])
    d, ints = cleared(parts)
    return d, first.delta, ints


class QuadPoint:
    """A planar point with both coordinates in one quadratic field, stored
    over one radicand."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x, y = QuadNum.of(x), QuadNum.of(y)
        if x.delta and y.delta and x.delta != y.delta:
            try:  # y over x's radicand
                y = _quad(y.a, x._join(y)[1], x.delta)
            except ValueError:
                raise ValueError(
                    "QuadPoint coordinates must share one field") from None
        self.x, self.y = x, y

    @classmethod
    def of(cls, value) -> "QuadPoint":
        if isinstance(value, QuadPoint):
            return value
        x, y = value
        return cls(x, y)

    @property
    def delta(self) -> int:
        return self.x.delta or self.y.delta

    @property
    def is_rational(self) -> bool:
        return self.x.is_rational and self.y.is_rational

    def compare(self, other: "QuadPoint") -> int:
        return self.x.compare(other.x) or self.y.compare(other.y)

    def __eq__(self, other):
        if not isinstance(other, QuadPoint):
            try:
                other = QuadPoint.of(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __iter__(self):
        return iter((self.x, self.y))

    def __repr__(self):
        return f"QuadPoint({self.x!r}, {self.y!r})"

    def __str__(self):
        return f"({self.x}, {self.y})"


def _point(x: QuadNum, y: QuadNum) -> QuadPoint:
    """A QuadPoint from coordinates already over one radicand."""
    p = object.__new__(QuadPoint)
    p.x, p.y = x, y
    return p
