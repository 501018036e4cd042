"""Exact arithmetic on Q-linear combinations of square roots of integers.

A :class:`Rad` value is a finite sum ``sum(c_d * sqrt(d))`` over positive
integers ``d`` with rational coefficients.  No radicand is ever factored.
Before terms merge, their radicands are rewritten over a coprime base found
by gcd refinement (Bernstein, "Factoring into coprimes in essentially linear
time", J. Algorithms 2005): every radicand becomes s*s times a product of
distinct base elements that are not squares.  A product of distinct pairwise
coprime non-squares is never a square, so distinct products name distinct
square classes and their roots are linearly independent over Q
(Besicovitch).  A value is therefore zero exactly when it has no terms, and
its sign is found by splitting off one base element and squaring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 whose products give every input > 1.

    Each input is a product of powers of the returned elements.
    """
    base: list[int] = []
    todo = [n for n in numbers if n > 1]
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g != 1:
                # b = g * (b/g) and x = g * (x/g); refine all three
                del base[i]
                todo.extend((b // g, g, x // g))
                break
        else:
            base.append(x)
    return sorted(base)


def _merge(pairs) -> dict:
    """Sum (radicand, coefficient) pairs by radicand, dropping zero terms."""
    out: dict = {}
    for d, c in pairs:
        if d in out:
            out[d] += c
        else:
            out[d] = c
    return {d: c for d, c in out.items() if c and d}


def _independent(terms: dict) -> dict:
    """The same sum with radicands rewritten over a coprime base, so that
    distinct radicands lie in distinct square classes."""
    roots = [d for d in terms if d != 1]
    if len(roots) == 1:
        r = isqrt(roots[0])
        if r * r != roots[0]:
            return terms
    elif not roots:
        return terms
    base = [(b, r if r * r == b else 0)
            for b, r in ((b, isqrt(b)) for b in coprime_base(roots))]
    out: dict = {}
    for d, c in terms.items():
        key = 1
        for b, r in base:
            e = 0
            while d % b == 0:
                d //= b
                e += 1
            if not e:
                continue
            if r:
                c *= r ** e
            else:
                c *= b ** (e // 2)
                if e % 2:
                    key *= b
        out[key] = out[key] + c if key in out else c
    return {d: c for d, c in out.items() if c}


class Rad:
    """An exact real number of the form sum(coeff * sqrt(d)), d a positive integer."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """terms: a mapping or iterable of (radicand, coefficient) pairs."""
        if hasattr(terms, "items"):
            terms = terms.items()
        self.terms = _independent(_merge(terms))

    @classmethod
    def _of(cls, terms: dict) -> "Rad":
        """A Rad from terms whose radicands are already independent."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    def _combine(self, other: "Rad", pairs) -> "Rad":
        terms = _merge(pairs)
        keys = terms.keys()
        if keys <= self.terms.keys() or keys <= other.terms.keys():
            return Rad._of(terms)
        return Rad._of(_independent(terms))

    @classmethod
    def rational(cls, q) -> "Rad":
        q = Fraction(q)
        return cls._of({1: q} if q else {})

    @classmethod
    def root_term(cls, coeff, radicand) -> "Rad":
        """coeff * sqrt(radicand) for any nonnegative rational radicand."""
        radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError("radicand must be nonnegative")
        # sqrt(p/q) = sqrt(p*q)/q
        return cls({radicand.numerator * radicand.denominator:
                    Fraction(coeff) / radicand.denominator})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "Rad":
        return Rad._of({d: -c for d, c in self.terms.items()})

    def __add__(self, other) -> "Rad":
        if isinstance(other, (int, Fraction)):
            other = Rad.rational(other)
        return self._combine(other, (*self.terms.items(), *other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other) -> "Rad":
        if isinstance(other, (int, Fraction)):
            other = Rad.rational(other)
        return self + (-other)

    def __rsub__(self, other) -> "Rad":
        return (-self) + other

    def __mul__(self, other) -> "Rad":
        if isinstance(other, (int, Fraction)):
            return Rad._of({d: c * other for d, c in self.terms.items()}
                           if other else {})
        pairs = []
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                # sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g^2)
                g = gcd(d1, d2)
                pairs.append(((d1 // g) * (d2 // g), c1 * c2 * g))
        return self._combine(other, pairs)

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1:
            ((_, c),) = terms.items()
            return 1 if c > 0 else -1
        # Split off one base element p of the radicands: S = U + V*sqrt(p)
        # with U, V free of p; compare U^2 against p*V^2 when signs disagree.
        # Every radicand is a product of distinct base elements, so p divides
        # it at most once.
        p = coprime_base(terms)[-1]
        u = Rad._of({d: c for d, c in terms.items() if d % p})
        v = Rad._of({d // p: c for d, c in terms.items() if d % p == 0})
        su, sv = u.sign(), v.sign()
        if sv == 0:
            return su
        if su == 0:
            return sv
        if su == sv:
            return su
        s = (u * u - v * v * p).sign()
        return s if su > 0 else -s

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Rad.rational(other)
        if not isinstance(other, Rad):
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        # c*sqrt(d) is fixed by (sign c, c*c*d) whatever d represents it
        return hash(frozenset((c > 0, c * c * d) for d, c in self.terms.items()))

    def __float__(self) -> float:
        return float(sum(float(c) * d ** 0.5 for d, c in self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "Rad(0)"
        parts = [f"{c}*sqrt({d})" if d != 1 else str(c)
                 for d, c in sorted(self.terms.items())]
        return "Rad(" + " + ".join(parts) + ")"
