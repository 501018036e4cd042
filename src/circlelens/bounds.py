"""Numeric evaluation of the closed-form bounds and recurrence certification.

Everything here is deliberately floating point: the geometry modules own
exactness, while this module certifies formula structure, the dyadic
decomposition, and the recurrence algebra with explicit unit constants.
The log convention is L(x) = max(1, ln x), which keeps every bound positive
and defined near n = k^3.
"""

from __future__ import annotations

import math
from functools import wraps

from .errors import InvalidInput, OutOfDomain
from .records import FrozenRecord

BOUND_KINDS = ("thm1-count", "thm1-degree", "gk-degree", "mt",
               "pt-circle", "lens-circle")


def clamped_log(x: float) -> float:
    """L(x) = max(1, ln x); defined as 1 for x <= e."""
    if x <= 0:
        raise InvalidInput("clamped log needs a positive argument")
    return max(1.0, math.log(x))


def _finite(**values: float) -> None:
    """Raise InvalidInput naming the first non-finite value."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, not {value}")


def _in_range(fn):
    """Raise InvalidInput where finite inputs give a bound past the float
    range: an OverflowError, or an infinite or nan result."""
    @wraps(fn)
    def checked(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except OverflowError:
            out = math.inf
        values = out if isinstance(out, tuple) else (getattr(out, "certificate", out),)
        if not all(map(math.isfinite, values)):
            raise InvalidInput(f"{fn.__name__}: the bound overflows a float")
        return out
    return checked


@_in_range
def bound_eval(kind: str, n: float, k: float = 2.0, m: float = 0.0,
               const: float = 1.0) -> float:
    """Evaluate one closed-form bound with unit constants by default.

    thm1-count:  count of pairwise non-overlapping k-rich lenses
    thm1-degree: sum of degrees of such a family
    gk-degree:   the large-k degree bound n^2/k^3 + n
    mt:          the k=2 family-size bound n^(3/2) * L(n)
    pt-circle:   point-circle incidences for m points, n circles
    lens-circle: lens-circle incidences for m non-overlapping lenses
    """
    if kind not in BOUND_KINDS:
        raise InvalidInput(f"unknown bound kind {kind!r}")
    _finite(n=n, k=k, m=m, const=const)
    if n <= 0 or k < 2:
        raise InvalidInput("need n > 0 and k >= 2")
    if kind in ("pt-circle", "lens-circle") and m <= 0:
        raise InvalidInput(f"{kind} needs m > 0")
    lognk3 = clamped_log(n / k ** 3) if n > k ** 3 else 1.0
    if kind == "thm1-count":
        return const * (n ** 1.5 * lognk3 / k ** 2.5 + n / k)
    if kind == "thm1-degree":
        return const * (n ** 1.5 * lognk3 / k ** 1.5 + n)
    if kind == "gk-degree":
        return const * (n ** 2 / k ** 3 + n)
    if kind == "mt":
        return const * n ** 1.5 * clamped_log(n)
    if kind == "pt-circle":
        return const * (m ** (2 / 3) * n ** (2 / 3)
                        + m ** (6 / 11) * n ** (9 / 11)
                        * clamped_log(m ** 3 / n) ** (2 / 11)
                        + m + n)
    return const * (m ** 0.6 * n ** 0.6
                    * clamped_log(m ** 3 / n ** 2) ** 0.4 + n)


@_in_range
def dyadic_degree_sum(n: float, k: float, const: float = 1.0) -> tuple[float, float]:
    """Sum the dyadic richness-class degree bounds and compare to the closed
    form.

    Classes j = 1..j0 hold lenses that are 2^(-j) * n^(1/3)-rich; the j = 0
    class of n^(1/3)-rich lenses contributes the linear term.  Returns
    (sum, ratio-to-closed-form).
    """
    _finite(n=n, k=k, const=const)
    if k < 2 or k > n ** (1 / 3) * (1 + 1e-12):
        raise InvalidInput("dyadic sum needs 2 <= k <= n^(1/3)")
    cube_root = n ** (1 / 3)
    j0 = 0
    while 2.0 ** (-j0) * cube_root > k:
        j0 += 1
    total = float(n)
    for j in range(1, j0 + 1):
        rich = 2.0 ** (-j) * cube_root
        total += (2.0 * rich) * const * n ** 1.5 \
            * clamped_log(2.0 ** (3 * j)) / rich ** 2.5
    closed = const * n ** 1.5 * clamped_log(n / k ** 3) / k ** 1.5 + n
    return total, total / closed


class TraceRow(FrozenRecord):
    _fields = ("j", "n_j", "d_j", "bound_j")


class RecurrenceTrace(FrozenRecord):
    _fields = ("z", "depth", "rows", "checks", "certificate")

    def __init__(self, z: float, depth: int, rows: list[TraceRow] | None = None,
                 checks: list[tuple[str, float, float, bool]] | None = None,
                 certificate: float = 0.0):
        self.__dict__.update(z=z, depth=depth,
                             rows=[] if rows is None else rows,
                             checks=[] if checks is None else checks,
                             certificate=certificate)

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.checks)


@_in_range
def select_z(n: float, k: float) -> tuple[float, int]:
    """Iterate z_j = (n/k^3)^(1/2^j) until sqrt(2) < z_j <= 2."""
    _finite(n=n, k=k)
    if k < 2:
        raise InvalidInput("recurrence needs k >= 2")
    if n <= k ** 3 * math.sqrt(2):
        raise OutOfDomain("recurrence needs n > k^3 * sqrt(2)")
    z = n / k ** 3
    depth = 0
    while z > 2.0:
        z = math.sqrt(z)
        depth += 1
    return z, depth


@_in_range
def recurrence_certify(n: float, k: float, a: float = 1.0,
                       a0: float = 1.0) -> RecurrenceTrace:
    """Numerically verify the doubling recurrence solution line by line.

    Builds n_j = k^3 * z^(2^j) and D_j = z^(2^(j-1)), checks the product
    identity D_j^2 * n_{j+1} = n_{j+1}^(3/2) / k^(3/2), and walks the
    induction chain that turns the single-step recurrence into the certified
    bound a0 * sqrt(z) * (3a)^j * n_j^(3/2) / k^(3/2).
    """
    _finite(const=a, const0=a0)
    if a < 1 or a0 < 1:
        raise InvalidInput("constants must be at least 1")
    z, depth = select_z(n, k)
    trace = RecurrenceTrace(z=z, depth=depth, certificate=a0 * math.sqrt(z)
                            * (3 ** 2.5 * a) ** depth * n ** 1.5 / k ** 1.5)

    def n_at(j):
        return k ** 3 * z ** (2 ** j)

    def d_at(j):
        return z ** (2 ** (j - 1)) if j >= 1 else math.sqrt(z)

    def bound_at(j):
        return a0 * math.sqrt(z) * (3 * a) ** j * n_at(j) ** 1.5 / k ** 1.5

    for j in range(depth + 1):
        trace.rows.append(TraceRow(j=j, n_j=n_at(j), d_j=d_at(j),
                                   bound_j=bound_at(j)))

    def check(label, lhs, rhs, ok):
        trace.checks.append((label, lhs, rhs, ok))

    # terminal n_s must equal n
    check("n_s == n", n_at(depth), n, abs(n_at(depth) - n) <= 1e-10 * n)
    check("sqrt(2) < z <= 2", z, 2.0, math.sqrt(2) < z <= 2.0)

    for j in range(depth):
        nj, nj1, dj = n_at(j), n_at(j + 1), d_at(j)
        # the product identity D_j^2 n_{j+1} = n_{j+1}^{3/2}/k^{3/2}
        lhs = dj ** 2 * nj1
        rhs = nj1 ** 1.5 / k ** 1.5
        check(f"identity j={j}", lhs, rhs, abs(lhs - rhs) <= 1e-12 * rhs)
        # n_{j+1} = D_j^2 n_j
        check(f"n-step j={j}", dj ** 2 * nj, nj1,
              abs(dj ** 2 * nj - nj1) <= 1e-12 * nj1)
        # base-term absorption: F + a D^3 F <= 2 a D^3 F needs a D^3 >= 1
        check(f"absorb j={j}", a * dj ** 3, 1.0, a * dj ** 3 >= 1.0)
        # substitution step is an equality: 2 a D_j^3 bound_j equals
        # 2 * 3^j * a0 sqrt(z) * a^(j+1) * n_{j+1}^{3/2}/k^{3/2}
        lhs = 2 * a * dj ** 3 * bound_at(j)
        rhs = 2 * 3 ** j * a0 * math.sqrt(z) * a ** (j + 1) * nj1 ** 1.5 / k ** 1.5
        check(f"substitute j={j}", lhs, rhs, abs(lhs - rhs) <= 1e-12 * rhs)
        # final absorption of the a D_j^2 n_{j+1} overhead term
        lhs = rhs + a * dj ** 2 * nj1
        rhs2 = bound_at(j + 1)
        check(f"chain j={j}", lhs, rhs2, lhs <= rhs2 * (1 + 1e-12))
    return trace
