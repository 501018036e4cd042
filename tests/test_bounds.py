import math

import pytest

from circlelens.bounds import (BOUND_KINDS, bound_eval, clamped_log,
                               dyadic_degree_sum, recurrence_certify,
                               select_z)
from circlelens.errors import InvalidInput, OutOfDomain


def test_clamped_log():
    assert clamped_log(1.0) == 1.0
    assert clamped_log(math.e ** 2) == 2.0
    with pytest.raises(InvalidInput):
        clamped_log(0.0)


def test_bound_eval_validation():
    with pytest.raises(InvalidInput):
        bound_eval("nope", n=10)
    with pytest.raises(InvalidInput):
        bound_eval("thm1-count", n=10, k=1)
    with pytest.raises(InvalidInput):
        bound_eval("pt-circle", n=10, m=0)


def test_bound_eval_unit_constant_values():
    # at n = k^3 the clamped log is 1 and thm1-degree reduces to n^{3/2}/k^{3/2} + n
    n, k = 64.0, 4.0
    assert bound_eval("thm1-degree", n=n, k=k) == \
        pytest.approx(n ** 1.5 / k ** 1.5 + n)
    assert bound_eval("gk-degree", n=100, k=5) == \
        pytest.approx(100 ** 2 / 125 + 100)
    assert bound_eval("mt", n=100) == pytest.approx(100 ** 1.5 * math.log(100))
    assert bound_eval("thm1-count", n=1000, k=2, const=2.0) == \
        pytest.approx(2 * (1000 ** 1.5 * math.log(125) / 2 ** 2.5 + 500))


def test_bound_eval_monotone():
    for kind in ("thm1-count", "thm1-degree"):
        values = [bound_eval(kind, n=10 ** 6, k=k) for k in (2, 3, 5, 8, 13)]
        assert values == sorted(values, reverse=True), kind
        growth = [bound_eval(kind, n=n, k=3) for n in (10 ** 3, 10 ** 4, 10 ** 5)]
        assert growth == sorted(growth), kind


def test_all_kinds_positive():
    for kind in BOUND_KINDS:
        v = bound_eval(kind, n=10 ** 4, k=3, m=10 ** 3)
        assert v > 0, kind


def test_dyadic_degree_sum_ratio_bounded():
    ratios = []
    for e in range(10, 31, 2):
        n = 2.0 ** e
        kmax = int(n ** (1 / 3))
        for k in range(2, kmax + 1, max(1, kmax // 6)):
            _, ratio = dyadic_degree_sum(n, float(k))
            ratios.append(ratio)
    assert max(ratios) < 16.0
    assert min(ratios) > 0.0


def test_dyadic_validation():
    with pytest.raises(InvalidInput):
        dyadic_degree_sum(100.0, 50.0)


def test_select_z():
    z, depth = select_z(2.0 ** 20, 16.0)
    assert z == 2.0 and depth == 3
    z, depth = select_z(2 * 8.0, 2.0)
    assert z == 2.0 and depth == 0
    with pytest.raises(OutOfDomain):
        select_z(8.0, 2.0)  # n = k^3, below the sqrt(2) threshold


@pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
def test_recurrence_rejects_richness_below_two(k):
    # k = 0 divided by zero and k = -1 took a square root of a negative z
    for call in (select_z, recurrence_certify):
        with pytest.raises(InvalidInput, match=r"recurrence needs k >= 2"):
            call(100.0, k)


def test_recurrence_reference_trace():
    trace = recurrence_certify(2.0 ** 20, 16.0)
    assert trace.z == 2.0 and trace.depth == 3
    assert trace.passed
    # the z-iterates read 256 -> 16 -> 4 -> 2 top-down
    k3 = 16.0 ** 3
    iterates = [row.n_j / k3 for row in reversed(trace.rows)]
    assert iterates == [256.0, 16.0, 4.0, 2.0]
    for label, lhs, rhs, ok in trace.checks:
        assert ok, (label, lhs, rhs)
        if label.startswith("identity"):
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_recurrence_certificate_formula():
    trace = recurrence_certify(2.0 ** 20, 16.0, a=1.0, a0=1.0)
    expected = math.sqrt(2.0) * (3 ** 2.5) ** 3 * (2.0 ** 20) ** 1.5 / 16.0 ** 1.5
    assert trace.certificate == pytest.approx(expected)


def test_recurrence_constants_validated():
    with pytest.raises(InvalidInput):
        recurrence_certify(2.0 ** 20, 16.0, a=0.5)


def test_recurrence_sweep():
    import time
    start = time.time()
    count = 0
    for e in range(10, 30):
        n = 2.0 ** e
        for k in (2.0, 3.0, 5.0, 8.0, 13.0):
            if n > k ** 3 * math.sqrt(2):
                trace = recurrence_certify(n, k)
                assert trace.passed, (n, k)
                count += 1
    assert count >= 90
    assert time.time() - start < 1.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_inputs_are_rejected(bad):
    for kwargs in ({"n": bad}, {"n": 100.0, "k": bad}, {"n": 100.0, "m": bad},
                   {"n": 100.0, "const": bad}):
        with pytest.raises(InvalidInput, match="must be finite"):
            bound_eval("pt-circle", **{"m": 5.0, **kwargs})
    for args, kwargs in (((bad, 2.0), {}), ((1000.0, bad), {}),
                         ((1000.0, 2.0), {"const": bad})):
        with pytest.raises(InvalidInput, match="must be finite"):
            dyadic_degree_sum(*args, **kwargs)
    for args in ((bad, 2.0), (1000.0, bad)):
        with pytest.raises(InvalidInput, match="must be finite"):
            select_z(*args)
    for kwargs in ({"a": bad}, {"a0": bad}):
        with pytest.raises(InvalidInput, match="must be finite"):
            recurrence_certify(2.0 ** 20, 16.0, **kwargs)
