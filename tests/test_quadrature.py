import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopflab.quadrature import (adaptive_simpson, bisect, cumulative_trapezoid,
                                gauss_segment, integral_to_zero)


def test_simpson_polynomial_exact():
    val = adaptive_simpson(lambda x: 3 * x ** 2, 0.0, 2.0)
    assert abs(val - 8.0) < 1e-12


def test_simpson_tolerance():
    val = adaptive_simpson(np.sin, 0.0, np.pi, tol=1e-12)
    assert abs(val - 2.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.1, 3.0), b=st.floats(3.5, 8.0))
def test_simpson_exp(a, b):
    val = adaptive_simpson(np.exp, a, b, tol=1e-11)
    assert abs(val - (np.exp(b) - np.exp(a))) < 1e-8


def test_gauss_segment_smooth():
    assert abs(gauss_segment(np.cos, 0.0, 1.0) - np.sin(1.0)) < 1e-14


@pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.9])
def test_endpoint_integral_power(a):
    res = integral_to_zero(lambda t: t ** (a - 1.0), 1.0)
    assert res.converges
    assert abs(res.value - 1.0 / a) < 1e-8 / a


def test_endpoint_integral_log_divergent():
    res = integral_to_zero(lambda t: 1.0 / (t * (-np.log(t))), 0.5)
    assert not res.converges
    assert res.classification == "divergent"


def test_endpoint_integral_log_convergent():
    res = integral_to_zero(lambda t: 1.0 / (t * (-np.log(t)) ** 2), 0.5)
    assert res.converges
    assert abs(res.value - 1.0 / np.log(2.0)) < 1e-4


def test_floored_integrand_reported():
    res = integral_to_zero(lambda t: t ** (-0.5), 1.0, t_floor=1e-4)
    assert res.classification == "floored"
    # geometric decay already resolved, the flag still records the floor
    assert res.converges


# --- kernels against their loop forms ------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(0, 90))
def test_bisect_matches_scalar_loop(seed, steps):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 0.0, 50)
    hi = lo + rng.uniform(0.0, 3.0, 50)
    y = rng.uniform(-8.0, 8.0, 50)
    got = bisect(lambda mid: mid * mid * mid < y, lo, hi, steps)
    for k in range(50):
        a, b = lo[k], hi[k]
        for _ in range(steps):
            mid = 0.5 * (a + b)
            if mid * mid * mid < y[k]:
                a = mid
            else:
                b = mid
        assert got[k] == 0.5 * (a + b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60))
def test_cumulative_trapezoid_matches_running_sum(seed, n):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.0, 1.0, n))
    y = rng.normal(size=n)
    got = cumulative_trapezoid(y, x)
    total = 0.0
    assert got[0] == 0.0
    for k in range(1, n):
        total += 0.5 * (y[k] + y[k - 1]) * (x[k] - x[k - 1])
        assert got[k] == total
