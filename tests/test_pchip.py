"""The numpy PCHIP kernel against SciPy's PchipInterpolator as the reference."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from hopflab import PowerModulus, barrier, build_barrier, power, zeta_from_modulus
from hopflab.pchip import Pchip


@st.composite
def tables(draw):
    """Strictly increasing knots with monotone, arbitrary or stepped values."""
    n = draw(st.one_of(st.just(2), st.just(3), st.integers(2, 50)))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-10.0, 10.0)) + np.cumsum([0.0] + gaps)
    assume(np.all(np.diff(x) > 0))
    kind = draw(st.sampled_from(["increasing", "decreasing", "any", "flat_runs"]))
    if kind == "flat_runs":
        # small integers: repeated neighbours and sign changes of the slope
        y = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), float)
    else:
        y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        if kind != "any":
            y = np.cumsum(np.abs(y)) * (1 if kind == "increasing" else -1)
    return x, y


def queries(x, extra):
    gap = x[-1] - x[0]
    return np.concatenate([x, 0.5 * (x[1:] + x[:-1]), [x[0], x[-1]],
                           [x[0] - 0.3 * gap, x[-1] + 0.3 * gap], extra])


def same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a), np.signbit(b))


@settings(max_examples=150, deadline=None)
@given(table=tables(), extrapolate=st.booleans(),
       extra=st.lists(st.floats(-40.0, 600.0), max_size=8))
# a subnormal last value: SciPy's constructor overflows in a slope divide
@example(table=(np.arange(19.0), np.array([0.0] * 18 + [2.22507386e-311])),
         extrapolate=False, extra=[])
def test_matches_scipy_bit_for_bit(table, extrapolate, extra):
    x, y = table
    q = queries(x, np.array(extra, dtype=float))
    # only the reference is built under errstate, so Pchip's own warnings fail
    with np.errstate(over="ignore", divide="ignore"):
        ref = PchipInterpolator(x, y, extrapolate=extrapolate)
    got = Pchip(x, y, extrapolate=extrapolate)
    assert same_bits(got(q), ref(q))
    assert same_bits(got.derivative()(q), ref.derivative()(q))
    assert same_bits(got.antiderivative()(q), ref.antiderivative()(q))
    assert np.array_equal(got.antiderivative().c, ref.antiderivative().c)


def test_outside_without_extrapolation_is_nan():
    f = Pchip([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], extrapolate=False)
    v = f(np.array([-1e-12, 0.0, 2.0, 2.0 + 1e-12, np.nan]))
    assert np.isnan(v[[0, 3, 4]]).all() and np.isfinite(v[[1, 2]]).all()
    assert np.isnan(f.antiderivative()(3.0))


@pytest.mark.parametrize("x, y", [([0.0], [1.0]), ([0.0, 0.0], [1.0, 2.0]),
                                  ([0.0, 1.0], [1.0, np.inf]),
                                  ([0.0, 1.0, 2.0], [1.0, 2.0])])
def test_bad_tables_refused(x, y):
    with pytest.raises(ValueError):
        Pchip(x, y)


def test_barrier_profile_builds_its_interpolants_once(monkeypatch):
    prof = build_barrier(power(3.0), zeta_from_modulus(PowerModulus(0.5), 1.0, 1.0, 1.0),
                         0.1, 1.0, 1.0)
    built = []

    class Counting(Pchip):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(barrier, "Pchip", Counting)
    w = np.linspace(-0.1, 1.1, 7)
    first = prof.eval_f(w), prof.eval_fp(w)
    for _ in range(3):
        assert same_bits(prof.eval_f(w), first[0])
        assert same_bits(prof.eval_fp(w), first[1])
    assert len(built) == 2
    assert same_bits(first[0][1:-1], PchipInterpolator(prof.knots, prof.f)(w[1:-1]))
