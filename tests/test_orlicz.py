import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopflab import (WeightSample, check_condition_R, check_conditions, conjugate,
                     custom, orlicz_norm, power, young_gap)
from hopflab.orlicz import OrliczFunction
from hopflab.errors import (InversionFailure, NonMonotone, NonzeroOrigin,
                            OutOfRange)


def minimal_surface():
    ts = np.linspace(0.0, 100.0, 4001)
    return custom(table=(ts, ts / np.sqrt(1 + ts ** 2)))


# --- construction -----------------------------------------------------------

def test_power_requires_p_above_one():
    with pytest.raises(OutOfRange):
        power(1.0)


def test_custom_rejects_decreasing_table():
    ts = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(NonMonotone):
        custom(table=(ts, np.array([0.0, 1.0, 0.5, 2.0])))


def test_nonmonotone_message_prints_a_plain_float():
    # a table refuses a decreasing law before any sample is taken, so the
    # sampled check is reached through the constructor
    with pytest.raises(NonMonotone, match=r"near t = \d") as exc:
        OrliczFunction("custom", np.sin, 10.0, h_prime_fn=np.cos)
    assert "np.float64" not in str(exc.value)


def test_custom_rejects_nonzero_origin():
    ts = np.linspace(0.0, 10.0, 11)
    with pytest.raises(NonzeroOrigin):
        custom(table=(ts, ts + 0.5))


def test_minimal_surface_constructs():
    of = minimal_surface()
    assert of.kind == "custom"


# --- evaluation -------------------------------------------------------------

def companions(of, t):
    """F(t), h(t), g(t), F*(t) and R(t) as floats."""
    return tuple(float(f(np.array([t]))[0]) for f in (of.F, of.h, of.g, of.Fstar, of.R))


def test_eval_power2_at_one():
    F, h, g, Fstar, R = companions(power(2.0), 1.0)
    assert F == pytest.approx(0.5, abs=1e-12)
    assert h == pytest.approx(1.0, abs=1e-12)
    assert g == pytest.approx(1.0, abs=1e-12)
    assert Fstar == pytest.approx(0.5, abs=1e-12)
    assert R == pytest.approx(1.0, abs=1e-12)


def test_eval_power3_at_two():
    F, h, g, Fstar, R = companions(power(3.0), 2.0)
    assert F == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert h == pytest.approx(4.0, abs=1e-12)
    assert g == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # closed form of the conjugate for h = t^2: (2/3) t^(3/2)
    assert Fstar == pytest.approx((2.0 / 3.0) * 2.0 ** 1.5, abs=1e-9)
    assert R == pytest.approx(1.0, abs=1e-12)


def tabulated(h):
    """The law h tabulated in 200 rows on [0, 10]."""
    ts = np.linspace(0.0, 10.0, 200)
    return custom(table=(ts, h(ts)))


@pytest.mark.parametrize("t", [0.25, 1.0, 2.0, 3.0])
def test_eval_tabulated_young_equality(t):
    # F(t) + F*(h(t)) = t h(t); exactly F = t^2/2 + t^3/6 here
    of = tabulated(lambda t: t + t * t / 2)
    F, h = float(of.F(t)), float(of.h(t))
    gap = F + float(of.Fstar(h)) - t * h
    assert abs(gap) <= 1e-6 * t * h
    assert abs(F - (t * t / 2 + t ** 3 / 6)) <= 1e-6


def test_eval_tabulated_above_h_top_fails_to_invert():
    # h(t_max) = 5, so g has no bracket at 6
    with pytest.raises(InversionFailure):
        tabulated(lambda t: t / 2).g(6.0)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.1, 6.0), t=st.floats(1e-6, 100.0))
def test_inverse_identity_power(p, t):
    of = power(p)
    assert float(of.g(of.h(np.array([t])))[0]) == pytest.approx(t, rel=1e-10)
    assert float(of.h(of.g(np.array([t])))[0]) == pytest.approx(t, rel=1e-10)


def test_inverse_identity_custom():
    of = minimal_surface()
    tv = np.geomspace(1e-3, 50.0, 40)
    assert np.max(np.abs(of.g(of.h(tv)) - tv)) < 1e-8 * 50


def test_custom_inversion_failure_beyond_range():
    of = minimal_surface()   # h < 1 everywhere
    with pytest.raises(InversionFailure):
        of.g(np.array([1.5]))


# --- Young ------------------------------------------------------------------

def test_young_examples():
    assert young_gap(power(2.0), 3.0, 3.0) == pytest.approx(0.0, abs=1e-12)
    assert young_gap(power(2.0), 1.0, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert young_gap(power(3.0), 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(p=st.floats(1.2, 5.0), a=st.floats(0.0, 50.0), b=st.floats(0.0, 50.0))
def test_young_nonnegative_power(p, a, b):
    assert young_gap(power(p), a, b) >= -1e-10


def test_young_custom_near_equality():
    of = minimal_surface()
    for a in (0.5, 2.0, 10.0):
        b = float(of.h(np.array([a]))[0])
        assert abs(young_gap(of, a, b)) < 1e-5


# --- conditions -------------------------------------------------------------

def test_conditions_power_pass():
    reports = {r.condition_id: r for r in check_conditions(power(3.0), 3.0)}
    assert reports["Physical"].passed
    assert reports["Coercivity"].passed
    assert reports["Coercivity"].constants["c"] == pytest.approx(1.0, rel=1e-9)
    assert reports["Coercivity"].constants["C"] == pytest.approx(1.0, rel=1e-9)
    assert reports["Delta2"].passed


def test_delta2_power2_constant():
    reports = {r.condition_id: r for r in check_conditions(power(2.0), 2.0)}
    assert reports["Delta2"].constants["C0"] == pytest.approx(4.0, abs=1e-6)


def test_minimal_surface_fails_coercivity():
    of = minimal_surface()
    reports = {r.condition_id: r for r in check_conditions(of, 2.0)}
    assert reports["Physical"].passed
    assert not reports["Coercivity"].passed
    assert not reports["Delta2"].passed
    assert len(reports["Coercivity"].witnesses) > 0


def test_condition_reports_have_witnesses_on_failure():
    of = minimal_surface()
    for rep in check_conditions(of, 2.0):
        if not rep.passed:
            assert rep.witnesses


# --- the technical condition on R -------------------------------------------

def test_condition_R_power_reports_one_and_C():
    samples = [WeightSample.constant(0.7), WeightSample.constant(1.5),
               WeightSample.ramp(0.7, 1.5, (0.05, 5.0))]
    rep = check_condition_R(power(2.5), samples, (0.05, 5.0))
    assert rep.passed
    assert rep.constants["alpha"] == 1.0
    assert rep.constants["beta"] == pytest.approx(1.5)


def test_condition_R_identity_weight():
    rep = check_condition_R(power(2.0), [WeightSample.constant(1.0)], (0.05, 5.0))
    assert rep.passed
    assert rep.constants["alpha"] == 1.0
    assert rep.constants["beta"] == pytest.approx(1.0)


def test_condition_R_near_constant_R():
    # h = exp(t) - 1 restricted to a range where R is nearly constant
    ts = np.linspace(0.0, 30.0, 3001)
    of = custom(table=(ts, np.expm1(ts)))
    samples = [WeightSample.constant(0.9), WeightSample.constant(1.1),
               WeightSample.ramp(0.9, 1.1, (6.0, 12.0))]
    rep = check_condition_R(of, samples, (6.0, 12.0))
    assert rep.passed
    assert rep.constants["alpha"] == 1.0


# --- norms ------------------------------------------------------------------

def unit_square_norm(values, of):
    """The norm of values sampled on the n x n cells of the unit square."""
    return orlicz_norm(values, of, cell_area=1.0 / values.shape[0] ** 2)


def test_norm_zero_field():
    assert unit_square_norm(np.zeros((32, 32)), power(2.0)) == 0.0


def test_norm_constant_unit_area():
    assert unit_square_norm(np.ones((64, 64)), power(2.0)) == pytest.approx(1.0, rel=1e-7)


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.1, 20.0), seed=st.integers(0, 1000))
def test_norm_homogeneity(lam, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((24, 24))
    of = power(3.0)
    assert unit_square_norm(lam * vals, of) == pytest.approx(lam * unit_square_norm(vals, of),
                                                             rel=1e-6)


# --- conjugation ------------------------------------------------------------

def test_power_R_identity_and_monotone():
    for p in (1.5, 2.0, 4.0):
        of = power(p)
        ts = np.geomspace(1e-3, 100.0, 200)
        assert np.allclose(of.R(ts) * ts, p - 1.0, rtol=1e-12)
        assert np.all(np.diff(of.R(ts)) < 0)


def test_conjugate_power_exponent():
    oc = conjugate(power(3.0))
    assert oc.p == pytest.approx(1.5)


def test_conjugate_of_a_table_is_the_table_of_g():
    ts = np.linspace(0.0, 10.0, 4001)
    of = custom(table=(ts, ts ** 2 + ts))
    oc = conjugate(of)
    ys = np.concatenate([np.linspace(0.0, of.h_top, 257),
                         np.random.default_rng(3).uniform(0.0, of.h_top, 64)])
    assert np.array_equal(oc.F(ys), of.Fstar(ys))
    assert oc.t_max == of.h_top
    assert f"table {len(of._g_table[0])}\n" in oc.descriptor()


def test_repr_names_the_kind():
    assert repr(power(3.0)) == "OrliczFunction(power, p=3.0)"
    assert repr(minimal_surface()) == "OrliczFunction(custom, t_max=100.0)"


def test_double_legendre_custom_roundtrip():
    ts = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 4000)])
    of = custom(table=(ts, ts ** 2))
    occ = conjugate(conjugate(of))
    sample = np.linspace(0.01, 8.0, 100)
    assert np.max(np.abs(occ.F(sample) - of.F(sample))) < 1e-6


def test_descriptor_mentions_kind():
    assert "power" in power(2.0).descriptor()
    assert "table" in minimal_surface().descriptor()
