import dataclasses
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hopflab import (LogPowerModulus, PowerModulus, TableModulus, build_barrier,
                     compose_barrier, custom, level_diagnostics, operator_residual,
                     power, solve_harmonic, tune_m, verify_subsolution, zeta_from_field,
                     zeta_from_modulus)
from hopflab.errors import (InversionOverflow, NotIntegrable, PreconditionFail,
                            TargetUnreachable, VanishingGradient)


def identity_law(t_max):
    """h(t) = t on [0, t_max], tabulated."""
    ts = np.linspace(0.0, t_max, 3)
    return custom(table=(ts, ts))


def zero_zeta():
    ts = np.geomspace(1e-10, 1.0, 64)
    return zeta_from_modulus(TableModulus(ts, np.zeros_like(ts) + 0.0), 1.0, 1.0, 1.0)


# --- zeta from a modulus ------------------------------------------------------

@pytest.mark.parametrize("a", [0.3, 0.5])
def test_zeta_modulus_closed_form(a):
    z = zeta_from_modulus(PowerModulus(a), 1.0, 1.0, 1.0)
    ws = np.array([0.02, 0.2, 0.5, 0.8, 0.98])
    expect = np.minimum(ws, 1 - ws) ** (a - 1.0)
    assert np.allclose(z.eval(ws), expect, rtol=1e-12)
    # independent oracle for the mass
    ref = quad(lambda t: min(t, 1 - t) ** (a - 1.0), 0, 1, points=[0.5])[0]
    assert z.l1_mass == pytest.approx(ref, rel=1e-9)
    assert z.l1_mass == pytest.approx(2.0 ** (1 - a) / a, rel=1e-9)


def test_zeta_modulus_symmetric():
    z = zeta_from_modulus(PowerModulus(0.5), 0.8, 1.6, 2.0)
    ws = np.linspace(0.01, 0.99, 41)
    assert np.allclose(z.eval(ws), z.eval(1 - ws), rtol=1e-12)


def test_zeta_modulus_not_integrable():
    with pytest.raises(NotIntegrable):
        zeta_from_modulus(LogPowerModulus(1.0), 1.0, 1.0, 1.0)


def test_zeta_modulus_cumulative_matches_quad():
    z = zeta_from_modulus(PowerModulus(0.5), 1.0, 1.0, 1.0)
    for w in (0.05, 0.3, 0.8):
        ref = quad(lambda t: min(t, 1 - t) ** (-0.5), 0, w, points=[0.5])[0]
        assert float(z.integral(w)) == pytest.approx(ref, abs=1e-6)


# --- zeta from a field --------------------------------------------------------

def test_zeta_field_annulus_bounded(harmonic129):
    z = zeta_from_field(harmonic129)
    assert np.isfinite(z.l1_mass)
    assert float(np.max(z.values)) < 50.0
    assert np.all(z.values >= 0)


def test_zeta_field_requires_gradient(annulus129):
    from hopflab import solve_h_potential
    u = solve_h_potential(annulus129, power(2.0), inner_value=0.3, outer_value=0.3)
    with pytest.raises(VanishingGradient):
        zeta_from_field(u)


def test_zeta_field_cap_grows_toward_outer(cap_harmonic257):
    z = zeta_from_field(cap_harmonic257)
    assert np.isfinite(z.l1_mass)
    # boundary irregularity lives at small w (the outer, cap side)
    assert float(z.values[:8].max()) >= float(z.values[24:40].max())


# --- profile construction -----------------------------------------------------

def test_zero_zeta_linear_profile():
    prof = build_barrier(power(2.0), zero_zeta(), 0.7, 1.0, 1.0)
    assert prof.f1 == pytest.approx(0.7, rel=1e-12)
    ws = np.linspace(0, 1, 11)
    assert np.allclose(prof.eval_fp(ws), 0.7, rtol=1e-12)
    assert np.allclose(prof.eval_f(ws), 0.7 * ws, rtol=1e-10, atol=1e-12)


def test_power2_exponential_profile():
    z = zeta_from_modulus(PowerModulus(0.5), 1.0, 1.0, 1.0)
    prof = build_barrier(power(2.0), z, 0.4, 1.0, 1.0)
    ws = np.linspace(0.01, 0.99, 33)
    expect = 0.4 * np.exp(z.integral(ws))
    assert np.allclose(prof.eval_fp(ws), expect, rtol=1e-4)


def test_power_p_beta_scaling():
    # closed form: f'(w) = m exp(beta I(w) / (p - 1)) for power laws
    z = zeta_from_modulus(PowerModulus(0.5), 1.0, 1.0, 1.0)
    p, beta, m = 3.0, 2.0, 0.4
    prof = build_barrier(power(p), z, m, 1.0, beta)
    ws = np.linspace(0.01, 0.99, 33)
    expect = m * np.exp(beta * z.integral(ws) / (p - 1.0))
    assert np.allclose(prof.eval_fp(ws), expect, rtol=1e-4)
    assert np.isfinite(prof.f_prime[-1])


def test_profile_invariants():
    z = zeta_from_modulus(PowerModulus(0.3), 1.0, 1.5, 1.0)
    prof = build_barrier(power(1.5), z, 0.2, 1.0, 1.5)
    assert prof.f[0] == 0.0
    assert prof.f_prime[0] == pytest.approx(0.2, rel=1e-9)
    assert np.all(prof.f_prime > 0)
    assert np.all(np.diff(prof.f_prime) >= -1e-9 * prof.f_prime[-1])
    assert np.all(prof.f_pp >= 0)


def test_log_identity():
    z = zeta_from_modulus(PowerModulus(0.5), 1.0, 1.0, 1.0)
    of = power(3.0)
    alpha, beta = 1.0, 2.0
    prof = build_barrier(of, z, 0.4, alpha, beta)
    k = prof.knots
    hp = np.asarray(of.h(beta * prof.f_prime), dtype=float)
    for i, j in [(1, -2), (5, 200), (100, 600)]:
        lhs = (alpha / beta) * (np.log(hp[j]) - np.log(hp[i]))
        rhs = float(z.integral(k[j]) - z.integral(k[i]))
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_inversion_overflow_custom_range():
    of = identity_law(2.0)
    z = zeta_from_modulus(PowerModulus(0.2), 0.5, 1.0, 5.0)
    with pytest.raises(InversionOverflow):
        build_barrier(of, z, 1.5, 1.0, 1.0)


# --- tuning -------------------------------------------------------------------

def test_tune_hits_target():
    z = zeta_from_modulus(PowerModulus(0.5), 1.0, 1.0, 1.0)
    prof = tune_m(power(2.0), z, 1.0, 1.0, 0.37)
    assert prof.f1 == pytest.approx(0.37, rel=1e-6)
    assert prof.f1 <= 0.37


def test_tune_zero_zeta_linear():
    prof = tune_m(power(2.0), zero_zeta(), 1.0, 1.0, 1.0)
    assert prof.m == pytest.approx(1.0, rel=1e-6)


def test_tune_monotone_in_target():
    z = zeta_from_modulus(PowerModulus(0.5), 1.0, 1.0, 1.0)
    m1 = tune_m(power(3.0), z, 1.0, 1.5, 0.8).m
    m2 = tune_m(power(3.0), z, 1.0, 1.5, 1.6).m
    assert m2 > m1


def test_tune_unreachable_target():
    of = identity_law(0.5)
    z = zeta_from_modulus(PowerModulus(0.2), 0.5, 1.0, 5.0)
    with pytest.raises(TargetUnreachable):
        tune_m(of, z, 1.0, 1.0, 50.0)


def test_overflowing_flux_is_refused_without_a_warning():
    # h(beta m) overflows to inf for the power law: a typed error, no RuntimeWarning
    z = zeta_from_modulus(PowerModulus(0.5), 0.5, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InversionOverflow):
            build_barrier(power(3.0), z, 1e300, 1.0, 1.0)


# --- verification -------------------------------------------------------------

def test_identity_barrier_is_harmonic(annulus129, harmonic129):
    # f(w) = w composes to the harmonic field itself: the operator check
    # passes with margin zero (the reduced sufficient conditions do not
    # apply to a profile with vanishing curvature)
    zeta = zero_zeta()
    prof = build_barrier(power(2.0), zeta, 1.0, 1.0, 1.0)
    rep = verify_subsolution(harmonic129, prof, power(2.0), zeta=zeta)
    assert rep.pass_residual
    assert abs(rep.worst_residual) < rep.tol_residual


def test_halved_curvature_fails_zeta_check(cap_harmonic257):
    w = cap_harmonic257
    diag = level_diagnostics(w)
    zeta = zeta_from_field(w, diag=diag)
    C = float(np.max(diag.grad_norm[diag.trusted]))
    prof = tune_m(power(3.0), zeta, 1.0, C, 1.0)
    rep = verify_subsolution(w, prof, power(3.0), zeta=zeta, diag=diag)
    assert rep.all_pass
    broken = dataclasses.replace(prof, f_pp=0.49 * prof.f_pp)
    rep2 = verify_subsolution(w, broken, power(3.0), zeta=zeta, diag=diag)
    assert not rep2.pass_zeta


def test_implication_chain(cap_harmonic257):
    # wherever the zeta check holds and the inf-Laplacian is nonnegative,
    # the pointwise check follows because zeta dominates the envelope
    w = cap_harmonic257
    diag = level_diagnostics(w)
    zeta = zeta_from_field(w, diag=diag)
    cells = diag.trusted
    wv = np.clip(w.values[cells], 0.0, 1.0)
    envelope = diag.inf_lap[cells] / diag.grad_norm[cells] ** 5
    nonneg = diag.inf_lap[cells] >= 0
    assert np.all(zeta.eval(wv)[nonneg] >= envelope[nonneg] - 1e-12)


def test_chain_rule_identity(annulus129, harmonic129):
    z = zeta_from_field(harmonic129)
    prof = tune_m(power(2.0), z, 1.0, 1.6, 1.0)
    v = compose_barrier(harmonic129, prof)
    dv = level_diagnostics(v)
    dw = level_diagnostics(harmonic129)
    depth = annulus129.interior_depth()
    cells = dv.cells & dw.cells & (depth >= 3) \
        & (harmonic129.values > 0.1) & (harmonic129.values < 0.9)
    fpp = prof.eval_fpp(harmonic129.values[cells])
    expect = fpp * dw.grad_norm[cells] ** 2
    got = dv.laplacian[cells]
    scale = float(np.median(np.abs(expect)) + 1e-12)
    assert float(np.max(np.abs(got - expect))) < 0.05 * max(scale, 1.0) + 0.05 * scale


def test_compose_barrier_without_boundary_data(annulus129, harmonic129):
    # a field whose data were dropped must not take the data (1, 0) instead
    flipped = solve_harmonic(annulus129, inner_value=0.0, outer_value=1.0)
    prof = tune_m(power(2.0), zeta_from_field(harmonic129), 1.0, 1.6, 1.0)
    with pytest.raises(PreconditionFail, match="w carries no boundary data"):
        compose_barrier(flipped.copy_with(flipped.values, meta={}), prof)


def test_full_expansion_matches_residual(annulus129):
    # H(f'|grad w|) f''|grad w|^2 + H'(f'|grad w|)/(f'|grad w|) *
    #   [f'^3 inf_lap + f'^2 f'' |grad w|^4]  reproduces the discrete operator
    w = solve_harmonic(annulus129)
    z = zeta_from_field(w)
    of = power(3.0)
    diag = level_diagnostics(w)
    depth = annulus129.interior_depth()
    cells = diag.cells & (depth >= 3) & (w.values > 0.15) & (w.values < 0.85)
    prof = tune_m(of, z, 1.0, 1.6, 1.0)
    v = compose_barrier(w, prof)
    res = operator_residual(v, of).values[cells]

    wv = w.values[cells]
    gn = diag.grad_norm[cells]
    fp = prof.eval_fp(wv)
    fpp = prof.eval_fpp(wv)
    q = fp * gn
    p = 3.0
    Hq = q ** (p - 2.0)
    Hpq = (p - 2.0) * q ** (p - 3.0)
    expansion = Hq * fpp * gn ** 2 + (Hpq / q) * (
        fp ** 3 * diag.inf_lap[cells] + fp ** 2 * fpp * gn ** 4)
    rel = np.abs(res - expansion) / np.maximum(np.abs(expansion), 1e-3)
    assert float(np.max(rel)) < 0.10
