import numpy as np
import pytest

from conftest import radial_gradient
from hopflab import (Grid, Mask, Polygon, PowerModulus, ScalarField,
                     build_dini_cap, comparison_check, custom, hopf_constant,
                     level_diagnostics, make_annulus, make_ring, make_rings,
                     orlicz_holder_check, outer_lipschitz_check, power,
                     solve_h_potential, solve_harmonic, trace_flow_line,
                     tune_m, zeta_from_field, compose_barrier)
from hopflab.errors import NotNormalized, PreconditionFail


# --- hopf constant ------------------------------------------------------------

def test_hopf_annulus(harmonic129):
    rep = hopf_constant(harmonic129, (2.0, 0.0), [0.4, 0.2, 0.1])
    target = 1.0 / (2.0 * np.log(2.0))
    assert rep.passed
    assert rep.c_estimate == pytest.approx(target, rel=0.10)
    assert rep.ratios == sorted(rep.ratios, reverse=True)


def test_hopf_skips_unresolved_radii(harmonic129):
    h = harmonic129.grid.h
    rep = hopf_constant(harmonic129, (2.0, 0.0), [0.4, 0.2, 2.5 * h])
    assert 2.5 * h in rep.skipped
    assert len(rep.ratios) == 2


def test_hopf_constant_field_fails(annulus129):
    vals = np.full((annulus129.grid.ny, annulus129.grid.nx), 0.3)
    fld = ScalarField(annulus129, vals)
    rep = hopf_constant(fld, (2.0, 0.0), [0.4, 0.2])
    assert not rep.passed
    assert all(abs(q) < 1e-12 for q in rep.ratios)


def test_hopf_normal_derivative_consistency(harmonic129):
    rep = hopf_constant(harmonic129, (2.0, 0.0), [0.1, 0.05])
    normal = radial_gradient(2.0, 2.0)
    assert rep.c_estimate == pytest.approx(normal, rel=0.15)


def test_hopf_p3_positive(annulus129):
    u = solve_h_potential(annulus129, power(3.0))
    rep = hopf_constant(u, (2.0, 0.0), [0.4, 0.2, 0.1])
    assert rep.passed and rep.c_estimate > 0


def test_hopf_point_in_a_cell_with_outside_corners(annulus129, harmonic129):
    # beyond the ghost layer: two corners of x0's cell lie outside the field,
    # so u(x0) is the bilinear value of the two ghost corners alone
    g = annulus129.grid
    x0 = (2.04, 0.5 * g.h)
    i0, j0 = int((x0[0] - g.x0) // g.h), int((x0[1] - g.y0) // g.h)
    assert list(annulus129.mask[j0:j0 + 2, i0 + 1]) == [Mask.OUTSIDE] * 2
    assert np.isnan(harmonic129.interp(np.array(x0)))
    rep = hopf_constant(harmonic129, x0, [0.4, 0.2])
    v = harmonic129.values
    assert rep.u0 == pytest.approx(0.5 * (v[j0, i0] + v[j0 + 1, i0]), rel=1e-9)
    assert rep.passed


def test_hopf_precondition(harmonic129):
    shifted = harmonic129.copy_with(harmonic129.values - 0.5)
    with pytest.raises(PreconditionFail):
        hopf_constant(shifted, (1.5, 0.0), [0.2])


# --- comparison ---------------------------------------------------------------

def test_comparison_reflexive(annulus129):
    u = solve_h_potential(annulus129, power(3.0))
    rep = comparison_check(u, u, power(3.0))
    assert rep.passed
    assert rep.max_violation <= 1e-12


def test_comparison_bump_fails(annulus129):
    u = solve_h_potential(annulus129, power(3.0))
    pts = annulus129.grid.points()
    r = np.hypot(pts[..., 0], pts[..., 1])
    bump = 0.2 * np.exp(-((r - 1.5) ** 2) / 0.01)
    bump[~u.interior_mask()] = 0.0
    v = u.copy_with(u.values + bump)
    rep = comparison_check(u, v, power(3.0))
    assert not rep.passed
    assert not rep.sub_residual_ok or rep.max_violation > rep.tol_cmp


def test_comparison_boundary_precondition(annulus129):
    u = solve_h_potential(annulus129, power(3.0))
    v = solve_h_potential(annulus129, power(3.0), inner_value=1.2)
    with pytest.raises(PreconditionFail):
        comparison_check(u, v, power(3.0))


def test_comparison_refuses_fields_on_different_rings():
    # one grid, two masks: v's hole and ghost nodes would meet u's interior
    u = solve_harmonic(make_annulus(1.0, 2.0, resolution=65, extent=2.2))
    v = solve_harmonic(make_annulus(1.2, 2.0, resolution=65, extent=2.2))
    assert u.grid == v.grid
    with pytest.raises(PreconditionFail, match="different rings"):
        comparison_check(u, v, power(2.0))
    # a ring built again is the same ring
    again = solve_harmonic(make_annulus(1.0, 2.0, resolution=65, extent=2.2))
    assert comparison_check(u, again, power(2.0)).passed


def test_comparison_transitivity(annulus129):
    of = power(3.0)
    u1 = solve_h_potential(annulus129, of, inner_value=0.8, outer_value=0.0)
    u2 = solve_h_potential(annulus129, of, inner_value=1.0, outer_value=0.0)
    u3 = solve_h_potential(annulus129, of, inner_value=1.2, outer_value=0.1)
    assert comparison_check(u2, u1, of).passed
    assert comparison_check(u3, u2, of).passed
    assert comparison_check(u3, u1, of).passed


def test_scaling_power_homogeneous(annulus129, harmonic129):
    # for power laws the operator is homogeneous: lambda-scaled pairs compare
    of = power(3.0)
    u = solve_h_potential(annulus129, of)
    z = zeta_from_field(harmonic129)
    prof = tune_m(of, z, 1.0, 1.6, 1.0)
    v = compose_barrier(harmonic129, prof)
    lam = 0.6
    u_s = u.copy_with(lam * u.values, meta={**u.meta,
                                            "inner_value": lam, "outer_value": 0.0})
    v_s = v.copy_with(lam * v.values, meta={**v.meta,
                                            "inner_value": lam * v.meta["inner_value"],
                                            "outer_value": 0.0})
    assert comparison_check(u_s, v_s, of).passed


def test_scaling_custom_reverified(cap_harmonic257):
    # non-homogeneous law: no scaling shortcut, the scaled profile is
    # re-verified from scratch and judged on its own report
    import dataclasses
    w = cap_harmonic257
    ts = np.geomspace(1e-6, 1e3, 4000)
    of = custom(table=(ts, ts + ts ** 3))
    diag = level_diagnostics(w)
    z = zeta_from_field(w, diag=diag)
    C = float(np.max(diag.grad_norm[diag.trusted]))
    prof = tune_m(of, z, 1.0, C, 1.0)
    rep = __import__("hopflab").verify_subsolution(w, prof, of, zeta=z, diag=diag)
    assert rep.all_pass
    scaled = dataclasses.replace(prof, f_prime=3.0 * prof.f_prime,
                                 f=3.0 * prof.f, f_pp=3.0 * prof.f_pp,
                                 m=3.0 * prof.m, f1=3.0 * prof.f1)
    rep2 = __import__("hopflab").verify_subsolution(w, scaled, of, zeta=z, diag=diag)
    assert isinstance(rep2.all_pass, bool)


# --- outer Lipschitz bound ------------------------------------------------------

def test_lipschitz_zero_field(cap_rings257):
    ring = cap_rings257.outer_ring
    u = solve_h_potential(ring, power(2.0), inner_value=0.0, outer_value=0.0)
    rep = outer_lipschitz_check(u, power(2.0), r_ref=0.25)
    assert rep.passed and rep.C == 0.0


def test_lipschitz_flat_face():
    inner = Polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    outer = Polygon([(-1.5, -1.5), (1.5, -1.5), (1.5, 1.5), (-1.5, 1.5)])
    grid = Grid.square(1.6, 193)
    ring = make_ring(inner, outer, grid)
    u = solve_harmonic(ring, inner_value=0.0, outer_value=1.0)
    u.meta["inner_value"], u.meta["outer_value"] = 0.0, 1.0
    y = (0.0, -0.5)
    rep = outer_lipschitz_check(u, power(2.0), y=y, r_ref=0.3)
    # normal derivative at the face midpoint by one-sided differences
    h = grid.h
    probes = u.interp(np.array([[0.0, -0.5 - h], [0.0, -0.5 - 2 * h]]))
    dn = (4 * probes[0] - probes[1]) / (2 * h) * 0.5 * 2 / 3 * 3  # 2nd order one-sided
    dn = (-3 * 0.0 + 4 * probes[0] - probes[1]) / (2 * h)
    assert rep.C * rep.M == pytest.approx(abs(dn), rel=0.20)


def test_lipschitz_cap_outer_ring(cap_rings257):
    ring = cap_rings257.outer_ring
    of = power(3.0)
    u = solve_h_potential(ring, of, inner_value=0.0, outer_value=1.0)
    w = solve_harmonic(ring)
    diag = level_diagnostics(w)
    z = zeta_from_field(w, diag=diag)
    C_w = float(np.max(diag.grad_norm[diag.trusted]))
    # the super barrier's top value must dominate the outer data of u
    prof = tune_m(of, z, 1.0, C_w, 1.0 + 1e-5)
    rep = outer_lipschitz_check(u, of, r_ref=0.25, barrier=(w, prof))
    assert rep.passed and rep.comparison.passed
    assert np.isfinite(rep.C) and rep.C > 0


@pytest.fixture(scope="module")
def outer_quadratic(cap_rings257):
    """Outer cap ring, quadratic law: the solution u (0 on the obstacle, 1
    outside), the harmonic potential w and a super barrier profile over w."""
    ring = cap_rings257.outer_ring
    of = power(2.0)
    u = solve_harmonic(ring, inner_value=0.0, outer_value=1.0)
    w = solve_harmonic(ring)
    diag = level_diagnostics(w)
    z = zeta_from_field(w, diag=diag)
    prof = tune_m(of, z, 1.0, float(np.max(diag.grad_norm[diag.trusted])), 1.0 + 1e-5)
    return ring, of, u, w, prof


def test_lipschitz_barrier_without_boundary_data(outer_quadratic):
    ring, of, u, w, prof = outer_quadratic
    bare = u.copy_with(u.values, meta={})
    with pytest.raises(PreconditionFail):
        outer_lipschitz_check(bare, of, r_ref=0.25, barrier=(w, prof))


def test_lipschitz_without_boundary_data_or_barrier(outer_quadratic):
    # the precondition "u vanishes on K1" needs the boundary data to check
    ring, of, u, w, prof = outer_quadratic
    bare = u.copy_with(u.values, meta={})
    with pytest.raises(PreconditionFail, match="no boundary data"):
        outer_lipschitz_check(bare, of, r_ref=0.25)


def test_super_comparison_boundary_precondition(outer_quadratic):
    ring, of, u, w, prof = outer_quadratic
    below = u.copy_with(u.values - 0.5, meta={"inner_value": -0.5,
                                              "outer_value": 0.5})
    with pytest.raises(PreconditionFail):
        comparison_check(u, below, of, direction="super")


def test_residual_label_follows_direction(annulus129, outer_quadratic):
    ring, of, u, w, prof = outer_quadratic
    sup = outer_lipschitz_check(u, of, r_ref=0.25, barrier=(w, prof)).to_text()
    u3 = solve_h_potential(annulus129, power(3.0))
    sub = comparison_check(u3, u3, power(3.0)).to_text()
    assert "\nsupersolution_residual_ok " in sup and "subsolution" not in sup
    assert "\nsubsolution_residual_ok " in sub and "supersolution" not in sub


def test_lipschitz_bump_above_super_barrier_fails(outer_quadratic):
    ring, of, u, w, prof = outer_quadratic
    clean = outer_lipschitz_check(u, of, r_ref=0.25, barrier=(w, prof))
    assert clean.comparison.passed
    pts = ring.grid.points()
    bump = 0.5 * np.exp(-(pts[..., 0] ** 2 + (pts[..., 1] - 0.3) ** 2) / 0.005)
    bump[~u.interior_mask()] = 0.0
    bumped = u.copy_with(u.values + bump)
    rep = outer_lipschitz_check(bumped, of, r_ref=0.25, barrier=(w, prof))
    assert rep.comparison.passed is False
    assert rep.comparison.max_violation > rep.comparison.tol_cmp
    assert not rep.passed


# --- Hoelder ------------------------------------------------------------------

def _sample_pair(seed, n=48):
    """Two random samples of the n x n cells of the unit square."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def test_holder_quadratic_cauchy_schwarz():
    u, v = _sample_pair(0)
    rep = orlicz_holder_check(u, u, power(2.0), cell_area=1.0 / 48 ** 2)
    assert rep.passed


def test_holder_requires_normalization():
    u, v = _sample_pair(1)
    ts = np.linspace(0.0, 100.0, 3)
    of = custom(table=(ts, 2.0 * ts))
    with pytest.raises(NotNormalized):
        orlicz_holder_check(u, v, of, cell_area=1.0 / 48 ** 2)


def test_holder_plateau_near_tight():
    n = 64
    a = 2.0
    plateau = np.zeros((n, n))
    plateau[:, : n // 2] = a
    of = power(3.0)
    v = np.where(plateau > 0, float(of.h(np.array([a]))[0]), 0.0)
    rep = orlicz_holder_check(plateau, v, of, cell_area=1.0 / n ** 2)
    assert rep.passed
    assert rep.lhs >= 0.95 * rep.norm_u * rep.norm_v
