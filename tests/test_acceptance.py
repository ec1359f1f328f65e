"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import radial_potential
from hopflab import (LogPowerModulus, PowerModulus, WeightSample,
                     build_dini_cap, check_condition_R, check_conditions,
                     comparison_check, compose_barrier, conjugate, custom,
                     dini_report, gradient_bounds, hopf_constant,
                     level_diagnostics, make_annulus, make_rings, power,
                     solve_h_potential, solve_harmonic, trace_flow_line,
                     tune_m, verify_subsolution, zeta_from_field,
                     zeta_from_modulus, orlicz_holder_check, young_gap)
from hopflab.cli import main as cli_main
from hopflab.errors import NotIntegrable
from hopflab.geometry import convexity_midpoint_check


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_harmonic_annulus_oracle():
    t0 = time.monotonic()
    ring = make_annulus(1.0, 2.0, resolution=257)
    w = solve_harmonic(ring)
    gb = gradient_bounds(w)
    elapsed = time.monotonic() - t0

    pts = ring.grid.points()
    r = np.hypot(pts[..., 0], pts[..., 1])
    err = np.abs(w.values - radial_potential(r, 2.0))[w.interior_mask()]
    max_err = float(err.max())
    c_ref = 1.0 / (2.0 * np.log(2.0))
    C_ref = 1.0 / np.log(2.0)
    assert max_err <= 5e-3
    assert abs(gb.c / c_ref - 1.0) <= 0.05
    assert abs(gb.C / C_ref - 1.0) <= 0.05
    assert elapsed <= 60.0
    report(1, f"max error {max_err:.2e}, c off {abs(gb.c / c_ref - 1):.2%}, "
              f"C off {abs(gb.C / C_ref - 1):.2%}, {elapsed:.1f}s")


def test_criterion_02_p_harmonic_oracles(annulus257):
    pts = annulus257.grid.points()
    r = np.hypot(pts[..., 0], pts[..., 1])
    errs = {}
    for p, tol in ((3.0, 1e-2), (1.5, 2e-2)):
        u = solve_h_potential(annulus257, power(p))
        assert u.meta["converged"]
        err = float(np.abs(u.values - radial_potential(r, p))[u.interior_mask()].max())
        assert err <= tol
        errs[p] = err
    report(2, f"p=3 error {errs[3.0]:.2e} (<=1e-2), "
              f"p=1.5 error {errs[1.5]:.2e} (<=2e-2)")


def test_criterion_03_hopf_stability(harmonic257):
    rep = hopf_constant(harmonic257, (2.0, 0.0), [0.4, 0.2, 0.1, 0.05])
    target = 1.0 / (2.0 * np.log(2.0))
    assert rep.passed
    assert abs(rep.c_estimate / target - 1.0) <= 0.10
    assert rep.ratios[-1] >= 0.5 * rep.ratios[0]
    report(3, f"c estimate {rep.c_estimate:.4f} vs {target:.4f} "
              f"({abs(rep.c_estimate / target - 1):.2%}), "
              f"ratios {['%.3f' % q for q in rep.ratios]}")


def test_criterion_04_barrier_certification(cap_rings257, cap_harmonic257):
    w = cap_harmonic257
    diag = level_diagnostics(w)
    zeta = zeta_from_field(w, diag=diag)
    C = float(np.max(diag.grad_norm[diag.trusted]))
    margins = {}
    for p in (1.5, 2.0, 3.0, 4.0):
        of = power(p)
        prof = tune_m(of, zeta, 1.0, C, 1.0)
        rep = verify_subsolution(w, prof, of, zeta=zeta, diag=diag)
        assert rep.all_pass, f"p={p}: {rep.to_text()}"
        assert np.isfinite(prof.f_prime[-1])
        assert abs(prof.f1 - 1.0) <= 1e-6
        margins[p] = rep.worst_residual
    report(4, "all p in {1.5, 2, 3, 4} certified, worst operator margins "
              + str({p: f"{m:.2e}" for p, m in margins.items()}))


def test_criterion_05_comparison_suite():
    rng = np.random.default_rng(20240817)
    failures = []
    worst = -np.inf
    for trial in range(20):
        p = float(rng.uniform(1.3, 5.0))
        if trial % 3 == 2:
            r_d = float(rng.uniform(0.2, 0.3))
            a = float(rng.uniform(0.4, 0.9))
            cap = build_dini_cap(r_d, PowerModulus(a))
            ring = make_rings(cap, resolution=129).inner_ring
        else:
            r1 = float(rng.uniform(0.7, 1.3))
            r2 = r1 + float(rng.uniform(0.7, 1.3))
            ring = make_annulus(r1, r2, resolution=129)
        of = power(p)
        w = solve_harmonic(ring)
        u = solve_h_potential(ring, of)
        diag = level_diagnostics(w)
        C = float(np.max(diag.grad_norm[diag.trusted]))
        zeta = zeta_from_field(w, diag=diag)
        prof = tune_m(of, zeta, 1.0, C, 1.0)
        v = compose_barrier(w, prof)
        rep = comparison_check(u, v, of)
        worst = max(worst, rep.max_violation)
        if not rep.passed:
            failures.append((trial, p, rep.max_violation, rep.tol_cmp))
    assert not failures, failures
    report(5, f"20/20 comparisons pass, worst violation {worst:.2e}")


def test_criterion_06_orlicz_suite():
    rng = np.random.default_rng(7)
    # Young gaps on random pairs, equality cases
    for p in (1.5, 2.0, 3.0):
        of = power(p)
        a = rng.uniform(0.0, 20.0, size=10_000)
        b = rng.uniform(0.0, 20.0, size=10_000)
        gaps = of.F(a) + of.Fstar(b) - a * b
        assert float(gaps.min()) >= -1e-10
        eq = np.abs(of.F(a) + of.Fstar(of.h(a)) - a * of.h(a))
        assert float(eq.max()) <= 1e-6

    # double Legendre round trip through the numeric custom path
    ts = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 4000)])
    of_c = custom(table=(ts, ts ** 2))
    occ = conjugate(conjugate(of_c))
    sample = np.linspace(0.01, 8.0, 100)
    rt = float(np.max(np.abs(occ.F(sample) - of_c.F(sample))))
    assert rt <= 1e-6

    # Hoelder on 100 random field pairs
    of = power(3.0)
    for _ in range(100):
        u, v = rng.standard_normal((48, 48)), rng.standard_normal((48, 48))
        assert orlicz_holder_check(u, v, of, cell_area=1.0 / 48 ** 2).passed

    # doubling constant for the quadratic law
    reports = {r.condition_id: r for r in check_conditions(power(2.0), 2.0)}
    C0 = reports["Delta2"].constants["C0"]
    assert abs(C0 - 4.0) <= 1e-6
    report(6, f"young >= -1e-10 on 3x10^4 pairs, roundtrip {rt:.1e}, "
              f"100 Hoelder pairs, C0 = {C0}")


def test_criterion_07_condition_technical(harmonic257):
    profiles = []
    C = 0.0
    c = np.inf
    for x0 in ((1.5, 0.0), (0.0, 1.5), (-1.2, 0.3), (0.9, 0.9)):
        tr = trace_flow_line(harmonic257, x0)
        gn = np.array([t[1] for t in tr])
        profiles.append(WeightSample.from_profile(
            np.linspace(0.05, 5.0, len(gn)), gn))
        C = max(C, float(gn.max()))
        c = min(c, float(gn.min()))
    samples = profiles + [WeightSample.constant(c), WeightSample.constant(C)]
    for p in (1.5, 2.0, 3.0):
        rep = check_condition_R(power(p), samples, (0.05, 5.0))
        assert rep.passed
        assert rep.constants["alpha"] == 1.0
        assert rep.constants["beta"] == pytest.approx(C)
    report(7, f"alpha=1, beta=C={C:.4f} certified for p in {{1.5, 2, 3}} "
              f"(flow-line gradient bounds)")


def test_criterion_08_dini_dichotomy():
    rep = dini_report(PowerModulus(0.5), 1.0)
    assert rep.converges
    assert abs(rep.integral - 2.0) <= 1e-6
    div = dini_report(LogPowerModulus(1.0), 0.5)
    assert not div.converges
    with pytest.raises(NotIntegrable):
        zeta_from_modulus(LogPowerModulus(1.0), 1.0, 1.0, 1.0)
    for a in (0.1, 0.25, 0.5, 0.75, 1.0):
        r = dini_report(PowerModulus(a), 1.0)
        assert r.converges and r.convex_dini
    report(8, f"integral(t^0.5) = {rep.integral!r}, log-modulus diverges and "
              f"is rejected, all t^a certified convex-Dini")


def test_criterion_09_geometric_identity(annulus257, harmonic257):
    diag = level_diagnostics(harmonic257)
    cells = diag.trusted
    lhs = diag.inf_lap[cells]
    rhs = diag.curvature[cells] * diag.grad_norm[cells] ** 3   # n = 2
    rel = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    assert rel <= 0.05

    rng = np.random.default_rng(31)
    hole = annulus257.inner.inside(annulus257.grid.points())
    for s in np.arange(0.1, 0.95, 0.1):
        mask = ((harmonic257.values > s) & harmonic257.valid_mask()) | hole
        assert convexity_midpoint_check(mask, annulus257.grid, n_pairs=10_000,
                                        rng=rng)
    report(9, f"identity max relative defect {rel:.2e} (<= 5e-2), "
              f"9 superlevel sets convex")


def test_criterion_10_negative_control(tmp_path):
    ts = np.linspace(0.0, 100.0, 2001)
    hs = ts / np.sqrt(1 + ts ** 2)
    table = tmp_path / "minsurf.csv"
    table.write_text("t,h\n" + "\n".join(
        f"{float(t)!r},{float(h)!r}" for t, h in zip(ts, hs)) + "\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[function]\nkind = custom\ntable = {table}\n")
    code = cli_main(["check", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    text = (tmp_path / "out" / "conditions.txt").read_text()
    assert "condition Coercivity\npass False" in text
    report(10, "bounded flow law fails coercivity, check exits 2")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[function]
kind = power
p = 3.0

[geometry]
kind = annulus
r1 = 1.0
r2 = 2.0

[grid]
resolution = 65

[hopf]
point = 2.0 0.0
radii = 0.4 0.25
""")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]
    report(11, f"{len(outs[0])} report files byte-identical across runs")
