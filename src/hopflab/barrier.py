"""The integrable majorant zeta(w) and the explicit sub-solution profile f.

Given a harmonic ring potential w, a convex profile f with

    f'(w) = (1/beta) * g( F'(beta*m) * exp((beta/alpha) * int_0^w zeta) )

is a sub-solution of the degenerate operator whenever zeta dominates
|grad w|^-5 * inf-Laplacian(w) as a function of the level value and
(alpha, beta) certify the technical condition on R = F''/F'. The majorant
comes either from a Dini modulus (second-derivative boundary estimate with
constants c, C, C_D) or as an empirical envelope measured on the solved field.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (InversionOverflow, NotIntegrable, OutOfRange,
                     TargetUnreachable, VanishingGradient)
from .geometry import DiniModulus, dini_report
from .orlicz import OrliczFunction
from .pchip import Pchip
from .quadrature import cumulative_trapezoid, gauss_segment, integral_to_zero
from .solver import (RESIDUAL_MARGIN, ScalarField, LevelDiagnostics, flux_scale,
                     level_diagnostics, operator_residual)

ZETA_BINS = 64            # level bins of the empirical majorant
TUNE_REL_TOL = 1e-6       # tune_m accepts f(1) in [target * (1 - this), target]
MARGIN_FACTOR = 1e-3      # reduced-inequality tolerances, relative to their median


@dataclass
class ZetaProfile:
    """Tabulated majorant zeta on (0, 1) with its cumulative integral."""
    kind: str                      # 'modulus' or 'field'
    knots: np.ndarray              # for 'field': bin edges (len = n_bins + 1)
    values: np.ndarray
    l1_mass: float
    params: dict = field(default_factory=dict)
    _cum_fn: object = None

    def _edge_values(self):
        # continuous envelope: bin-edge values are the max of the adjacent
        # bin maxima, linear in between (dominates every per-bin maximum)
        v = self.values
        ev = np.empty(len(v) + 1)
        ev[1:-1] = np.maximum(v[:-1], v[1:])
        ev[0] = v[0]
        ev[-1] = v[-1]
        return ev

    def eval(self, w):
        w = np.asarray(w, dtype=float)
        if self.kind == "field":
            return np.interp(w, self.knots, self._edge_values())
        return _zeta_formula(w, **self.params)

    def integral(self, w):
        """Cumulative integral of zeta from 0 to w."""
        w = np.asarray(w, dtype=float)
        if self.kind == "field":
            ev = self._edge_values()
            cum = cumulative_trapezoid(ev, self.knots)
            wc = np.clip(w, 0.0, 1.0)
            idx = np.clip(np.searchsorted(self.knots, wc, side="right") - 1,
                          0, len(self.knots) - 2)
            t = wc - self.knots[idx]
            left = ev[idx]
            slope = (ev[idx + 1] - ev[idx]) / np.diff(self.knots)[idx]
            return cum[idx] + left * t + 0.5 * slope * t * t
        return self._cum_fn(np.clip(w, 0.0, 1.0))

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"zeta kind {self.kind}\n")
        out.write(f"l1_mass {self.l1_mass!r}\n")
        for k in sorted(self.params):
            if not isinstance(self.params[k], (int, float)):
                continue
            out.write(f"param {k} {self.params[k]!r}\n")
        return out.getvalue()


def _zeta_formula(w, eps=None, c=1.0, C=1.0, C_D=1.0):
    m = np.minimum(w, 1.0 - w)
    m = np.maximum(m, 1e-300)
    return C_D / c ** 3 * eps.eval(np.minimum(C * m, _eps_cap(eps))) / (c * m)


def _eps_cap(eps: DiniModulus):
    # power moduli extend analytically; others clamp at their validated range
    return np.inf if eps.kind == "power" else eps.t_cap


def zeta_from_modulus(eps: DiniModulus, c: float, C: float, C_D: float) -> ZetaProfile:
    """Majorant from the boundary second-derivative estimate.

    zeta(w) = C_D c^-3 eps(C min(w, 1-w)) / (c min(w, 1-w)); its mass reduces
    by substitution to the Dini integral, so integrability is exactly the
    Dini condition.
    """
    if not (0 < c <= C) or C_D <= 0:
        raise OutOfRange("need 0 < c <= C and C_D > 0")
    rep = dini_report(eps, min(eps.t_cap, 1.0))
    if not rep.converges:
        raise NotIntegrable("modulus fails the Dini integral test")

    # master table for D(t) = int_0^t eps/s ds up to C/2
    t_hi = C / 2
    t_lo = min(1e-12, t_hi * 1e-12)
    phi = lambda t: eps.eval(np.minimum(t, _eps_cap(eps))) / t
    base = integral_to_zero(phi, t_lo).value
    ts = np.geomspace(t_lo, t_hi, 800)
    seg = np.array([gauss_segment(phi, a, b) for a, b in zip(ts[:-1], ts[1:])])
    D = base + np.concatenate([[0.0], np.cumsum(seg)])
    D_of = Pchip(np.log(ts), D)
    scale = C_D / c ** 4
    l1 = 2.0 * scale * float(D[-1])

    def cum(w):
        w = np.asarray(w, dtype=float)
        wl = np.clip(np.minimum(w, 1.0 - w), t_lo / C, 0.5)
        half = scale * D_of(np.log(C * wl))
        return np.where(w <= 0.5, half, l1 - half)

    half_knots = np.concatenate([np.geomspace(1e-9, 0.45, 120), [0.5]])
    knots = np.unique(np.concatenate([half_knots, 1.0 - half_knots]))
    params = {"eps": eps, "c": float(c), "C": float(C), "C_D": float(C_D)}
    return ZetaProfile("modulus", knots, _zeta_formula(knots, **params), l1, params,
                       _cum_fn=cum)


def zeta_from_field(w: ScalarField, diag: LevelDiagnostics | None = None) -> ZetaProfile:
    """Empirical majorant: per-level-bin maximum of |grad w|^-5 |inf_lap w|
    over ZETA_BINS equal bins of [0, 1].

    Cells closer than two cells to a boundary are excluded; bins without
    cells are filled by a monotone envelope extension from the last resolved
    bins toward the endpoints.
    """
    if w.ring is None:
        raise OutOfRange("field carries no ring")
    diag = diag or level_diagnostics(w)
    cells = diag.trusted
    if not cells.any():
        raise VanishingGradient("no usable cells for the envelope")
    wv = np.clip(w.values[cells], 0.0, 1.0)
    y = np.abs(diag.inf_lap[cells]) / diag.grad_norm[cells] ** 5

    edges = np.linspace(0.0, 1.0, ZETA_BINS + 1)
    idx = np.clip(np.searchsorted(edges, wv, side="right") - 1, 0, ZETA_BINS - 1)
    vals = np.full(ZETA_BINS, -1.0)
    np.maximum.at(vals, idx, y)
    resolved = np.flatnonzero(vals >= 0)
    lo, hi = resolved[0], resolved[-1]
    # interior gaps interpolate between resolved bins; beyond the outermost
    # resolved bins the envelope continues with their values
    gaps = np.flatnonzero(vals < 0)
    if len(gaps):
        vals[gaps] = np.interp(gaps, resolved, vals[resolved])
    vals[:lo] = vals[lo]
    vals[hi + 1:] = vals[hi]
    prof = ZetaProfile("field", edges, vals, 0.0,
                       {"n_bins": ZETA_BINS, "n_cells": int(cells.sum())})
    prof.l1_mass = float(prof.integral(1.0))
    return prof


# --------------------------------------------------------------------------
# the profile f
# --------------------------------------------------------------------------

@dataclass
class BarrierProfile:
    m: float
    alpha: float
    beta: float
    knots: np.ndarray
    f_prime: np.ndarray
    f: np.ndarray
    f_pp: np.ndarray
    f1: float
    params: dict = field(default_factory=dict)

    @cached_property
    def _f_of(self):
        return Pchip(self.knots, self.f)

    @cached_property
    def _fp_of(self):
        return Pchip(self.knots, self.f_prime)

    def eval_f(self, w):
        w = np.asarray(w, dtype=float)
        inside = self._f_of(np.clip(w, 0.0, 1.0))
        below = self.m * w
        above = self.f1 + self.f_prime[-1] * (w - 1.0)
        return np.where(w < 0.0, below, np.where(w > 1.0, above, inside))

    def eval_fp(self, w):
        w = np.asarray(w, dtype=float)
        inside = self._fp_of(np.clip(w, 0.0, 1.0))
        return np.where(w < 0.0, self.m, np.where(w > 1.0, self.f_prime[-1], inside))

    def eval_fpp(self, w):
        w = np.asarray(w, dtype=float)
        return np.interp(np.clip(w, 0.0, 1.0), self.knots, self.f_pp)

    def to_table(self) -> str:
        out = io.StringIO()
        out.write(f"# barrier m {self.m!r} alpha {self.alpha!r} beta {self.beta!r} "
                  f"f1 {self.f1!r}\n")
        out.write("w,f\n")
        for w, fv in zip(self.knots, self.f):
            out.write(f"{w!r},{fv!r}\n")
        return out.getvalue()


def _barrier_knots(zeta: ZetaProfile):
    ends = np.geomspace(1e-9, 2e-3, 48)
    uniform = np.linspace(0.0, 1.0, 801)
    base = np.concatenate([[0.0], ends, 1.0 - ends, uniform, [1.0]])
    if zeta.kind == "field":
        base = np.concatenate([base, zeta.knots])
    return np.unique(np.clip(base, 0.0, 1.0))


def build_barrier(of: OrliczFunction, zeta: ZetaProfile, m: float,
                  alpha: float, beta: float) -> BarrierProfile:
    """Tabulate the explicit profile and its derivatives.

    f'' comes from the construction itself, f''(w) = zeta(w) / (alpha *
    R(beta f'(w))), which keeps the convexity certificate exact.
    """
    if m <= 0 or alpha <= 0 or beta <= 0:
        raise OutOfRange("m, alpha, beta must be positive")
    knots = _barrier_knots(zeta)
    # anchor the cumulative at w = 0 so that f'(0) = m holds exactly
    I = zeta.integral(knots) - zeta.integral(np.array([0.0]))[()]
    with np.errstate(over="ignore"):        # an infinite h(beta m) is refused below
        h_bm = float(of.h(np.array([beta * m]))[0])
    with np.errstate(over="raise"):
        try:
            arg = h_bm * np.exp((beta / alpha) * I)
        except FloatingPointError:
            raise InversionOverflow("exp of the zeta mass overflows") from None
    if not np.all(np.isfinite(arg)) or (of.kind == "custom" and arg[-1] > of.h_top):
        raise InversionOverflow(
            "argument of g leaves the validated range of h; reduce m or the "
            "zeta mass, or extend t_max")
    fp = np.asarray(of.g(arg), dtype=float) / beta

    f = cumulative_trapezoid(fp, knots)
    zl = zeta.eval(knots)
    Rb = np.asarray(of.R(np.minimum(beta * fp, of.t_max)), dtype=float)
    fpp = zl / (alpha * Rb)

    prof = BarrierProfile(float(m), float(alpha), float(beta), knots, fp, f, fpp,
                          float(f[-1]), {"zeta_kind": zeta.kind})
    _validate_profile(prof)
    return prof


def _validate_profile(prof: BarrierProfile):
    if abs(prof.f[0]) > 1e-300:
        raise OutOfRange("f(0) must vanish")
    if np.any(prof.f_prime <= 0):
        raise OutOfRange("f' must stay positive")
    if np.any(np.diff(prof.f_prime) < -1e-9 * prof.f_prime[-1]):
        raise OutOfRange("f' must be non-decreasing (f convex)")
    if not np.isfinite(prof.f_prime[-1]):
        raise InversionOverflow("f'(1) not finite")


def tune_m(of: OrliczFunction, zeta: ZetaProfile, alpha: float, beta: float,
           target: float) -> BarrierProfile:
    """Bisection on m so that f(1) lands in [target*(1 - TUNE_REL_TOL), target].

    f(1) is strictly increasing in m and f(1) >= m, so [0, target] brackets
    the root; the one-sided acceptance keeps f(1) usable as a lower barrier
    value. Profiles are rebuilt, never rescaled.
    """
    if target <= 0:
        raise OutOfRange("target must be positive")
    hi = float(target)
    prof_hi = None
    for _ in range(200):
        try:
            prof_hi = build_barrier(of, zeta, hi, alpha, beta)
            break
        except InversionOverflow:
            hi *= 0.5
    if prof_hi is None:
        raise TargetUnreachable("no evaluable m at all")
    if prof_hi.f1 < target * (1 - TUNE_REL_TOL):
        raise TargetUnreachable(
            f"f(1) tops out at {prof_hi.f1!r} before g overflows; target {target!r}")
    if prof_hi.f1 <= target:
        return prof_hi

    lo = 0.0
    best = None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        prof = build_barrier(of, zeta, mid, alpha, beta)
        if target * (1 - TUNE_REL_TOL) <= prof.f1 <= target:
            return prof
        if prof.f1 < target:
            lo = mid
            best = prof
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(hi, 1.0):
            break
    if best is not None and best.f1 >= target * (1 - 10 * TUNE_REL_TOL):
        return best
    raise TargetUnreachable(f"bisection stalled near f(1) = "
                            f"{(best or prof).f1!r}")


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

@dataclass
class SubsolutionReport:
    pass_residual: bool
    pass_pointwise: bool
    pass_zeta: bool
    worst_residual: float
    worst_pointwise: float
    worst_zeta: float
    tol_residual: float
    tol_reduced: float
    flux_scale: float
    n_cells: int
    n_excluded: int
    worst_cells: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return self.pass_residual and self.pass_pointwise and self.pass_zeta

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"subsolution pass {self.all_pass}\n")
        out.write(f"check_residual pass {self.pass_residual} "
                  f"worst_margin {self.worst_residual!r} tol {self.tol_residual!r}\n")
        out.write(f"check_pointwise pass {self.pass_pointwise} "
                  f"worst_margin {self.worst_pointwise!r} tol {self.tol_reduced!r}\n")
        out.write(f"check_zeta pass {self.pass_zeta} "
                  f"worst_margin {self.worst_zeta!r} tol {self.tol_reduced!r}\n")
        out.write(f"flux_scale {self.flux_scale!r}\n")
        out.write(f"cells {self.n_cells} excluded {self.n_excluded}\n")
        for k, v in self.worst_cells.items():
            out.write(f"worst_cell {k} {v[0]} {v[1]}\n")
        return out.getvalue()


def compose_barrier(w: ScalarField, prof: BarrierProfile) -> ScalarField:
    """The candidate sub-solution f(w) as a field (C^1 extension off [0, 1])."""
    values = prof.eval_f(w.values)
    out = w.copy_with(values, meta={
        "inner_value": float(prof.eval_f(w.meta.get("inner_value", 1.0))),
        "outer_value": float(prof.eval_f(w.meta.get("outer_value", 0.0))),
        "delta_final": w.meta.get("delta_final", 1e-6),
    })
    return out


def verify_subsolution(w: ScalarField, prof: BarrierProfile, of: OrliczFunction,
                       zeta: ZetaProfile,
                       diag: LevelDiagnostics | None = None) -> SubsolutionReport:
    """Three pointwise certificates on cells at least two cells inside:

    (i)   the discrete operator applied to f(w) is >= -tol,
    (ii)  f''(w) R(f'(w)|grad w|) >= |grad w|^-5 inf_lap(w),
    (iii) f''(w) R(f'(w)|grad w|) >= zeta(w).

    The tolerance of (i) is RESIDUAL_MARGIN times the median flux over the
    ring divided by the ring gap (the natural magnitude of the discrete
    operator there); those of (ii) and (iii) are MARGIN_FACTOR times the
    median left-hand side.
    """
    diag = diag or level_diagnostics(w)
    eligible = diag.trusted
    n_excluded = int(w.interior_mask().sum() - eligible.sum())
    if not eligible.any():
        raise VanishingGradient("no eligible cells")

    wv = np.clip(w.values[eligible], 0.0, 1.0)
    gn = diag.grad_norm[eligible]
    fp = prof.eval_fp(wv)
    fpp = prof.eval_fpp(wv)
    q = fp * gn
    scale = flux_scale(q, of, w.ring.gap)
    tol_res = RESIDUAL_MARGIN * scale

    v = compose_barrier(w, prof)
    res = operator_residual(v, of).values[eligible]
    worst_res = float(np.min(res))

    lhs = fpp * np.asarray(of.R(np.minimum(q, of.t_max)), dtype=float)
    rhs_point = diag.inf_lap[eligible] / gn ** 5
    margin_point = lhs - rhs_point
    worst_point = float(np.min(margin_point))

    margin_zeta = lhs - zeta.eval(wv)
    worst_zeta = float(np.min(margin_zeta))
    tol_red = MARGIN_FACTOR * max(float(np.median(np.abs(lhs))), 1e-300)

    jj, ii = np.nonzero(eligible)
    def _loc(vals):
        k = int(np.argmin(vals))
        return (int(jj[k]), int(ii[k])), float(vals[k])

    return SubsolutionReport(
        pass_residual=worst_res >= -tol_res,
        pass_pointwise=worst_point >= -tol_red,
        pass_zeta=worst_zeta >= -tol_red,
        worst_residual=worst_res,
        worst_pointwise=worst_point,
        worst_zeta=worst_zeta,
        tol_residual=tol_res,
        tol_reduced=tol_red,
        flux_scale=scale,
        n_cells=int(eligible.sum()),
        n_excluded=n_excluded,
        worst_cells={"residual": _loc(res), "pointwise": _loc(margin_point),
                     "zeta": _loc(margin_zeta)},
    )
