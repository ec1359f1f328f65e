"""Boundary growth verification: Hopf constants, the comparison principle,
the outer-ring Lipschitz bound, and the Orlicz Hoelder inequality."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NotNormalized, OutOfRange, PreconditionFail
from .geometry import make_annulus
from .orlicz import OrliczFunction, conjugate, orlicz_norm
from .solver import (RESIDUAL_MARGIN, ScalarField, central_gradient, flux_scale,
                     operator_residual, solve_harmonic)

RIM_ANGLES = 720          # bilinear samples of each ball rim in hopf_constant


@dataclass
class HopfReport:
    boundary_point: tuple
    radii: list
    ratios: list
    c_estimate: float
    passed: bool
    skipped: list = field(default_factory=list)
    u0: float = 0.0

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"hopf point {self.boundary_point[0]!r} {self.boundary_point[1]!r}\n")
        out.write(f"u0 {self.u0!r}\n")
        for r, q in zip(self.radii, self.ratios):
            out.write(f"radius {r!r} ratio {q!r}\n")
        for r in self.skipped:
            out.write(f"skipped_radius {r!r} (below three cells)\n")
        out.write(f"c_estimate {self.c_estimate!r}\n")
        out.write(f"pass {self.passed}\n")
        return out.getvalue()

    def table_rows(self):
        return list(zip(self.radii, self.ratios))


def hopf_constant(u: ScalarField, x0, radii) -> HopfReport:
    """Growth ratios (max_{B_r cap D} u - u(x0)) / r over shrinking radii.

    The ball max combines interior node values with RIM_ANGLES bilinear
    samples of the ball rim; radii under three cells are skipped and flagged.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.nan
    # a point on a ring boundary takes the Dirichlet data exactly
    for dom, key in ((u.ring.inner, "inner_value"), (u.ring.outer, "outer_value")):
        lev = abs(float(dom.level(x0, smoothing=u.grid.h)))
        if lev <= u.grid.h and key in u.meta:
            u0 = float(u.meta[key])
            break
    if not np.isfinite(u0):
        u0 = float(u.interp(x0))
    if not np.isfinite(u0):
        u0 = _partial_corner_value(u, x0)
    if not np.isfinite(u0):
        raise PreconditionFail(f"x0 = {x0!r} is outside the sampled field")
    interior = u.interior_mask()
    vmin = float(u.values[interior].min())
    span = float(u.values[interior].max()) - vmin
    if vmin < u0 - max(1e-8, 1e-3 * span):
        raise PreconditionFail("field drops below its boundary-point value")

    radii = sorted({float(r) for r in radii}, reverse=True)
    h = u.grid.h
    pts = u.grid.points()
    dist = np.hypot(pts[..., 0] - x0[0], pts[..., 1] - x0[1])
    angles = np.linspace(0.0, 2 * np.pi, RIM_ANGLES, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)

    used, ratios, skipped = [], [], []
    for r in radii:
        if r < 3 * h:
            skipped.append(r)
            continue
        sel = interior & (dist <= r)
        best = float(u.values[sel].max()) if sel.any() else -np.inf
        rim = u.interp(x0 + r * dirs)
        rim = rim[np.isfinite(rim)]
        if rim.size:
            best = max(best, float(rim.max()))
        if not np.isfinite(best):
            skipped.append(r)
            continue
        used.append(r)
        ratios.append((best - u0) / r)

    c_est = float(min(ratios)) if ratios else 0.0
    scale = max(float(np.max(np.abs(u.values[interior]))), 1e-300)
    positive = bool(used) and c_est * min(used) > 1e-10 * scale
    passed = positive and ratios[-1] >= 0.5 * ratios[0]
    return HopfReport(tuple(x0), used, ratios, c_est, passed, skipped, u0)


def _partial_corner_value(u: ScalarField, x) -> float:
    """Bilinear value from whichever stencil corners carry values (boundary
    points on coarse grids can sit in cells with a missing outside corner)."""
    corners, weights, _ = u.grid.cell_corners(x)
    valid = u.valid_mask()
    num = den = 0.0
    for jc, wgt in zip(corners, weights):
        if valid[jc]:
            num += wgt * u.values[jc]
            den += wgt
    return num / den if den > 1e-12 else np.nan


# --------------------------------------------------------------------------
# comparison principle
# --------------------------------------------------------------------------

@lru_cache(maxsize=8)
def discretization_benchmark(resolution: int) -> float:
    """Max error of the harmonic annulus(1, 2) benchmark at this resolution."""
    ring = make_annulus(1.0, 2.0, resolution=resolution)
    w = solve_harmonic(ring)
    pts = ring.grid.points()
    r = np.hypot(pts[..., 0], pts[..., 1])
    exact = np.log(2.0 / np.maximum(r, 1e-12)) / np.log(2.0)
    return float(np.max(np.abs(w.values - exact)[w.interior_mask()]))


@dataclass
class ComparisonReport:
    passed: bool
    max_violation: float
    tol_cmp: float
    location: tuple | None
    sub_residual_ok: bool
    sol_residual_ok: bool
    worst_sub_residual: float
    worst_sol_residual: float
    direction: str = "sub"      # the barrier is a sub- or a super-solution

    def to_text(self) -> str:
        return (f"comparison pass {self.passed}\n"
                f"max_violation {self.max_violation!r}\n"
                f"tol_cmp {self.tol_cmp!r}\n"
                f"{self.direction}solution_residual_ok {self.sub_residual_ok} "
                f"worst {self.worst_sub_residual!r}\n"
                f"solution_residual_ok {self.sol_residual_ok} "
                f"worst {self.worst_sol_residual!r}\n")


def comparison_check(u: ScalarField, v: ScalarField, of: OrliczFunction,
                     direction: str = "sub") -> ComparisonReport:
    """The comparison principle between a discrete solution u and a barrier v.

    direction "sub": v <= u inside, given v <= u on the boundary and v a
    discrete sub-solution; "super": u <= v inside, given u <= v on the
    boundary and v a discrete super-solution. The report's sub_residual
    fields then describe the barrier v.

    Both residuals must stay within RESIDUAL_MARGIN times the flux scale of
    u on trusted cells. The ordering violation is bounded by tol_cmp, twice
    the error of the harmonic annulus benchmark at u's resolution.
    Boundary ordering violations raise PreconditionFail (an input error);
    residual shortfalls are recorded on the report.
    """
    if direction not in ("sub", "super"):
        raise ValueError(f"direction must be 'sub' or 'super', got {direction!r}")
    if u.grid is not v.grid and (u.grid != v.grid):
        raise PreconditionFail("fields live on different grids")
    if u.ring is not v.ring and not np.array_equal(u.mask, v.mask):
        raise PreconditionFail("fields live on different rings")
    keys = ("inner_value", "outer_value")
    if any(fld.meta.get(k) is None for fld in (u, v) for k in keys):
        raise PreconditionFail("fields carry no boundary data")
    lo, hi = (v, u) if direction == "sub" else (u, v)
    if any(lo.meta[k] > hi.meta[k] + 1e-12 for k in keys):
        raise PreconditionFail(
            f"boundary ordering violated for a {direction}-solution barrier: inner "
            f"{lo.meta['inner_value']!r} vs {hi.meta['inner_value']!r}, "
            f"outer {lo.meta['outer_value']!r} vs {hi.meta['outer_value']!r}")

    ring = u.ring
    trusted = ring.trusted()
    gn = np.hypot(*central_gradient(u.values, u.grid.h))[trusted]
    tol_res = RESIDUAL_MARGIN * flux_scale(gn, of, ring.gap)
    # a super-solution is a sub-solution with the sign of the operator flipped
    sign = 1.0 if direction == "sub" else -1.0
    res_v = sign * operator_residual(v, of).values[trusted]
    res_u = operator_residual(u, of).values[trusted]
    worst_sub = float(res_v.min())
    worst_sol = float(np.max(np.abs(res_u)))
    sub_ok = worst_sub >= -tol_res
    sol_ok = worst_sol <= tol_res

    tol_cmp = 2.0 * discretization_benchmark(max(u.grid.nx, u.grid.ny))
    interior = u.interior_mask()
    diff = lo.values - hi.values
    diff[~interior] = -np.inf
    k = int(np.argmax(diff))
    max_viol = float(diff.ravel()[k])
    loc = tuple(int(x) for x in np.unravel_index(k, diff.shape))
    passed = sub_ok and sol_ok and max_viol <= tol_cmp
    return ComparisonReport(passed, max_viol, tol_cmp, loc, sub_ok, sol_ok,
                            sign * worst_sub, worst_sol, direction)


# --------------------------------------------------------------------------
# outer-ring Lipschitz bound
# --------------------------------------------------------------------------

@dataclass
class LipschitzReport:
    C: float
    M: float
    passed: bool
    comparison: ComparisonReport | None
    n_cells: int

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"lipschitz C {self.C!r}\n")
        out.write(f"reference_max M {self.M!r}\n")
        out.write(f"pass {self.passed}\n")
        if self.comparison is not None:
            out.write(self.comparison.to_text())
        return out.getvalue()


def outer_lipschitz_check(u: ScalarField, of: OrliczFunction, r_ref: float,
                          y=(0.0, 0.0), barrier=None) -> LipschitzReport:
    """Bound u <= C * M * dist(x, K1) on the ball of radius r_ref around the
    boundary point y.

    u must vanish on the ring's inner boundary (the obstacle K1) near y. Given
    barrier = (w, prof), with w the ring's harmonic potential (1 on the inner
    boundary and 0 on the outer) and prof a barrier profile over it, the
    super-solution f(1) - f(w) is compared against u; the constant C is then
    measured directly on cells in the reference ball.
    """
    inner_value = u.meta.get("inner_value")
    if inner_value is None:
        raise PreconditionFail("u carries no boundary data")
    if abs(inner_value) > 1e-12:
        raise PreconditionFail("u must vanish on the inner boundary")
    if float(u.interior_values().min()) < -1e-10:
        raise PreconditionFail("u must be nonnegative")
    y = np.asarray(y, dtype=float)

    ring = u.ring
    pts = ring.grid.points()
    dist_y = np.hypot(pts[..., 0] - y[0], pts[..., 1] - y[1])
    near = u.interior_mask() & (dist_y <= r_ref)
    if not near.any():
        raise OutOfRange("reference ball contains no interior cells")
    M = float(u.values[near].max())
    if M <= 0.0:
        return LipschitzReport(0.0, 0.0, True, None, int(near.sum()))

    comparison = None
    if barrier is not None:
        from .barrier import compose_barrier
        w, prof = barrier
        fw = compose_barrier(w, prof)
        vbar = fw.copy_with(prof.f1 - fw.values, meta={
            "inner_value": prof.f1 - fw.meta["inner_value"],
            "outer_value": prof.f1 - fw.meta["outer_value"],
            "delta_final": w.meta.get("delta_final", 1e-6)})
        comparison = comparison_check(u, vbar, of, direction="super")

    # dist(x, K1), measured on the reference ball only
    dist_k = np.maximum(ring.inner.signed_distance(pts[near], smoothing=ring.grid.h), 0.0)
    sel = dist_k > 0.5 * ring.grid.h
    C = float(np.max(u.values[near][sel] / (M * dist_k[sel]))) if sel.any() else np.inf
    passed = np.isfinite(C) and (comparison is None or comparison.passed)
    return LipschitzReport(C, M, passed, comparison, int(sel.sum()))


# --------------------------------------------------------------------------
# Hoelder inequality in Orlicz norms
# --------------------------------------------------------------------------

@dataclass
class HoelderReport:
    lhs: float
    norm_u: float
    norm_v: float
    passed: bool


def orlicz_holder_check(u, v, of: OrliczFunction, cell_area: float) -> HoelderReport:
    """integral |u v| <= ||u||_F ||v||_F*  (requires the normalization h(1)=1)
    for arrays u and v sampling the same cells of area cell_area."""
    h1 = float(of.h(np.array([1.0]))[0])
    if abs(h1 - 1.0) > 1e-8:
        raise NotNormalized(f"h(1) = {h1!r}; normalize the flow law first")
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    lhs = float(np.sum(np.abs(u * v))) * cell_area
    nu = orlicz_norm(u, of, cell_area=cell_area)
    nv = orlicz_norm(v, conjugate(of), cell_area=cell_area)
    rhs = nu * nv
    return HoelderReport(lhs, nu, nv, lhs <= rhs * (1 + 1e-6) + 1e-300)
