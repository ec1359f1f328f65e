"""Calculus for the structural function F and certification of its conditions.

F(t) = integral of the flow law h on [0, t]; companions are h = F', the
inverse g = h^-1, the Legendre transform F*(t) = integral of g, and
R = F''/F'. Power laws h(t) = t^(p-1) are handled in closed form; custom
laws come in as callables or sampled tables and are backed by monotone
cubic interpolation.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (InversionFailure, NonMonotone, NonzeroOrigin, OutOfRange,
                     Unbounded)
from .pchip import Pchip
from .quadrature import bisect, cumulative_trapezoid

COERCIVITY_RATIO_MAX = 10.0   # pass threshold for sup/inf of h(t)/t^(p-1)
DELTA2_CAP = 1e4          # doubling ratios above this count as unbounded growth
CONDITION_T_LO = 1e-6     # check_conditions samples h on [t_max * this, t_max / 2]
R_GRID = 1025             # log-spaced samples of the R condition's range
R_ANCHORS = 11            # interval ends among them (the lattice of [t, T])
NORM_STEPS = 64           # halvings of the norm bracket: it ends below one ulp


@dataclass(frozen=True)
class EvalRecord:
    F: float
    h: float
    g: float
    Fstar: float
    R: float


class OrliczFunction:
    """Validated structural function with vectorized companions.

    Use :func:`power` or :func:`custom` to build one; the constructor runs
    the origin and monotonicity checks.
    """

    def __init__(self, kind: str, h_fn, t_max: float, p: float | None = None,
                 h_prime_fn=None, table: tuple[np.ndarray, np.ndarray] | None = None):
        self.kind = kind
        self.p = p
        self.t_max = float(t_max)
        self._h = h_fn
        self._h_prime = h_prime_fn
        self._table = table
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self):
        if not 0 < self.t_max < np.inf:
            raise OutOfRange(f"t_max = {self.t_max!r}: need a positive finite number")
        h0 = float(self._h(np.array([0.0]))[0])
        scale = max(1.0, abs(float(self._h(np.array([min(1.0, self.t_max)]))[0])))
        if abs(h0) > 1e-9 * scale:
            raise NonzeroOrigin(f"h(0) = {h0!r}")
        ts = np.geomspace(self.t_max * 1e-9, self.t_max, 512)
        hs = self.h(ts)
        dh = np.diff(hs)
        if np.any(dh <= 0):
            i = int(np.argmax(dh <= 0))
            raise NonMonotone(f"h not strictly increasing near t = {float(ts[i + 1])!r}")

    # -- scalar/vector companions ------------------------------------------

    def h(self, t):
        t = np.asarray(t, dtype=float)
        return self._h(t)

    @cached_property
    def h_top(self) -> float:
        """h(t_max): the top of the range where g and F* are validated."""
        return float(self.h(np.array([self.t_max]))[0])

    def h_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self._h_prime is not None:
            return self._h_prime(t)
        # central differences with relative step
        dt = 1e-6 * np.maximum(t, 1e-6 * self.t_max)
        lo = np.maximum(t - dt, 0.0)
        return (self._h(t + dt) - self._h(lo)) / (t + dt - lo)

    def F(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            return t ** self.p / self.p
        return self._f_spline(np.clip(t, 0.0, self.t_max))

    def g(self, y):
        """Inverse flow law, by monotone bisection for custom laws."""
        y = np.asarray(y, dtype=float)
        if self.kind == "power":
            return y ** (1.0 / (self.p - 1.0))
        if np.any(y > self.h_top * (1 + 1e-12)):
            raise InversionFailure(
                f"g argument above h(t_max) = {self.h_top!r}; no bracket below t_max")
        return self._invert(np.clip(y, 0.0, self.h_top))

    def _invert(self, y):
        return bisect(lambda mid: self.h(mid) < y, np.zeros_like(y),
                      np.full_like(y, self.t_max), 90)

    def Fstar(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "power":
            q = self.p / (self.p - 1.0)
            return y ** q / q
        if np.any(y > self.h_top * (1 + 1e-12)):
            raise OutOfRange(f"F* validated only up to h(t_max) = {self.h_top!r}")
        return self._fstar_spline(np.clip(y, 0.0, self.h_top))

    def R(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            with np.errstate(divide="ignore"):
                return (self.p - 1.0) / t
        h = self.h(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(h > 0, self.h_prime(t) / np.where(h > 0, h, 1.0), np.inf)

    # -- cached splines for the custom path ---------------------------------

    def _dense_ts(self):
        lin = np.linspace(0.0, self.t_max, 8193)
        geo = np.geomspace(self.t_max * 1e-10, self.t_max, 2049)
        return np.unique(np.concatenate([lin, geo]))

    @cached_property
    def _f_spline(self):
        if self._table is not None:
            ts, hs = self._table
        else:
            ts = self._dense_ts()
            hs = self.h(ts)
        return Pchip(ts, hs, extrapolate=False).antiderivative()

    @cached_property
    def _fstar_spline(self):
        ys = np.unique(np.concatenate([
            [0.0], np.linspace(0.0, self.h_top, 8193),
            np.geomspace(self.h_top * 1e-10, self.h_top, 2049)]))
        return Pchip(ys, self._invert(ys)).antiderivative()

    # -- serialization -------------------------------------------------------

    def descriptor(self) -> str:
        out = io.StringIO()
        out.write("orlicz\n")
        out.write(f"kind {self.kind}\n")
        if self.kind == "power":
            out.write(f"p {self.p!r}\n")
        elif self._table is not None:
            out.write(f"table {len(self._table[0])}\n")
            for t, y in zip(*self._table):
                out.write(f"{t!r} {y!r}\n")
        out.write(f"t_max {self.t_max!r}\n")
        return out.getvalue()

    def __repr__(self):
        if self.kind == "power":
            return f"OrliczFunction(power, p={self.p})"
        return f"OrliczFunction(custom, t_max={self.t_max})"


def power(p: float, t_max: float = 1e6) -> OrliczFunction:
    """h(t) = t^(p-1); the p-Laplacian flow law."""
    if not p > 1.0:
        raise OutOfRange(f"p = {p!r}: a power law needs p > 1")

    def h_fn(t):
        return t ** (p - 1.0)

    def hp_fn(t):
        with np.errstate(divide="ignore"):
            return (p - 1.0) * t ** (p - 2.0)

    return OrliczFunction("power", h_fn, t_max, p=p, h_prime_fn=hp_fn)


def custom(h=None, table=None, t_max: float | None = None) -> OrliczFunction:
    """Custom flow law from a callable or a strictly increasing sample table."""
    if table is not None:
        ts = np.asarray(table[0], dtype=float)
        hs = np.asarray(table[1], dtype=float)
        if ts[0] > 0.0:
            ts = np.concatenate([[0.0], ts])
            hs = np.concatenate([[0.0], hs])
        if np.any(np.diff(ts) <= 0):
            raise NonMonotone("table abscissae must increase")
        if np.any(np.diff(hs) <= 0):
            raise NonMonotone("table values must increase strictly")
        if t_max is not None and t_max > ts[-1]:
            # h would be clamped flat above the table, so not increasing
            raise OutOfRange(f"t_max = {t_max!r}: above the table's last abscissa "
                             f"{float(ts[-1])!r}")
        spline = Pchip(ts, hs, extrapolate=False)
        spline_d = spline.derivative()
        return OrliczFunction("custom", lambda t: spline(np.clip(t, 0, ts[-1])),
                              ts[-1] if t_max is None else t_max,
                              h_prime_fn=lambda t: spline_d(np.clip(t, 0, ts[-1])),
                              table=(ts, hs))
    if h is None:
        raise ValueError("custom needs a callable h or a table")
    if t_max is None:
        raise ValueError("custom callable needs t_max")

    def h_vec(t):
        return np.asarray(h(np.asarray(t, dtype=float)), dtype=float)

    return OrliczFunction("custom", h_vec, t_max)


def conjugate(of: OrliczFunction) -> OrliczFunction:
    """The structural function whose flow law is g = h^-1 (so its F is F*)."""
    if of.kind == "power":
        return power(of.p / (of.p - 1.0), t_max=of.t_max ** (of.p - 1.0))

    def g_fn(y):
        return of._invert(np.clip(np.asarray(y, dtype=float), 0.0, of.h_top))

    def g_prime(y):
        t = g_fn(y)
        d = np.asarray(of.h_prime(t), dtype=float)
        return 1.0 / np.maximum(d, 1e-300)

    return OrliczFunction("custom", g_fn, of.h_top, h_prime_fn=g_prime)


def evaluate(of: OrliczFunction, t: float) -> EvalRecord:
    """All companions at one point: F, h, g, F*, R."""
    if t < 0 or t > of.t_max:
        raise OutOfRange(f"t = {t!r} outside [0, {of.t_max!r}]")
    h = float(of.h(np.array([t]))[0])
    # g first: above h(t_max) it raises InversionFailure, where F* would
    # raise OutOfRange
    g = float(of.g(np.array([t]))[0])
    R = float(of.R(np.array([t]))[0]) if t > 0 else np.inf
    return EvalRecord(F=float(of.F(t)), h=h, g=g, Fstar=float(of.Fstar(t)), R=R)


def young_gap(of: OrliczFunction, a: float, b: float) -> float:
    """F(a) + F*(b) - a*b; nonnegative, zero exactly when b = h(a)."""
    if a < 0 or b < 0:
        raise OutOfRange("young_gap needs nonnegative arguments")
    if a > of.t_max:
        raise OutOfRange(f"a = {a!r} above t_max")
    Fa = float(of.F(np.array([a]))[0])
    Fb = float(of.Fstar(np.array([b]))[0])
    return Fa + Fb - a * b


# --- condition certification ---------------------------------------------

@dataclass
class ConditionReport:
    condition_id: str
    passed: bool
    witnesses: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    note: str = ""

    def to_text(self) -> str:
        lines = [f"condition {self.condition_id}",
                 f"pass {self.passed}"]
        for k in sorted(self.constants):
            lines.append(f"constant {k} {self.constants[k]!r}")
        for wit in self.witnesses:
            lines.append("witness " + " ".join(repr(x) for x in wit))
        if self.note:
            lines.append(f"note {self.note}")
        return "\n".join(lines) + "\n"


def check_conditions(of: OrliczFunction, p_guess: float) -> list[ConditionReport]:
    """Physical, coercivity and doubling reports over a log-spaced sample of
    [t_max * CONDITION_T_LO, t_max / 2].

    Failures are reported with witnesses, never raised.
    """
    lo, hi = of.t_max * CONDITION_T_LO, of.t_max / 2
    ts = np.geomspace(lo, hi, 257)
    reports = []

    # physical: h(0) = 0 and monotonicity
    h0 = float(of.h(np.array([0.0]))[0])
    hs = of.h(ts)
    bad = np.flatnonzero(np.diff(hs) <= 0)
    wit = [(float(ts[i + 1]), float(hs[i + 1])) for i in bad[:5]]
    ok = abs(h0) <= 1e-9 * max(1.0, float(hs[-1])) and len(bad) == 0
    if abs(h0) > 1e-9 * max(1.0, float(hs[-1])):
        wit.append((0.0, h0))
    reports.append(ConditionReport("Physical", ok, wit, {"h0": h0}))

    # coercivity against t^(p_guess - 1)
    ratio = hs / ts ** (p_guess - 1.0)
    c = float(np.min(ratio))
    C = float(np.max(ratio))
    coercive = c > 0 and C / c <= COERCIVITY_RATIO_MAX
    wit = []
    if not coercive:
        i = int(np.argmin(ratio))
        wit.append((float(ts[i]), float(ratio[i])))
    reports.append(ConditionReport(
        "Coercivity", coercive, wit, {"c": c, "C": C, "p": p_guess},
        note=f"pass requires C/c <= {COERCIVITY_RATIO_MAX}"))

    # doubling for F and F* above a conventional t0
    t0 = min(1.0, hi / 4)
    td = np.geomspace(t0, hi, 129)
    ratios = [np.max(of.F(2 * td) / of.F(td))]
    wit = []
    dual_ok = True
    try:
        yd = np.geomspace(t0, hi, 129)
        if of.kind == "custom" and 2 * yd[-1] > of.h_top:
            yd = yd[2 * yd <= of.h_top]
        if len(yd) == 0:
            raise OutOfRange("F* undefined at doubled arguments")
        ratios.append(np.max(of.Fstar(2 * yd) / of.Fstar(yd)))
    except (OutOfRange, InversionFailure) as exc:
        dual_ok = False
        wit.append(("Fstar", str(exc)))
    C0 = float(np.max(ratios))
    ok = dual_ok and np.isfinite(C0) and C0 <= DELTA2_CAP
    reports.append(ConditionReport("Delta2", ok, wit, {"C0": C0, "t0": t0}))
    return reports


class WeightSample:
    """A positive monotone increasing bounded weight c(s) with its bounds."""

    def __init__(self, fn, c_lo: float, c_hi: float, label: str = "weight"):
        if not (0 < c_lo <= c_hi < np.inf):
            raise OutOfRange("weight bounds must satisfy 0 < c <= C < inf")
        self.fn = fn
        self.c_lo = float(c_lo)
        self.c_hi = float(c_hi)
        self.label = label

    @classmethod
    def constant(cls, value: float):
        return cls(lambda s: np.full_like(np.asarray(s, float), value),
                   value, value, f"const{value:g}")

    @classmethod
    def ramp(cls, c_lo: float, c_hi: float, s_range):
        a, b = s_range

        def fn(s):
            x = np.clip((np.asarray(s, float) - a) / (b - a), 0.0, 1.0)
            return c_lo + (c_hi - c_lo) * x * x * (3 - 2 * x)

        return cls(fn, c_lo, c_hi, "ramp")

    @classmethod
    def from_profile(cls, s_vals, c_vals, label="measured"):
        """Monotone envelope of a measured weight profile."""
        s_vals = np.asarray(s_vals, float)
        c_vals = np.maximum.accumulate(np.asarray(c_vals, float))

        def fn(s):
            return np.interp(np.asarray(s, float), s_vals, c_vals)

        return cls(fn, float(c_vals.min()), float(c_vals.max()), label)


def check_condition_R(of: OrliczFunction, c_samples: list[WeightSample],
                      s_range: tuple[float, float]) -> ConditionReport:
    """Search constants (alpha, beta) so that, on a lattice of intervals
    [t, T] inside s_range and for every supplied weight,

        integral of R(c(s) s) over [t, T]  >=  alpha * integral of R(beta s).

    The integrals are trapezoid sums over R_GRID log-spaced samples, and the
    interval ends run over R_ANCHORS of them. The certificate is sampled: it
    quantifies only over the supplied weights and lattice, which the report
    states.
    """
    lo, hi = s_range
    if not (0 < lo < hi):
        raise OutOfRange("s_range must be positive and increasing")
    s = np.geomspace(lo, hi, R_GRID)
    anchors = np.unique(np.linspace(0, R_GRID - 1, R_ANCHORS).astype(int))

    lhs_cums = []
    c_hi_all = max(w.c_hi for w in c_samples)
    c_lo_all = min(w.c_lo for w in c_samples)
    for wgt in c_samples:
        cs = np.asarray(wgt.fn(s), dtype=float)
        lhs_cums.append(cumulative_trapezoid(np.asarray(of.R(cs * s), dtype=float), s))

    alphas = [2.0 ** (-k) for k in range(9)]
    betas = [c_hi_all]
    b = c_lo_all
    while b <= 4 * c_hi_all:
        betas.append(b)
        b *= 2 ** 0.5
    betas = sorted(set(betas))

    worst = None
    for alpha in alphas:
        for beta in betas:
            rhs_cum = cumulative_trapezoid(np.asarray(of.R(beta * s), dtype=float), s)
            ok = True
            for wgt, lhs_cum in zip(c_samples, lhs_cums):
                for ia in anchors:
                    for ib in anchors:
                        if ib <= ia:
                            continue
                        lhs = lhs_cum[ib] - lhs_cum[ia]
                        rhs = alpha * (rhs_cum[ib] - rhs_cum[ia])
                        if lhs < rhs * (1 - 1e-9) - 1e-12:
                            ok = False
                            if worst is None or lhs - rhs < worst[0]:
                                worst = (lhs - rhs, wgt.label, float(s[ia]), float(s[ib]))
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                return ConditionReport(
                    "TechnicalR", True, [],
                    {"alpha": alpha, "beta": beta, "c": c_lo_all, "C": c_hi_all},
                    note="sampled certificate over supplied weights only")
    wit = [worst[1:]] if worst else []
    return ConditionReport("TechnicalR", False, wit,
                           {"c": c_lo_all, "C": c_hi_all},
                           note="search exhausted; sampled certificate only")


def orlicz_norm(field, of: OrliczFunction, cell_area: float | None = None) -> float:
    """Luxemburg-style norm: the least M with sum F(|u|/M) * dA <= F(1),
    bisected NORM_STEPS times inside a bracket [M0 / 2^k, M0].

    `field` is a ScalarField (values on its interior mask are integrated)
    or a plain array with an explicit cell_area.
    """
    if hasattr(field, "interior_values"):
        u = np.abs(field.interior_values())
        cell_area = field.grid.h ** 2
    else:
        if cell_area is None:
            raise ValueError("plain arrays need cell_area")
        u = np.abs(np.asarray(field, dtype=float).ravel())
    if u.size == 0:
        raise OutOfRange("empty mask")
    umax = float(u.max())
    if umax == 0.0:
        return 0.0
    target = float(of.F(np.array([1.0]))[0])

    def integral(M):
        return float(np.sum(of.F(np.minimum(u / M, of.t_max)))) * cell_area

    hi = umax
    n = 0
    while integral(hi) > target:
        hi *= 2.0
        n += 1
        if n > 200:
            raise Unbounded("norm bracket escaped; F malformed")
    lo = hi
    while integral(lo) < target and lo > 1e-300:
        lo *= 0.5
    return float(bisect(lambda M: integral(M) > target, lo, hi, NORM_STEPS))
