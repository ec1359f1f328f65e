"""Monotone piecewise-cubic Hermite interpolation (PCHIP) in plain numpy.

Fritsch & Carlson, "Monotone piecewise cubic interpolation", SIAM J. Numer.
Anal. 17 (1980), with the weighted harmonic-mean slopes of Fritsch & Butland
(1984) and the shape-preserving one-sided end slopes of Moler's `pchiptx`.

The kernel reproduces SciPy's PCHIP interpolator bit for bit: the same
slope formulas, the same Hermite coefficients, the same power-sum
evaluation (not Horner) and the same running constants in antiderivatives,
each in SciPy's operation order. Loading SciPy's interpolation package cost
every `hopflab verify` 0.15-0.2 s (2-core VM); this module needs numpy only.
"""

from __future__ import annotations

import numpy as np


class Pchip:
    """A piecewise cubic (or its derivative / antiderivative) on knots x.

    `c[k, i]` is the coefficient of (x - x_i)^(K-1-k) on [x_i, x_{i+1}],
    highest degree first. Outside [x_0, x_-1] the end pieces continue when
    `extrapolate` is true; otherwise the value is NaN.
    """

    def __init__(self, x, y=None, extrapolate=True, *, c=None):
        self.x = np.asarray(x, dtype=float)
        self.extrapolate = bool(extrapolate)
        if c is None:
            y = np.asarray(y, dtype=float)
            if self.x.ndim != 1 or len(self.x) < 2 or y.shape != self.x.shape:
                raise ValueError("need matching 1-d x and y with at least 2 points")
            if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(y))):
                raise ValueError("x and y must be finite")
            if np.any(np.diff(self.x) <= 0):
                raise ValueError("x must increase strictly")
            c = _hermite_coefficients(self.x, y, _slopes(self.x, y))
        self.c = c

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        x, c = self.x, self.c
        flat = xq.ravel()
        i = np.clip(np.searchsorted(x, flat, side="right") - 1, 0, len(x) - 2)
        s = flat - x[i]
        # power sum, lowest degree first, as SciPy's PPoly evaluates it
        res = 0.0
        z = 1.0
        for k in range(c.shape[0] - 1, -1, -1):
            res = res + c[k, i] * z
            z = z * s
        if not self.extrapolate:
            res = np.where((flat >= x[0]) & (flat <= x[-1]), res, np.nan)
        return res.reshape(xq.shape)

    def derivative(self) -> "Pchip":
        n = self.c.shape[0] - 1
        c = self.c[:-1] * np.arange(n, 0, -1, dtype=float)[:, None]
        return Pchip(self.x, extrapolate=self.extrapolate, c=c)

    def antiderivative(self) -> "Pchip":
        """The integral from x_0: continuous at every knot."""
        n, m = self.c.shape
        c = np.zeros((n + 1, m))
        c[:-1] = self.c / np.arange(n, 0, -1, dtype=float)[:, None]
        # constant of piece i = value of piece i-1 at x_i, summed term by term
        # in SciPy's order: one sequential accumulation over all pieces
        s = np.diff(self.x)[:-1]
        terms = np.empty((m - 1, n))
        z = s
        for k in range(n - 1, -1, -1):
            terms[:, n - 1 - k] = c[k, :-1] * z
            z = z * s
        c[-1, 1:] = np.cumsum(np.concatenate([[0.0], terms.ravel()]))[n::n]
        return Pchip(self.x, extrapolate=self.extrapolate, c=c)


def _slopes(x, y):
    """PCHIP derivative estimates at the knots."""
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    if len(x) == 2:
        return np.array([mk[0], mk[0]])
    smk = np.sign(mk)
    flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
    dk = np.zeros_like(y)
    dk[1:-1][~flat] = 1.0 / whmean[~flat]
    dk[0] = _edge_slope(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _edge_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    return dk


def _edge_slope(h0, h1, m0, m1):
    # one-sided three-point estimate, clamped to preserve shape
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _hermite_coefficients(x, y, dydx):
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))
