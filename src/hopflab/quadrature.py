"""Scalar quadrature (adaptive Simpson, dyadic integrals toward a singular
endpoint, the cumulative trapezoid rule) and vector bisection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(20)
SIMPSON_MAX_DEPTH = 48    # halvings before adaptive Simpson accepts a panel
DYADIC_MAX_SEGMENTS = 3000    # dyadic segments integral_to_zero sums at most
TAIL_WINDOW = 24          # trailing segments that classify the tail (at most)


def bisect(below, lo, hi, steps: int):
    """Vector bisection: `steps` halvings of the brackets [lo, hi], keeping
    the half above mid wherever below(mid) holds; returns the midpoints."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        left = below(mid)
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def cumulative_trapezoid(y, x):
    """Trapezoid integrals of the samples y over x, from x[0] to each x[k]."""
    out = np.zeros(len(x))
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f on [a, b] by adaptive Simpson to absolute tolerance tol,
    halving at most SIMPSON_MAX_DEPTH times."""
    if b == a:
        return 0.0

    def _simpson(x0, f0, x2, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def _recurse(x0, f0, x2, f2, whole, x1, f1, eps, depth):
        lm, flm, left = _simpson(x0, f0, x1, f1)
        rm, frm, right = _simpson(x1, f1, x2, f2)
        err = left + right - whole
        if depth <= 0 or abs(err) <= 15.0 * eps:
            return left + right + err / 15.0
        return (_recurse(x0, f0, x1, f1, left, lm, flm, 0.5 * eps, depth - 1)
                + _recurse(x1, f1, x2, f2, right, rm, frm, 0.5 * eps, depth - 1))

    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(a, fa, b, fb)
    return _recurse(a, fa, b, fb, whole, m, fm, tol, SIMPSON_MAX_DEPTH)


def gauss_segment(phi, a: float, b: float) -> float:
    """Fixed 20-point Gauss-Legendre rule on [a, b]."""
    x = 0.5 * (b + a) + 0.5 * (b - a) * _GAUSS_X
    return 0.5 * (b - a) * float(np.dot(_GAUSS_W, np.asarray(phi(x), dtype=float)))


@dataclass(frozen=True)
class EndpointIntegral:
    """Result of a dyadic integral toward t = 0.

    classification is one of 'geometric', 'algebraic', 'divergent', 'floored';
    'floored' means the integrand could not be evaluated close enough to 0
    (sampled table ran out) before the tail behaviour was resolved.
    """
    value: float
    converges: bool
    partial: float
    tail: float
    n_segments: int
    classification: str


def integral_to_zero(phi, t1: float, *, t_floor: float = 0.0) -> EndpointIntegral:
    """Compute integral of phi over (0, t1] for integrands smooth away from 0.

    Dyadic segments [t1*2^-(k+1), t1*2^-k] are summed with a fixed Gauss rule.
    Segment sums with a stable ratio < 1 get a geometric tail; slowly decaying
    sums are fitted to k^-q and the integral is declared convergent only for
    q measurably above 1. Mass concentrates logarithmically toward 0, so the
    dyadic ladder sees the decay rate directly. At most DYADIC_MAX_SEGMENTS
    segments are summed, and the last TAIL_WINDOW of them (at most a third)
    classify the tail.
    """
    if t1 <= 0.0:
        raise ValueError("t1 must be positive")
    sums: list[float] = []
    total = 0.0
    hi = t1
    floored = False
    prev = np.inf
    for k in range(DYADIC_MAX_SEGMENTS):
        lo = 0.5 * hi
        if lo < t_floor:
            floored = True
            break
        if lo < 1e-280:
            # float resolution exhausted; classify from the collected sums
            break
        s = gauss_segment(phi, lo, hi)
        sums.append(s)
        total += s
        hi = lo
        # early exit only on a genuinely geometric tail, never on a sudden
        # collapse (which would mask slow decay hitting float underflow)
        if (k >= 8 and abs(s) <= 1e-17 * max(abs(total), 1e-300)
                and abs(s) >= 0.01 * abs(prev)):
            return EndpointIntegral(total, True, total, 0.0, k + 1, "geometric")
        prev = s

    arr = np.asarray(sums, dtype=float)
    n = len(arr)
    w = max(4, min(TAIL_WINDOW, n // 3))
    tail_seg = arr[-w:]
    if np.any(tail_seg <= 0.0):
        # non-positive segments: nothing singular left to resolve
        return EndpointIntegral(total, True, total, 0.0, n, "geometric")

    ratios = tail_seg[1:] / tail_seg[:-1]
    r_mean = float(np.mean(ratios))
    stable = float(np.ptp(ratios)) < 1e-6
    if stable and r_mean <= 0.99:
        tail = float(arr[-1]) * r_mean / (1.0 - r_mean)
        cls = "floored" if floored else "geometric"
        return EndpointIntegral(total + tail, True, total, tail, n, cls)

    # algebraic fit s_k ~ C k^-q over the trailing window
    ks = np.arange(n - w + 1, n + 1, dtype=float)
    q = -float(np.polyfit(np.log(ks), np.log(tail_seg), 1)[0])
    if floored:
        # undecided: report what we have, caller decides on coarseness
        conv = q > 1.05
        tail = float(arr[-1]) * n / (q - 1.0) if conv else np.inf
        return EndpointIntegral(total, conv, total, tail, n, "floored")
    if q > 1.05:
        tail = float(arr[-1]) * n / (q - 1.0)
        return EndpointIntegral(total + tail, True, total, tail, n, "algebraic")
    return EndpointIntegral(total, False, total, np.inf, n, "divergent")
