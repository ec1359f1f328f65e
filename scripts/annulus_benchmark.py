#!/usr/bin/env python3
"""Grid-convergence study against the radial ring potentials.

Solves the harmonic and p-harmonic problems on the unit-to-two annulus over a
ladder of resolutions and prints max errors against the closed-form radial
solutions, plus the measured gradient bounds and Hopf growth ratios.
"""

import argparse
import time

import numpy as np

from hopflab import (gradient_bounds, hopf_constant, make_annulus, power,
                     solve_h_potential, solve_harmonic)


def radial(r, p, r1=1.0, r2=2.0, n=2):
    r = np.maximum(np.asarray(r, dtype=float), 1e-12)
    k = (p - n) / (p - 1.0)
    if abs(k) < 1e-14:
        return np.log(r2 / r) / np.log(r2 / r1)
    return (r2 ** k - r ** k) / (r2 ** k - r1 ** k)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolutions", type=int, nargs="+",
                    default=[65, 129, 257])
    ap.add_argument("--p", type=float, nargs="+", default=[2.0, 1.5, 3.0])
    args = ap.parse_args()

    print(f"{'n':>5} {'p':>5} {'max error':>12} {'rate':>6} {'seconds':>8}")
    for p in args.p:
        prev = None
        for n in args.resolutions:
            ring = make_annulus(1.0, 2.0, resolution=n)
            t0 = time.monotonic()
            if p == 2.0:
                u = solve_harmonic(ring)
            else:
                u = solve_h_potential(ring, power(p))
            dt = time.monotonic() - t0
            pts = ring.grid.points()
            r = np.hypot(pts[..., 0], pts[..., 1])
            err = float(np.abs(u.values - radial(r, p))[u.interior_mask()].max())
            rate = f"{prev / err:6.2f}" if prev else "     -"
            print(f"{n:>5} {p:>5.2f} {err:>12.3e} {rate} {dt:>8.2f}")
            prev = err
        print()

    ring = make_annulus(1.0, 2.0, resolution=257)
    w = solve_harmonic(ring)
    gb = gradient_bounds(w)
    print(f"gradient bounds: c = {gb.c:.5f} (exact {1 / (2 * np.log(2)):.5f}), "
          f"C = {gb.C:.5f} (exact {1 / np.log(2):.5f})")
    rep = hopf_constant(w, (2.0, 0.0), [0.4, 0.2, 0.1, 0.05])
    print("hopf ratios:", ", ".join(f"{r:.4f}:{q:.4f}"
                                    for r, q in rep.table_rows()))
    print(f"hopf constant estimate {rep.c_estimate:.5f} "
          f"(normal derivative {1 / (2 * np.log(2)):.5f})")


if __name__ == "__main__":
    main()
