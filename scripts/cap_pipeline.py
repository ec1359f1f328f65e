#!/usr/bin/env python3
"""End-to-end barrier pipeline on the boundary-cap ring.

Builds the cap K for a power modulus, solves the harmonic potential of the
inner ring, measures the level-value majorant, constructs and tunes the
sub-solution profile for each requested flow-law exponent, verifies the
certificates, and runs the comparison against the corresponding potential.
"""

import argparse

import numpy as np

from hopflab import (PowerModulus, build_dini_cap, comparison_check,
                     compose_barrier, gradient_bounds, level_diagnostics,
                     make_cap_ring, power, solve_h_potential, solve_harmonic,
                     tune_m, verify_subsolution, zeta_from_field)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-d", type=float, default=0.25)
    ap.add_argument("--modulus-a", type=float, default=0.5)
    ap.add_argument("--resolution", type=int, default=257)
    ap.add_argument("--p", type=float, nargs="+", default=[1.5, 2.0, 3.0, 4.0])
    args = ap.parse_args()

    cap = build_dini_cap(args.r_d, PowerModulus(args.modulus_a))
    ring = make_cap_ring(cap, "inner", resolution=args.resolution)
    print(f"inner ring: gap {ring.gap:.4f}, spacing {ring.grid.h:.5f}, "
          f"{int(ring.interior().sum())} interior nodes")

    w = solve_harmonic(ring)
    gb = gradient_bounds(w)
    diag = level_diagnostics(w)
    zeta = zeta_from_field(w, diag=diag)
    C = float(np.max(diag.grad_norm[diag.trusted]))
    print(f"harmonic potential: residual {w.meta['residual']:.2e}, "
          f"gradient bounds [{gb.c:.3f}, {gb.C:.3f}], zeta mass {zeta.l1_mass:.4f}")

    for p in args.p:
        of = power(p)
        prof = tune_m(of, zeta, 1.0, C, 1.0)
        rep = verify_subsolution(w, prof, of, zeta=zeta, diag=diag)
        u = solve_h_potential(ring, of)
        cmp_rep = comparison_check(u, compose_barrier(w, prof), of)
        print(f"p={p:4.2f}: subsolution {'pass' if rep.all_pass else 'FAIL'} "
              f"(operator margin {rep.worst_residual:+.3e}), "
              f"f'(1) = {prof.f_prime[-1]:.4f}, m = {prof.m:.5f}, "
              f"comparison {'pass' if cmp_rep.passed else 'FAIL'} "
              f"(max violation {cmp_rep.max_violation:+.2e})")


if __name__ == "__main__":
    main()
