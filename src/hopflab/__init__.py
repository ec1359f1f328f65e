"""Numerical laboratory for H-potentials in convex rings: Orlicz-function
calculus, Dini-cap geometry, degenerate-elliptic solves, sub-solution
barriers, and Hopf-type boundary gradient verification."""

from .barrier import (BarrierProfile, ZetaProfile, build_barrier,
                      compose_barrier, tune_m, verify_subsolution,
                      zeta_from_field, zeta_from_modulus)
from .geometry import (ConvexRing, DiniCap, Disk, Grid, LogPowerModulus,
                       Mask, Polygon, PowerModulus, Reflected, TableModulus,
                       build_dini_cap, dini_report, make_annulus, make_cap_ring,
                       make_ring, make_rings)
from .hopf import (comparison_check, discretization_benchmark, hopf_constant,
                   orlicz_holder_check, outer_lipschitz_check)
from .orlicz import (ConditionReport, OrliczFunction, WeightSample,
                     check_condition_R, check_conditions, conjugate, custom,
                     orlicz_norm, power, young_gap)
from .solver import (ScalarField, SolveOptions, gradient_bounds,
                     level_diagnostics, operator_residual, solve_h_potential,
                     solve_harmonic, trace_flow_line)

__all__ = [
    "BarrierProfile", "ZetaProfile", "build_barrier", "compose_barrier",
    "tune_m", "verify_subsolution", "zeta_from_field", "zeta_from_modulus",
    "ConvexRing", "DiniCap", "Disk", "Grid", "LogPowerModulus", "Mask",
    "Polygon", "PowerModulus", "Reflected", "TableModulus", "build_dini_cap",
    "dini_report", "make_annulus", "make_cap_ring", "make_ring", "make_rings",
    "comparison_check", "discretization_benchmark", "hopf_constant",
    "orlicz_holder_check", "outer_lipschitz_check",
    "ConditionReport", "OrliczFunction", "WeightSample", "check_condition_R",
    "check_conditions", "conjugate", "custom", "orlicz_norm", "power",
    "young_gap",
    "ScalarField", "SolveOptions", "gradient_bounds", "level_diagnostics",
    "operator_residual", "solve_h_potential", "solve_harmonic",
    "trace_flow_line",
]
