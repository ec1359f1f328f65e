"""Exception taxonomy shared across the package.

Errors that operations *report* rather than raise (failed condition checks,
non-convergence diagnostics) are carried on report objects instead; only
genuinely unrecoverable situations raise.
"""


class HopflabError(Exception):
    """Base class for all package errors."""


# --- structural function construction / evaluation ---

class NonMonotone(HopflabError):
    """The flow law h decreases somewhere on the validation grid."""


class NonzeroOrigin(HopflabError):
    """h(0) differs from 0 beyond tolerance."""


class OutOfRange(HopflabError):
    """Argument outside the validated evaluation range."""


class InversionFailure(HopflabError):
    """No bracket for the inverse flow law g below t_max."""


class Unbounded(HopflabError):
    """Norm bisection escaped its bracket; malformed integrand."""


# --- moduli and geometry ---

class TableTooCoarse(HopflabError):
    """Sampled modulus does not resolve the integrand near t = 0."""


class ContainmentViolated(HopflabError):
    """The 3/4-radius ball is not compactly inside the cap domain."""


class GapTooSmall(HopflabError):
    """Ring boundaries closer than two grid cells."""


class BadRadii(HopflabError):
    """Annulus radii not ordered 0 < R1 < R2."""


class GridTooSmall(HopflabError):
    """Grid does not cover the requested domain."""


# --- solver ---

class VanishingGradient(HopflabError):
    """No cells with usable gradient magnitude remain."""


class StagnationPoint(HopflabError):
    """Gradient fell below threshold in the middle of a flow-line trace."""


class DegenerateGradient(HopflabError):
    """Measured lower gradient bound is numerically zero."""


# --- barrier construction ---

class NotIntegrable(HopflabError):
    """The majorant built from this modulus has infinite mass on (0,1)."""


class InversionOverflow(HopflabError):
    """Argument of g exceeds the validated range of h."""


class TargetUnreachable(HopflabError):
    """No m yields the requested f(1) before g overflows."""


# --- verification harness ---

class PreconditionFail(HopflabError):
    """An input ordering or solvedness precondition is violated."""


class NotNormalized(HopflabError):
    """The Hoelder check requires h(1) = 1."""


# --- CLI ---

class ConfigError(HopflabError):
    """Run configuration missing, malformed, or inconsistent."""


class MissingArtifact(HopflabError):
    """A pipeline stage needs outputs that an earlier stage did not write."""
