"""Exception and warning types shared across the package."""


class IssgainError(Exception):
    """Base class for all package errors."""


class ConfigError(IssgainError):
    """Invalid or unreadable run configuration."""


class NumericalFailure(IssgainError):
    """Base class for failures of a numerical procedure."""


class NonPositiveCoefficient(ConfigError):
    """p or r is not strictly positive at some sample."""


class DegenerateBoundary(ConfigError):
    """|a1|+|a2| = 0 or |b1|+|b2| = 0."""


class GridMismatch(IssgainError):
    """Operands live on different spatial grids."""


class ConvergenceFailure(NumericalFailure):
    """The eigensolver fails, or two-grid eigenvalue estimates disagree beyond tolerance."""


class SingularBVP(NumericalFailure):
    """Steady boundary-value problem is (near-)singular, i.e. 0 is in the spectrum."""


class UncertifiedHypothesis(NumericalFailure):
    """The standing spectral hypothesis (positive lambda_1 and summable
    lambda_n^{-1} max|phi_n|) could not be certified for the problem."""


class InadmissibleCase(ConfigError):
    """Transport/advection parameters outside the admissible range."""


class IncompatibleInitialCondition(NumericalFailure):
    """Initial state violates the boundary compatibility condition."""


class MissingEnvelopeParameters(IssgainError):
    """ISS envelope lacks a decay rate, gain or overshoot."""


class StabilityWarning(UserWarning):
    """Time step too coarse for the disturbance frequency (accuracy, not stability)."""


class CompatibilityWarning(UserWarning):
    """Initial state was projected (or accepted) despite boundary incompatibility."""


class SmoothnessWarning(UserWarning):
    """Signal or coefficient table may not be smooth enough for classical solutions."""
