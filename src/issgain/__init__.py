"""ISS gains for 1-D parabolic equations with boundary disturbances.

Compute the gain constant of the boundary-to-state map by independent routes
(eigenvalue series, steady-state integral, closed forms for the transport
family), simulate the disturbed equation by finite differences and spectral
expansion, and verify exponential-plus-gain envelopes on trajectories.
"""

from .backstepping import (
    ClosedLoopConfig,
    ClosedLoopResult,
    Kernel,
    apply_transform,
    bessel_kernel,
    closed_loop_bound,
    simulate_closed_loop,
    solve_inverse_kernel,
    solve_kernel,
)
from .coefficients import Coefficient
from .config import (
    load_config,
    parse_config_text,
    problem_from_config,
    transport_problem,
)
from .disturbances import DisturbanceSignal
from .errors import (
    CompatibilityWarning,
    ConfigError,
    ConvergenceFailure,
    DegenerateBoundary,
    GridMismatch,
    InadmissibleCase,
    IncompatibleInitialCondition,
    IssgainError,
    MissingEnvelopeParameters,
    NonPositiveCoefficient,
    NumericalFailure,
    SingularBVP,
    SmoothnessWarning,
    StabilityWarning,
    UncertifiedHypothesis,
)
from .gains import (
    GainReport,
    SweepTable,
    TransportCase,
    advection_gain,
    backstepping_gain,
    gain_bvp,
    gain_series,
    mu_root,
    mu_roots,
    sweep_figure1,
    transport_gain,
    transport_gain_closed,
)
from .grids import GridFunction, uniform_grid
from .pde_sim import (
    ISSCheckReport,
    IssEnvelope,
    LiftingRecord,
    Trajectory,
    advection_exact,
    lift_disturbance,
    simulate_fd,
    simulate_spectral,
    simulate_via_lifting,
    verify_iss,
)
from .sturm_liouville import (
    HypothesisReport,
    SLProblem,
    Spectrum,
    build_problem,
    check_hypothesis_H,
    fourier_coefficients,
    solve_spectrum,
    solve_steady_bvp,
    steady_bvp_residual,
    weighted_norm,
)

__version__ = "0.1.0"
