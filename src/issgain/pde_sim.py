"""Simulators for the boundary-disturbed parabolic equation and ISS checks.

Three routes to the same solution:

* ``simulate_fd``          - Crank-Nicolson finite differences, boundary data
                             entering through the scheme average (half-step),
                             run in the eigenbasis of the discrete operator
                             in blocks of at most ``CN_BLOCK`` steps.
* ``simulate_spectral``    - exact exponential integration of the modal
                             dynamics c_n' = -lambda_n c_n + coupling_n d(t),
                             lifted by the steady state.
* ``simulate_via_lifting`` - the same modal run, lifted by a cubic.

Both modal routes are ``_lifted_modal`` with their lift; it takes the
exponential convolutions of all stored intervals in one call.
``_crank_nicolson`` serves ``simulate_fd`` and the backstepping closed loop;
it applies the scheme's own map, not the exponential, to every discrete mode.

``advection_exact`` evaluates the method-of-characteristics solution of the
pure advection equation, and ``verify_iss`` checks exponential-plus-gain
envelopes against trajectory norms.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dstevd

from .disturbances import DisturbanceSignal
from .errors import (
    CompatibilityWarning,
    ConfigError,
    MissingEnvelopeParameters,
    NumericalFailure,
    StabilityWarning,
)
from .gains import GainReport, TransportCase, _certify, transport_gain_closed
from .grids import GridFunction, require_same_grid, simpson_norms, uniform_grid
from .sturm_liouville import (
    SLProblem,
    Spectrum,
    _assemble,
    _on_grid,
    fourier_coefficients,
    solve_steady_bvp,
)

DEFAULT_STORE = 160
CN_BLOCK = 48              # Crank-Nicolson steps per block of the modal run


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored states as one (n_times, n_nodes) array over ``grid``, with
    their weighted norms.

    Row i of ``values`` is the state at ``times[i]``.  The array is checked
    finite once, here, and made read-only.
    """

    times: np.ndarray
    values: np.ndarray
    grid: np.ndarray
    norms: np.ndarray
    disturbance: DisturbanceSignal
    d_values: np.ndarray
    method: str
    dt: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.times.size, self.grid.size):
            raise ValueError("values must have shape (number of times, number of nodes)")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not np.all(np.isfinite(self.norms)):
            raise ValueError("norms must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _running_max_abs(d: DisturbanceSignal, times: np.ndarray,
                     window: float | None = None) -> np.ndarray:
    """max |d| over [times[0], t], or over [t - window, t], at each t of ``times``.

    One vectorised call samples d at 32 points per stored interval and at each
    window's left end, so the max of A sin(omega t) is missed by at most
    A (omega delta)^2 / 8, delta the sample spacing.
    """
    samples = np.append(np.linspace(times[:-1], times[1:], 33, axis=1)[:, :-1], times[-1])
    if window is None:
        return np.maximum.accumulate(np.abs(d.value(samples)))[::32]
    edges = np.maximum(times - window, times[0])
    values = np.abs(d.value(np.concatenate([samples, edges])))
    first = np.searchsorted(samples, edges)
    return np.array([max(values[j:32 * i + 1].max(), values[samples.size + i])
                     for i, j in enumerate(first)])


# ---------------------------------------------------------------------------
# lifting


@dataclass(frozen=True, eq=False)
class LiftingRecord:
    """Cubic lift g and its image under the spatial operator.

    With normalized boundary constants (b1, b2)/s, s = sqrt(b1^2+b2^2), the
    substitution x = y + (d/s) g moves the boundary datum into the domain:
    y has homogeneous boundary data and the distributed forcing
    (d/s) A - (d'/s) g, where A = ((p g')' - q g)/r is ``forcing_A``.
    """

    g: GridFunction
    coeffs: tuple                 # (b1n, b2n, c1, c2)
    forcing_A: np.ndarray
    scale: float                  # sqrt(b1^2 + b2^2)


def lift_disturbance(problem: SLProblem) -> LiftingRecord:
    """Minimum-norm cubic g with b1 g(0) + b2 g'(0) = s and a1 g(1) + a2 g'(1) = 0."""
    s = problem.boundary_norm
    b1n, b2n = problem.b1 / s, problem.b2 / s
    u1 = problem.a1 + 2.0 * problem.a2
    u2 = problem.a1 + 3.0 * problem.a2
    w = -problem.a1 * b1n - (problem.a1 + problem.a2) * b2n
    den = u1 * u1 + u2 * u2    # positive: |a1|+|a2| > 0
    c1 = u1 * w / den
    c2 = u2 * w / den
    grid = problem.grid
    g_vals = b1n + b2n * grid + c1 * grid ** 2 + c2 * grid ** 3
    g_prime = b2n + 2.0 * c1 * grid + 3.0 * c2 * grid ** 2
    g_second = 2.0 * c1 + 6.0 * c2 * grid
    g = GridFunction(grid, g_vals)
    rn = problem.r(grid)
    forcing_a = (problem.p.derivative(grid) * g_prime + problem.p(grid) * g_second
                 - problem.q(grid) * g_vals) / rn
    return LiftingRecord(g, (b1n, b2n, c1, c2), forcing_a, s)


# ---------------------------------------------------------------------------
# finite differences (Crank-Nicolson)


def _require_store(n_store: int):
    if n_store < 1:
        raise ValueError(f"n_store must be at least 1, got {n_store}")


def _require_times(**values: float):
    """Reject a time step or horizon that is not finite and positive."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _time_steps(dt: float, T: float) -> tuple[int, float, np.ndarray]:
    """Step count n = ceil(T/dt), at least 1, the step T/n that ends at T, and the
    n + 1 step times.  Raises :class:`ConfigError` when they cannot be allocated."""
    _require_times(dt=dt, T=T)
    if not math.isfinite(T / dt):
        raise ValueError(f"T/dt overflows: dt = {dt} is too small for T = {T}")
    n_steps = max(1, math.ceil(T / dt))
    try:
        times = (T / n_steps) * np.arange(n_steps + 1)
    except (MemoryError, ValueError):
        raise ConfigError(f"T = {T} at dt = {dt} takes {n_steps:.6g} steps, too many to "
                          "allocate; raise dt or lower T") from None
    return n_steps, T / n_steps, times


def _store_indices(n_steps: int, n_store: int) -> np.ndarray:
    """Steps at which a time-stepping run stores its state, t = 0 included."""
    _require_store(n_store)
    return np.unique(np.round(np.linspace(0, n_steps, min(n_store, n_steps) + 1)).astype(int))


def _store_times(T: float, n_store: int) -> np.ndarray:
    """Output times of the interval-wise routes: n_store intervals, at least 2."""
    _require_times(T=T)
    _require_store(n_store)
    return np.linspace(0.0, T, max(2, n_store) + 1)


def _check_compatibility(problem: SLProblem, x0: GridFunction, d: DisturbanceSignal,
                         stacklevel: int = 3):
    """Project x0 onto the compatible affine set when the inlet datum is off.

    Sub-threshold gaps (discretisation-level, e.g. a numerically computed
    steady state) are corrected silently; larger gaps are corrected loudly.
    """
    d0 = float(d.value(np.asarray(0.0)))
    gap = d0 - (problem.b1 * x0.value_at_left() + problem.b2 * x0.derivative_at_left())
    scale = max(abs(d0), float(np.max(np.abs(x0.values))), 1.0)
    if gap == 0.0:
        return x0
    if abs(gap) > 1e-5 * scale:
        warnings.warn(
            f"initial state misses the inlet datum by {gap:.3e}; "
            "projecting along the lifting cubic", CompatibilityWarning, stacklevel=stacklevel)
    lifting = lift_disturbance(problem)
    corrected = x0.values + gap / lifting.scale * lifting.g.values
    return GridFunction(x0.grid, corrected)


def _crank_nicolson(problem: SLProblem, inlet: np.ndarray, x0: np.ndarray, dt: float,
                    store_at: np.ndarray, feedback: np.ndarray | None = None):
    """Crank-Nicolson run of x' = A x + u(t) load e_1 on the active nodes of
    ``problem``, A = -M^{-1} T for the finite-volume stiffness T and lumped mass M
    of ``_assemble`` and load its inlet column over m_0, in the eigenbasis of the
    scaled stiffness S = M^{-1/2} T M^{-1/2} = V diag(lam) V^T (one ``dstevd``).

    In c = V^T M^{1/2} x, with h = dt/2, one step is the diagonal map
    c_{k+1} = rho c_k + gamma (u_k + u_{k+1}), rho = (1 - h lam)/(1 + h lam) and
    gamma = h inlet V[0]/(sqrt(m_0) (1 + h lam)).  lam are the energy-form Rayleigh
    quotients of the vectors w = M^{-1/2} V (Parlett, The Symmetric Eigenvalue
    Problem, 1998): the edge terms -off (w_{i+1} - w_i)^2 are nonnegative, and only
    the reaction and boundary node terms can cancel them.  The eigensolve keeps
    n x n arrays for n active nodes; when they cannot be allocated the run raises
    :class:`ConfigError`.

    ``x0`` and ``feedback`` are full-grid rows.  u is ``inlet[step]``, or with a
    ``feedback`` row ``inlet[step] - feedback @ x`` from step 1 on (``inlet[0]`` is
    u(0)); with phi = w^T feedback that is u_k = inlet_k - phi @ c_k, and the open
    loop is phi = 0.  The run takes B steps at a time: the block's inlet values
    solve one lower-triangular Toeplitz system in h_m = sum phi rho^m gamma, whose
    inverse is formed once (its diagonal 1 + h_0 is the Sherman-Morrison
    denominator of the implicit feedback).  Each block advances only its end state;
    a block that holds a stored step keeps its start, its pair sums u_{j-1} + u_j and
    its inlet values, and the stored states of all blocks are one product after the
    loop; rho^m is a running product.  B is ``CN_BLOCK`` for a stable operator.  A mode
    with |rho| > 1 (lam < 0) makes a closed-loop state the small difference of
    terms of size max|rho|^B |c|, so B shrinks until max|rho|^B <= 4, to 1 step if
    need be.  A failed eigensolve, a zero 1 + h lam or a zero 1 + h_0 raises
    :class:`NumericalFailure`.  Returns the full-grid states and u at the steps
    ``store_at``.
    """
    diag, off, mass, load, lo, hi = _assemble(problem, problem.resolution)
    root = np.sqrt(mass)
    node = diag.copy()
    node[:-1] += off
    node[1:] += off
    try:
        _, vectors, info = dstevd(diag / mass, off / (root[:-1] * root[1:]))
        w = vectors / root[:, None]
        lam = (node @ w ** 2 - off @ np.diff(w, axis=0) ** 2) / (mass @ w ** 2)
    except MemoryError:
        raise ConfigError(f"resolution {problem.resolution} is too fine for the "
                          f"Crank-Nicolson eigenbasis: its {mass.size} x {mass.size} arrays "
                          "cannot be allocated; lower the resolution") from None
    if info != 0:
        raise NumericalFailure(f"Crank-Nicolson eigensolve failed (LAPACK info {info})")
    half = 0.5 * dt
    den = 1.0 + half * lam
    if np.any(den == 0.0):
        raise NumericalFailure(f"Crank-Nicolson matrix is singular at dt = {dt:.6g}")
    rho = (1.0 - half * lam) / den
    gamma = half * load * vectors[0] / (root[0] * den)
    phi = np.zeros(lam.size) if feedback is None else w.T @ feedback[lo:hi + 1]

    top = float(np.max(np.abs(rho)))
    block = CN_BLOCK if top <= 1.0 else max(1, min(CN_BLOCK, int(math.log(4.0) / math.log(top))))
    powers = np.cumprod(np.vstack([np.ones(lam.size), np.broadcast_to(rho, (block, lam.size))]),
                        axis=0)                     # rho^m, m = 0..block
    response = powers[:-1] * gamma                  # row m: rho^m gamma
    h = response @ phi
    if 1.0 + h[0] == 0.0:
        raise NumericalFailure(f"closed-loop inlet equation is singular at dt = {dt:.6g}")
    steps = np.arange(block)
    lag = steps[:, None] - steps[None, :]
    toeplitz = np.where(lag >= 0, lag, block)       # lower-triangular; index block holds 0
    # u_j of a block carries 1 + h_0, and u_i, i < j, carries h_{j-i} + h_{j-i-1}
    solve = np.linalg.inv(np.concatenate(([1.0 + h[0]], h[1:] + h[:-1], [0.0]))[toeplitz])

    # stored step s > 0 lies in block (s - 1) // block at offset 1..block; a block
    # holding one saves its start, its pair sums v and its inlet values in one row.
    # The last block holds the last step, so every pass has a row still to fill
    stored_block, row = np.unique((store_at[1:] - 1) // block, return_inverse=True)
    starts = np.empty((stored_block.size, lam.size))
    vs = np.empty((stored_block.size, block + 1))   # u_{j-1} + u_j, j = 1..n, then 0
    us = np.empty((stored_block.size, block))
    coeffs = np.empty((store_at.size, lam.size))
    c, u = vectors.T @ (root * x0[lo:hi + 1]), inlet[0]
    coeffs[0], n_steps, saved = c, store_at[-1], 0  # step 0 is always stored
    v = np.zeros(block + 1)                         # v[block] stays 0; v[n:] is never read
    for b, start in enumerate(range(0, n_steps, block)):
        n = min(block, n_steps - start)
        rhs = inlet[start + 1:start + n + 1] - powers[1:n + 1] @ (phi * c) - h[:n] * u
        u_block = solve[:n, :n] @ rhs
        v[:n] = u_block
        v[1:n] += u_block[:-1]
        v[0] += u
        if stored_block[saved] == b:
            starts[saved], vs[saved], us[saved, :n] = c, v, u_block
            saved += 1
        c, u = powers[n] * c + v[toeplitz[n - 1]] @ response, u_block[-1]

    offset = store_at[1:] - block * stored_block[row]
    stored = coeffs[1:]                             # in place: one n_store x M temporary at a time
    np.take(starts, row, axis=0, out=stored)
    stored *= powers[offset]
    stored += vs[row[:, None], toeplitz[offset - 1]] @ response
    u_stored = np.append(inlet[0], us[row, offset - 1])
    return _on_grid(problem, coeffs @ w.T, u_stored, lo), u_stored


def simulate_fd(problem: SLProblem, d: DisturbanceSignal, x0: GridFunction,
                dt: float, T: float, n_store: int = DEFAULT_STORE) -> Trajectory:
    """Crank-Nicolson run of the boundary-disturbed equation.

    The time-varying inlet datum enters through the scheme average of the
    two levels (equivalent to evaluation at the half-step to second order).
    The run is :func:`_crank_nicolson` with u = d and ``dt`` shortened so that
    whole steps end at T; incompatible initial data are projected with a warning.
    """
    n_steps, dt_run, times_all = _time_steps(dt, T)
    require_same_grid(x0, problem.grid)
    if d.kind == "sinusoid" and d.frequency * dt > 0.5:
        warnings.warn("time step is coarse for the disturbance frequency "
                      f"(omega*dt = {d.frequency * dt:.2f})", StabilityWarning, stacklevel=2)
    x0 = _check_compatibility(problem, x0, d)

    d_all = np.asarray(d.value(times_all))
    store_at = _store_indices(n_steps, n_store)
    values, inlet = _crank_nicolson(problem, d_all, x0.values, dt_run, store_at)
    norms = simpson_norms(values, problem.spacing, problem.r(problem.grid))
    return Trajectory(times_all[store_at], values, problem.grid, norms, d, inlet,
                      "crank-nicolson", dt_run)


# ---------------------------------------------------------------------------
# spectral routes


def _lifted_modal(problem: SLProblem, spectrum: Spectrum, d: DisturbanceSignal,
                  x0: GridFunction, T: float, N: int, n_store: int,
                  g: np.ndarray, image: np.ndarray, method: str) -> Trajectory:
    """Modal run of x = y + (d/s) g for a lift g with datum s and image A g.

    The coefficients c_n = <phi_n, x>_r of the first N modes follow c_n' = -lambda_n
    c_n + coupling_n d(t), coupling_n = (<phi_n, A g>_r + lambda_n <phi_n, g>_r)/s by
    Green's identity; one ``exp_convolution`` call integrates every stored interval.
    x = sum c_n phi_n + (d/s)(g - P_N g), P_N the projection onto the first N modes.
    An incompatible x0 is projected along the cubic, as in ``simulate_fd``.
    """
    times = _store_times(T, n_store)     # before the projection: a rejected run warns of nothing
    x0 = _check_compatibility(problem, x0, d, stacklevel=4)    # warn at the route's caller
    if N < 1 or N > spectrum.n_modes:
        raise ValueError("need 1 <= N <= number of computed modes")
    require_same_grid(x0, problem.grid)
    s = problem.boundary_norm
    g_coeffs = fourier_coefficients(GridFunction(problem.grid, g), spectrum, problem)
    a_coeffs = fourier_coefficients(GridFunction(problem.grid, image), spectrum, problem)
    coupling = (a_coeffs + spectrum.eigenvalues * g_coeffs) / s
    lam = spectrum.eigenvalues[:N]
    decays = np.exp(-lam * np.diff(times)[:, None])
    inputs = coupling[:N] * d.exp_convolution(lam, times[:-1], times[1:])
    coeffs = np.empty((times.size, N))
    coeffs[0] = fourier_coefficients(x0, spectrum, problem)[:N]
    for i in range(1, times.size):
        coeffs[i] = decays[i - 1] * coeffs[i - 1] + inputs[i - 1]
    phi = spectrum.eigenfunctions[:N]
    d_values = np.asarray(d.value(times))
    values = coeffs @ phi + np.outer(d_values / s, g - g_coeffs[:N] @ phi)
    norms = simpson_norms(values, problem.spacing, problem.r(problem.grid))
    return Trajectory(times, values, problem.grid, norms, d, d_values, method,
                      times[1] - times[0],
                      extras={"coefficients": coeffs, "coupling": coupling[:N],
                              "eigenvalues": lam})


def simulate_spectral(problem: SLProblem, spectrum: Spectrum, d: DisturbanceSignal,
                      x0: GridFunction, T: float, N: int = 64,
                      n_store: int = DEFAULT_STORE) -> Trajectory:
    """Exponential integration of the first N generalized Fourier modes (exact for
    every signal kind), lifted by the steady state x~ of datum s: A x~ = 0,
    so mode n couples through lambda_n <phi_n, x~>_r/s, and adding back (d/s)(x~ -
    P_N x~), the quasi-static part the kept modes miss (mode acceleration), makes x
    meet the inlet datum."""
    _certify(spectrum)
    steady = solve_steady_bvp(problem, problem.boundary_norm).values
    return _lifted_modal(problem, spectrum, d, x0, T, N, n_store, steady,
                         np.zeros_like(steady), "spectral")


def simulate_via_lifting(problem: SLProblem, spectrum: Spectrum, d: DisturbanceSignal,
                         x0: GridFunction, T: float, N: int = 64,
                         n_store: int = DEFAULT_STORE) -> Trajectory:
    """The modal run of :func:`simulate_spectral`, lifted instead by the cubic g
    of :func:`lift_disturbance` (A g is not 0); a cross-check of ``simulate_fd``."""
    _certify(spectrum)
    lifting = lift_disturbance(problem)
    return _lifted_modal(problem, spectrum, d, x0, T, N, n_store, lifting.g.values,
                         lifting.forcing_A, "lifted-spectral")


# ---------------------------------------------------------------------------
# advection


def advection_exact(v: float, k: float, d: DisturbanceSignal, y0,
                    T: float, resolution: int = 256, weight_D: float | None = None,
                    n_store: int = DEFAULT_STORE) -> Trajectory:
    """Exact solution of y_t + v y_z = -k y with inlet datum d.

    ``y(t,z) = e^{-kt} y0(z - vt)`` ahead of the characteristic z = vt and
    ``e^{-kz/v} d(t - z/v)`` behind it; ``y0`` is a callable of z.  Norms
    carry the weight e^{-vz/D} when ``weight_D`` is given.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    y0_left = float(y0(0.0))
    eps = 1e-6
    y0_prime_left = (4.0 * float(y0(eps)) - float(y0(2 * eps)) - 3.0 * y0_left) / (2.0 * eps)

    d0 = float(d.value(np.asarray(0.0)))
    dp0 = float(d.derivative(np.asarray(0.0)))
    if abs(y0_left - d0) > 1e-9 * max(1.0, abs(d0)) \
            or abs(dp0 + v * y0_prime_left + k * d0) > 1e-6 * max(1.0, abs(dp0), abs(d0)):
        warnings.warn("advection data violate the inlet compatibility conditions; "
                      "the formula is still evaluated", CompatibilityWarning, stacklevel=2)

    grid = uniform_grid(resolution)
    h = grid[1] - grid[0]
    weight = np.exp(-v * grid / weight_D) if weight_D else np.ones_like(grid)
    times = _store_times(T, n_store)
    values = np.empty((times.size, grid.size))
    for vals, t in zip(values, times):
        ahead = grid > v * t
        vals[ahead] = math.exp(-k * t) * np.asarray(y0(grid[ahead] - v * t))
        behind = ~ahead
        vals[behind] = np.exp(-k * grid[behind] / v) * d.value(t - grid[behind] / v)
    d_values = np.asarray(d.value(times))
    return Trajectory(times, values, grid, simpson_norms(values, h, weight), d, d_values,
                      "advection-exact", times[1] - times[0])


# ---------------------------------------------------------------------------
# ISS verification


@dataclass(frozen=True)
class IssEnvelope:
    """Envelope ||x[t]|| <= overshoot(eps) e^{-decay t} ||x0|| + gain(eps) max|d|.

    With ``epsilon_dependent`` the factors are overshoot_base sqrt(1+eps) and
    gain_base sqrt(1+1/eps); otherwise they are used as-is and the epsilon
    list is ignored.  ``max_window`` restricts the disturbance maximum to a
    sliding window [t - w, t] (the advection estimate).
    """

    decay_rate: float
    gain_base: float
    overshoot_base: float = 1.0
    epsilon_dependent: bool = True
    max_window: float | None = None

    @classmethod
    def from_gain_report(cls, report: GainReport) -> "IssEnvelope":
        return cls(decay_rate=report.iss_decay_rate,
                   gain_base=report.tail_corrected / report.boundary_norm)

    @classmethod
    def from_case(cls, case: TransportCase) -> "IssEnvelope":
        """The closed-form envelope of a transport case: no series and no spectrum."""
        return cls(decay_rate=case.lambda1(), gain_base=transport_gain_closed(case.zeta, case.a))

    def validate(self):
        for name, val in (("decay_rate", self.decay_rate), ("gain_base", self.gain_base),
                          ("overshoot_base", self.overshoot_base)):
            if val is None or not math.isfinite(val):
                raise MissingEnvelopeParameters(f"envelope parameter {name} is missing")


@dataclass(frozen=True)
class ISSCheckReport:
    epsilons: tuple
    min_margins: tuple
    argmin_times: tuple
    per_epsilon_pass: tuple
    worst_relative_violation: float
    slack: float
    passed: bool


def _require_iss_settings(epsilons, slack: float):
    """Reject epsilons that are not finite and positive, or a slack not finite and >= 0."""
    if not all(math.isfinite(e) and e > 0 for e in epsilons):
        raise ValueError(f"epsilon values must be finite and positive, got {tuple(epsilons)}")
    if not (math.isfinite(slack) and slack >= 0):
        raise ValueError(f"slack must be finite and nonnegative, got {slack}")


def verify_iss(traj: Trajectory, envelope, epsilons=(0.1, 1.0, 10.0),
               slack: float = 1e-3) -> ISSCheckReport:
    """Check margins RHS - LHS of an ISS envelope at every stored time.

    One row of RHS per epsilon (one row, epsilon nan, for an envelope that does
    not depend on it).  Pass iff the minimum margin is >= -slack * max(RHS) in
    every row.
    """
    if isinstance(envelope, GainReport):
        envelope = IssEnvelope.from_gain_report(envelope)
    envelope.validate()
    if envelope.epsilon_dependent and len(epsilons) == 0:
        raise ValueError("an epsilon-dependent envelope needs at least one epsilon")
    _require_iss_settings(epsilons if envelope.epsilon_dependent else (), slack)
    maxd = _running_max_abs(traj.disturbance, traj.times, envelope.max_window)
    decay = np.exp(-envelope.decay_rate * traj.times)

    eps = np.array(epsilons if envelope.epsilon_dependent else [math.nan], dtype=float)[:, None]
    over, gain = envelope.overshoot_base, envelope.gain_base
    if envelope.epsilon_dependent:
        over, gain = over * np.sqrt(1.0 + eps), gain * np.sqrt(1.0 + 1.0 / eps)
    rhs = np.atleast_2d(over * decay * traj.norms[0] + gain * maxd)     # (n_eps, n_times)
    margin = rhs - traj.norms
    scale = np.max(rhs, axis=1)
    i_min = np.argmin(margin, axis=1)
    worst = np.min(margin, axis=1)
    passed = worst >= -slack * scale
    violation = np.maximum(-worst, 0.0) / np.maximum(scale, 1e-300)
    return ISSCheckReport(tuple(eps[:, 0].tolist()), tuple(worst.tolist()),
                          tuple(traj.times[i_min].tolist()), tuple(passed.tolist()),
                          float(np.max(violation, initial=0.0)), slack, bool(np.all(passed)))
