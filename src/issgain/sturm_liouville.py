"""Sturm-Liouville operator on [0,1]: spectrum, steady BVP and expansions.

The operator is ``A f = -(p f')'/r + (q/r) f`` with separated boundary
conditions ``b1 f(0) + b2 f'(0) = 0`` and ``a1 f(1) + a2 f'(1) = 0``.
Discretisation is a symmetric finite-volume scheme on a uniform grid:
interior rows are the classical second-order three-point stencil, Robin or
Neumann ends use half-cells with the boundary flux eliminated through the
boundary condition.  The scheme is a generalized symmetric tridiagonal
eigenproblem ``T x = lambda B x`` with diagonal mass ``B``, so the computed
spectrum is real and the eigenvectors are B-orthogonal by construction.

Eigenvalues *and* eigenvectors are Richardson-extrapolated across the grid
and its refinement (both are second-order accurate with a smooth leading
error term, so extrapolation yields fourth order).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgtsv, dstebz, dstein

from .coefficients import Coefficient
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DegenerateBoundary,
    NonPositiveCoefficient,
    SingularBVP,
)
from .grids import (
    GridFunction,
    derivative_at_left,
    require_same_grid,
    simpson_norms,
    simpson_weights,
    uniform_grid,
)

DEFAULT_RESOLUTION = 256
HYPOTHESIS_MIN_MODES = 10

# Bound sup|phi_n| <= sqrt(2 pi / (pi - 1)) for sine-type eigenfunctions,
# valid whenever 2*omega_n >= pi.
_SINE_SUP_BOUND = math.sqrt(2.0 * math.pi / (math.pi - 1.0))


@dataclass(frozen=True, eq=False)
class SLProblem:
    """Validated operator data: coefficients, boundary constants and grid."""

    p: Coefficient
    q: Coefficient
    r: Coefficient
    a1: float
    a2: float
    b1: float
    b2: float
    resolution: int

    @property
    def grid(self) -> np.ndarray:
        return uniform_grid(self.resolution)

    @property
    def spacing(self) -> float:
        return 1.0 / self.resolution

    @property
    def boundary_norm(self) -> float:
        """sqrt(b1^2 + b2^2), the scale of the inlet boundary functional."""
        return math.hypot(self.b1, self.b2)

    @property
    def has_constant_coefficients(self) -> bool:
        return self.p.is_constant and self.q.is_constant and self.r.is_constant

    def with_resolution(self, resolution: int) -> "SLProblem":
        return build_problem(self.p, self.q, self.r, self.a1, self.a2,
                             self.b1, self.b2, resolution)

    def sample(self, resolution: int):
        """Node samples (p, q, r) and midpoint samples of p at ``resolution``."""
        grid = uniform_grid(resolution)
        mid = 0.5 * (grid[:-1] + grid[1:])
        return self.p(grid), self.q(grid), self.r(grid), self.p(mid)


def build_problem(p, q, r, a1, a2, b1, b2, resolution: int = DEFAULT_RESOLUTION) -> SLProblem:
    """Validate coefficients and boundary constants and fix the grid.

    ``p``, ``q``, ``r`` may be floats or :class:`Coefficient` handles.
    Boundary constants are stored unnormalized; division by
    sqrt(b1^2+b2^2) happens only where the gain formulas require it.
    """
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    if resolution % 2:
        raise ValueError("resolution must be even (composite Simpson quadrature)")
    p = Coefficient.coerce(p)
    q = Coefficient.coerce(q)
    r = Coefficient.coerce(r)
    if abs(a1) + abs(a2) == 0.0:
        raise DegenerateBoundary("|a1| + |a2| must be positive")
    if abs(b1) + abs(b2) == 0.0:
        raise DegenerateBoundary("|b1| + |b2| must be positive")
    grid = uniform_grid(resolution)
    dense = np.linspace(0.0, 1.0, 4 * resolution + 1)
    for name, coeff in (("p", p), ("r", r)):
        samples = coeff(dense)
        if not np.all(np.isfinite(samples)):
            raise ConfigError(f"{name}(z) must be finite on [0,1]")
        if np.min(samples) <= 0.0:
            raise NonPositiveCoefficient(f"{name}(z) must be strictly positive on [0,1]")
    if not np.all(np.isfinite(q(grid))):
        raise ValueError("q(z) must be finite")
    return SLProblem(p, q, r, float(a1), float(a2), float(b1), float(b2), resolution)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """First eigenpairs, ordered increasingly, normalized to ||phi||_r = 1.

    ``eigenfunctions`` has shape (n_modes, n_nodes).  Sign convention: the
    first nonzero of (phi(0), phi'(0)) is positive.  ``hypothesis`` is the
    :func:`check_hypothesis_H` report, None below ``HYPOTHESIS_MIN_MODES`` modes.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    derivatives_at_0: np.ndarray
    grid: np.ndarray
    hypothesis: HypothesisReport | None = None

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def values_at_0(self) -> np.ndarray:
        return self.eigenfunctions[:, 0]

    def phi(self, n: int) -> GridFunction:
        """Eigenfunction ``n`` (1-based) as a grid function."""
        return GridFunction(self.grid, self.eigenfunctions[n - 1])


@dataclass(frozen=True)
class HypothesisReport:
    lambda1: float
    positive: bool
    partial_sum: float
    tail_bound: float
    certified: bool
    method: str  # "transport-bound" (constant p, q, r) | "none" (not certified)


def _assemble(problem: SLProblem, resolution: int):
    """Stiffness diagonal/off-diagonal, mass diagonal and inlet column on the active
    nodes lo..hi.  ``inlet`` is the column's one nonzero, in the first active row,
    per unit datum: ph[0]/h/b1 (Dirichlet inlet) or -p(0)/b2 (Robin inlet).

    Raises :class:`ConfigError` when a row of the mass-scaled stiffness overflows;
    each off-diagonal entry is a term of a diagonal one, so the rows cover both."""
    m = resolution
    h = 1.0 / m
    pn, qn, rn, ph = problem.sample(m)
    lo, hi = 0, m
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.empty(m + 1)
        off = -ph / h                  # off[i] couples nodes i and i+1
        diag[1:m] = (ph[:-1] + ph[1:]) / h + qn[1:m] * h
        mass = rn * h
        if problem.b2 == 0.0:
            lo = 1
            inlet = ph[0] / h / problem.b1
        else:
            diag[0] = ph[0] / h - pn[0] * (problem.b1 / problem.b2) + qn[0] * h / 2.0
            mass[0] = rn[0] * h / 2.0
            inlet = -pn[0] / problem.b2
        if problem.a2 == 0.0:
            hi = m - 1
        else:
            diag[m] = ph[m - 1] / h + pn[m] * (problem.a1 / problem.a2) + qn[m] * h / 2.0
            mass[m] = rn[m] * h / 2.0
        for end, robin, fix in ((0, problem.b2, "the inlet ratio b1/b2 is too large for "
                                 "this grid; use a Dirichlet inlet (b2 = 0)"),
                                (m, problem.a2, "the exit parameter a is too large for this "
                                 "grid; use a = inf (--a inf) for a Dirichlet exit")):
            if robin != 0.0 and not math.isfinite(diag[end] / mass[end]):
                raise ConfigError(f"a boundary row overflows at resolution {m}: {fix}")
        rows = diag[lo:hi + 1] / mass[lo:hi + 1]
    if not np.all(np.isfinite(rows)):
        z = (lo + int(np.argmin(np.isfinite(rows)))) * h
        raise ConfigError(f"an operator row overflows at resolution {m} near z = {z:.6g}: "
                          "p/(r h^2) exceeds the floating-point range; reduce p or the "
                          "resolution")
    return diag[lo:hi + 1], off[lo:hi], mass[lo:hi + 1], inlet, lo, hi


def _solve_raw_spectrum(problem: SLProblem, resolution: int, n_modes: int):
    """Eigenpairs of the finite-volume scheme at one resolution.

    Bisection (``dstebz``) brackets the lowest ``n_modes`` eigenvalues of the
    symmetric scaled matrix T only to 1e-8 of its largest interior row, enough to
    separate them; inverse iteration (``dstein``) finds their vectors V; the
    Rayleigh-Ritz pairs of V, from V^T T V = Q diag(theta) Q^T, are (theta, V Q).
    The eigenvalues are then accurate to rounding rather than to the bracket, and
    a stiff Robin end row, left out of the bracket's scale, does not widen it
    (Parlett, The Symmetric Eigenvalue Problem, 1998, ch. 4 and 11).  A wider
    bracket stops ``dstein`` short of convergence.
    Raises :class:`ConvergenceFailure` when either LAPACK routine fails.
    """
    diag, off, mass, _, lo, hi = _assemble(problem, resolution)
    d = diag / mass
    e = off / np.sqrt(mass[:-1] * mass[1:])
    tol = 1e-8 * np.max(np.abs(d[1:-1]))
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, 1, n_modes, tol, "B")
    if info == 0:
        v, info = dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise ConvergenceFailure(f"tridiagonal eigensolver failed at resolution {resolution} "
                                 f"(LAPACK info {info})")
    tv = d[:, None] * v
    tv[:-1] += e[:, None] * v[1:]
    tv[1:] += e[:, None] * v[:-1]
    theta, q = np.linalg.eigh(v.T @ tv)
    phi = np.zeros((n_modes, resolution + 1))
    phi[:, lo:hi + 1] = ((v @ q) / np.sqrt(mass)[:, None]).T
    return theta, phi


def solve_spectrum(problem: SLProblem, n_modes: int) -> Spectrum:
    """First ``n_modes`` eigenpairs with two-grid Richardson extrapolation,
    certified by :func:`check_hypothesis_H` from ``HYPOTHESIS_MIN_MODES`` modes up.

    Raises :class:`ConvergenceFailure` when the grid cannot resolve the
    requested modes, the eigensolver fails or the two-grid eigenvalue estimates
    disagree badly.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    m = problem.resolution
    if n_modes > m // 6:
        raise ConvergenceFailure(
            f"resolution {m} too coarse for {n_modes} modes (need >= {6 * n_modes})")
    h = problem.spacing
    rn = problem.r(problem.grid)

    w1, phi1 = _solve_raw_spectrum(problem, m, n_modes)
    w2, phi2_fine = _solve_raw_spectrum(problem, 2 * m, n_modes)

    lam = (4.0 * w2 - w1) / 3.0
    disagreement = np.abs(w2 - w1) / np.maximum(np.abs(lam), 1.0)
    if np.any(disagreement > 0.05):
        n_bad = int(np.argmax(disagreement > 0.05)) + 1
        raise ConvergenceFailure(
            f"two-grid eigenvalue estimates disagree at mode {n_bad} "
            f"(relative gap {disagreement.max():.2e})")

    rn_fine = problem.r(np.linspace(0.0, 1.0, 2 * m + 1))
    phi1 /= simpson_norms(phi1, h, rn)[:, None]
    phi2_fine /= simpson_norms(phi2_fine, h / 2.0, rn_fine)[:, None]
    align = np.sign(np.sum(phi1 * phi2_fine[:, ::2], axis=-1))
    align[align == 0.0] = 1.0
    phi2_fine *= align[:, None]
    phi = (4.0 * phi2_fine[:, ::2] - phi1) / 3.0
    phi /= simpson_norms(phi, h, rn)[:, None]

    # boundary derivatives converge one order slower when extracted from the
    # extrapolated vector; extrapolating the stencil values of the two raw
    # solves keeps them at fourth order
    d0_coarse = np.array([derivative_at_left(row, h) for row in phi1])
    d0_fine = np.array([derivative_at_left(row, h / 2.0) for row in phi2_fine])
    d0 = (4.0 * d0_fine - d0_coarse) / 3.0
    v0 = phi[:, 0]
    scale = np.max(np.abs(phi), axis=-1)
    sign = np.where(np.abs(v0) > 1e-9 * scale, np.sign(v0), np.sign(d0))
    sign[sign == 0.0] = 1.0
    phi *= sign[:, None]
    d0 *= sign

    order = np.argsort(lam)
    spectrum = Spectrum(lam[order], phi[order], d0[order], problem.grid.copy())
    report = check_hypothesis_H(spectrum, problem) if n_modes >= HYPOTHESIS_MIN_MODES else None
    return replace(spectrum, hypothesis=report)


def _tail_constant_coefficients(problem: SLProblem, n_from: int) -> float:
    """Upper bound on sum_{n > n_from} max|phi_n| / lambda_n for constant p,q,r.

    Uses lambda_n >= (q + D pi^2 (n - s)^2)/r0 with s = 1/2 for a Dirichlet
    inlet (the sine family) and s = 1 in general, plus the uniform sup bound
    on normalized sine-type eigenfunctions.
    """
    d_coef = problem.p.value
    q0 = problem.q.value
    r0 = problem.r.value
    shift = 0.5 if problem.b2 == 0.0 else 1.0
    sup_phi = _SINE_SUP_BOUND / math.sqrt(r0)
    c = d_coef * math.pi ** 2

    n_direct = 2000
    ns = np.arange(n_from + 1, n_from + n_direct + 1, dtype=float)
    denom = q0 + c * (ns - shift) ** 2
    if np.any(denom <= 0.0):
        return math.inf
    total = float(np.sum(1.0 / denom))
    a = n_from + n_direct + 0.5 - shift   # integral comparison from here on
    if q0 > 0.0:
        total += (math.pi / 2.0 - math.atan(a * math.sqrt(c / q0))) / math.sqrt(q0 * c)
    elif q0 == 0.0:
        total += 1.0 / (c * a)
    else:
        mu = math.sqrt(-q0)
        sc = math.sqrt(c)
        if sc * a <= mu:
            return math.inf
        total += math.log((sc * a + mu) / (sc * a - mu)) / (2.0 * mu * sc)
    return sup_phi * r0 * total


def check_hypothesis_H(spectrum: Spectrum, problem: SLProblem) -> HypothesisReport:
    """Certify positivity of lambda_1 and summability of lambda_n^{-1} sup|phi_n|.

    The tail beyond the computed modes is bounded analytically for
    constant-coefficient problems (method "transport-bound").  No bound is
    known for variable coefficients or for lambda_1 <= 0: the report then has
    ``tail_bound = inf``, ``certified = False`` and method "none".
    """
    if spectrum.n_modes < HYPOTHESIS_MIN_MODES:
        raise ValueError(f"hypothesis check needs at least {HYPOTHESIS_MIN_MODES} computed modes")
    lam = spectrum.eigenvalues
    lambda1 = float(lam[0])
    positive = lambda1 > 0.0
    sup_phi = np.max(np.abs(spectrum.eigenfunctions), axis=-1)
    pos = lam > 0.0
    partial = float(np.sum(sup_phi[pos] / lam[pos]))

    if not (positive and problem.has_constant_coefficients):
        return HypothesisReport(lambda1, positive, partial, math.inf, False, "none")
    tail = _tail_constant_coefficients(problem, spectrum.n_modes)
    return HypothesisReport(lambda1, True, partial, tail, math.isfinite(tail), "transport-bound")


def _on_grid(problem: SLProblem, active: np.ndarray, datum, lo: int) -> np.ndarray:
    """Rows on the active nodes lo..hi of ``_assemble``, embedded on the full grid: a
    Dirichlet inlet node (lo = 1) holds datum/b1, a Dirichlet exit node holds 0."""
    full = np.zeros(active.shape[:-1] + (problem.resolution + 1,))
    full[..., lo:lo + active.shape[-1]] = active
    if lo:
        full[..., 0] = datum / problem.b1
    return full


def solve_steady_bvp(problem: SLProblem, boundary_value: float) -> GridFunction:
    """Solve ``(p x')' - q x = 0`` with inlet datum and homogeneous exit.

    Inlet: ``b1 x(0) + b2 x'(0) = boundary_value``; exit:
    ``a1 x(1) + a2 x'(1) = 0``.  Unique solvability needs 0 outside the
    spectrum (guaranteed by a certified hypothesis, lambda_1 > 0).
    Raises :class:`SingularBVP` when the discrete system is near-singular and
    ValueError when a datum overflows the inlet row.
    """
    diag, off, _, inlet, lo, _ = _assemble(problem, problem.resolution)
    rhs = np.zeros(diag.size)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs[0] = inlet * boundary_value
    if not math.isfinite(rhs[0]):
        raise ValueError(f"steady BVP system is not finite for datum {boundary_value:g}")
    *_, x_active, info = dgtsv(off, diag, off, rhs)
    if info > 0:
        raise SingularBVP("steady BVP matrix is singular")
    scale = max(abs(boundary_value), 1e-30)
    if not np.all(np.isfinite(x_active)) or np.max(np.abs(x_active)) > 1e10 * scale:
        raise SingularBVP("steady BVP is near-singular (an eigenvalue is close to 0)")

    return GridFunction(problem.grid, _on_grid(problem, x_active, boundary_value, lo))


def steady_bvp_residual(problem: SLProblem, x: GridFunction, boundary_value: float) -> float:
    """Relative residual of the discrete two-point BVP equations."""
    diag, off, _, inlet, lo, hi = _assemble(problem, x.resolution)
    v = x.values[lo:hi + 1]
    res = diag * v
    res[:-1] += off * v[1:]
    res[1:] += off * v[:-1]
    res[0] -= inlet * boundary_value
    scale = max(abs(inlet * boundary_value), np.max(np.abs(diag * v)), 1e-30)
    return float(np.max(np.abs(res)) / scale)


def weighted_norm(f: GridFunction, problem: SLProblem) -> float:
    """||f||_r by composite Simpson quadrature on the problem grid."""
    require_same_grid(f, problem.grid)
    return float(simpson_norms(f.values, f.spacing, problem.r(f.grid)))


def fourier_coefficients(f: GridFunction, spectrum: Spectrum, problem: SLProblem) -> np.ndarray:
    """Coefficients <phi_n, f>_r for all computed modes, by Simpson quadrature."""
    require_same_grid(f, problem.grid)
    require_same_grid(f, spectrum.grid)
    w = simpson_weights(f.values.size)
    weighted = w * problem.r(f.grid) * f.values
    return f.spacing * spectrum.eigenfunctions @ weighted
