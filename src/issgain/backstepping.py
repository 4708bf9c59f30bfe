"""Volterra backstepping for the reaction-diffusion plant actuated at z = 0.

Transform pair

    x(t,z) = y(t,z) + integral_z^1 k(z,s) y(t,s) ds
    y(t,z) = x(t,z) + integral_z^1 l(z,s) x(t,s) ds

mapping the plant y_t = D y_zz + p y (y(0) = u, y(1) = 0) to the target
x_t = D x_zz - c x with Dirichlet ends.  Eliminating boundary terms gives
the kernel conditions

    k_zz - k_ss = lam k,   k(z,1) = 0,   k(z,z) = lam (1-z)/2,

with lam = (p+c)/D; the inverse kernel solves the same problem with
lam -> -lam.  In characteristic variables xi = (1-z)+(1-s),
eta = (1-z)-(1-s) this is the fixed point

    G(xi,eta) = lam (xi-eta)/4
                + lam/4 integral_eta^xi integral_0^eta G(tau,sigma) dsigma dtau,

iterated to convergence (the series converges for every lam like a Bessel
series).  The constant-coefficient closed form
lam (1-s) I1(xi)/xi, xi = sqrt(lam ((1-z)^2 - (1-s)^2)), is kept purely as
a test oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import i1 as bessel_i1, j1 as bessel_j1

from .disturbances import DisturbanceSignal
from .errors import (
    FixedPointDivergence,
    GridMismatch,
    IncompatibleInitialCondition,
)
from .gains import backstepping_gain
from .grids import (
    GridFunction,
    cumulative_integral_o4,
    require_same_grid,
    simpson_weights,
    tail_quadrature_matrix,
    uniform_grid,
)
from .pde_sim import IssEnvelope, Trajectory, _running_max_signal, _store_indices


@dataclass(frozen=True, eq=False)
class Kernel:
    """Triangle samples k(z,s), 0 <= z <= s <= 1, with the L2 triangle norm."""

    grid: np.ndarray
    values: np.ndarray            # (M+1, M+1), zero below the diagonal
    norm: float                   # sqrt(int_0^1 int_z^1 k^2 ds dz)
    lam_bar: float
    direction: str                # "forward" | "inverse"

    @property
    def resolution(self) -> int:
        return self.grid.size - 1


@dataclass(frozen=True)
class ClosedLoopConfig:
    """Plant y_t = D y_zz + p y under boundary feedback toward target rate c."""

    D: float
    p: float
    c: float
    d: DisturbanceSignal | None = None

    def __post_init__(self):
        if self.D <= 0:
            raise ValueError("D must be positive")
        if self.c < 0:
            raise ValueError("target coefficient c must be nonnegative")

    @property
    def lam_bar(self) -> float:
        return (self.p + self.c) / self.D


def _kernel_fixed_point(lam: float, resolution: int) -> np.ndarray:
    """Solve the characteristic-variable fixed point on [0,2] x [0,1]."""
    m = resolution
    h = 1.0 / m
    xi = np.linspace(0.0, 2.0, 2 * m + 1)[:, None]
    eta = np.linspace(0.0, 1.0, m + 1)[None, :]
    base = lam * (xi - eta) / 4.0
    g = base.copy()
    diag_idx = np.arange(m + 1)
    for iteration in range(200):
        inner = cumulative_integral_o4(g, h, axis=1)
        c_full = cumulative_integral_o4(inner, h, axis=0)
        correction = lam / 4.0 * (c_full - c_full[diag_idx, diag_idx][None, :])
        g_new = base + correction
        delta = np.max(np.abs(g_new - g))
        g = g_new
        if delta <= 1e-10 * max(1.0, float(np.max(np.abs(g)))):
            return g
    raise FixedPointDivergence(
        f"kernel iteration did not reach tolerance in 200 sweeps (delta={delta:.2e}); "
        "resolution too coarse")


def _triangle_from_characteristic(g: np.ndarray, resolution: int) -> np.ndarray:
    """Map G(xi, eta) back to k(z, s) on the triangle z <= s."""
    m = resolution
    k = np.zeros((m + 1, m + 1))
    i = np.arange(m + 1)[:, None]
    j = np.arange(m + 1)[None, :]
    mask = j >= i
    k[mask] = g[(2 * m - i - j)[mask], (j - i)[mask]]
    return k


def _triangle_norm(values: np.ndarray, resolution: int) -> float:
    w_tail = tail_quadrature_matrix(resolution)
    inner = np.sum(w_tail * values * values, axis=1)
    w_z = simpson_weights(resolution + 1) / resolution
    return math.sqrt(max(float(w_z @ inner), 0.0))


def _solve_kernel_signed(lam: float, resolution: int, direction: str) -> Kernel:
    if resolution < 32:
        raise ValueError("kernel resolution must be >= 32")
    if resolution % 2:
        raise ValueError("kernel resolution must be even")
    if lam == 0.0:
        values = np.zeros((resolution + 1, resolution + 1))
    else:
        g = _kernel_fixed_point(lam, resolution)
        values = _triangle_from_characteristic(g, resolution)
    return Kernel(uniform_grid(resolution), values,
                  _triangle_norm(values, resolution), lam, direction)


def solve_kernel(cfg: ClosedLoopConfig, resolution: int = 256) -> Kernel:
    """Forward kernel of the stabilizing transform, by successive approximation."""
    return _solve_kernel_signed(cfg.lam_bar, resolution, "forward")


def solve_inverse_kernel(cfg: ClosedLoopConfig, resolution: int = 256) -> Kernel:
    """Inverse kernel: same fixed point with the opposite sign of lam."""
    return _solve_kernel_signed(-cfg.lam_bar, resolution, "inverse")


def bessel_kernel(lam: float, resolution: int = 256, direction: str = "forward") -> Kernel:
    """Closed-form constant-coefficient kernel (test oracle only).

    k(z,s) = lam (1-s) f(xi)/xi with xi = sqrt(|lam| ((1-z)^2 - (1-s)^2)) and
    f = I1 for lam > 0, J1 for lam < 0.
    """
    grid = uniform_grid(resolution)
    z = grid[:, None]
    s = grid[None, :]
    arg2 = np.maximum((1.0 - z) ** 2 - (1.0 - s) ** 2, 0.0)
    xi = np.sqrt(abs(lam) * arg2)
    ratio = np.full_like(xi, 0.5)
    big = xi > 1e-8
    if lam >= 0:
        ratio[big] = bessel_i1(xi[big]) / xi[big]
    else:
        ratio[big] = bessel_j1(xi[big]) / xi[big]
    values = lam * (1.0 - s) * ratio
    values[np.arange(resolution + 1)[:, None] > np.arange(resolution + 1)[None, :]] = 0.0
    return Kernel(grid, values, _triangle_norm(values, resolution), lam, direction)


def apply_transform(kernel: Kernel, f: GridFunction) -> GridFunction:
    """f(z) + integral_z^1 kernel(z,s) f(s) ds, fourth-order quadrature rows."""
    require_same_grid(f, kernel.grid)
    w_tail = tail_quadrature_matrix(kernel.resolution)
    return GridFunction(f.grid, f.values + (w_tail * kernel.values) @ f.values)


def feedback_control(kernel: Kernel, y_state: GridFunction, d_value: float = 0.0) -> float:
    """u = d - integral_0^1 k(0,s) y(s) ds."""
    require_same_grid(y_state, kernel.grid)
    w_tail = tail_quadrature_matrix(kernel.resolution)
    return float(d_value - (w_tail[0] * kernel.values[0]) @ y_state.values)


def reciprocity_residual(forward: Kernel, inverse: Kernel, stride: int = 8) -> float:
    """max over a triangle subsample of |l + k + int_z^s k(z,t) l(t,s) dt|.

    This is the operator identity K + L + K L = 0 satisfied by the kernels of
    mutually inverse plus-sign Volterra transforms.
    """
    if forward.resolution != inverse.resolution:
        raise GridMismatch("kernels live on different grids")
    m = forward.resolution
    h = 1.0 / m
    worst = 0.0
    idx = range(0, m + 1, stride)
    for j in idx:
        col = inverse.values[:, j]
        for i in idx:
            if i > j:
                continue
            seg = forward.values[i, i:j + 1] * col[i:j + 1]
            integral = _segment_integral(seg, h)
            res = inverse.values[i, j] + forward.values[i, j] + integral
            worst = max(worst, abs(res))
    return worst


def _segment_integral(seg: np.ndarray, h: float) -> float:
    n = seg.size - 1
    if n <= 0:
        return 0.0
    if n == 1:
        return 0.5 * h * (seg[0] + seg[1])
    if n % 2 == 0:
        return h * float(simpson_weights(n + 1) @ seg)
    head = h * 3.0 / 8.0 * float(seg[0] + 3.0 * seg[1] + 3.0 * seg[2] + seg[3])
    if n == 3:
        return head
    return head + h * float(simpson_weights(n - 2) @ seg[3:])


@dataclass(frozen=True, eq=False)
class ClosedLoopResult:
    y: Trajectory                 # plant trajectory, states carry y(t,0) = u(t)
    x: Trajectory                 # transformed trajectory (target variables)
    control: np.ndarray           # u at stored times
    kernel: Kernel
    inverse_kernel: Kernel


def simulate_closed_loop(cfg: ClosedLoopConfig, y0: GridFunction, dt: float, T: float,
                         kernel: Kernel | None = None,
                         inverse_kernel: Kernel | None = None,
                         n_store: int = 160) -> ClosedLoopResult:
    """Crank-Nicolson closed loop with the feedback folded in implicitly.

    The inlet value u^{m+1} = d^{m+1} - integral k(0,s) y^{m+1} couples all
    unknowns through one dense row; the coupled step is solved exactly with
    a rank-one (Sherman-Morrison) correction of the tridiagonal solve.
    """
    if cfg.d is None:
        raise ValueError("config carries no actuator-error signal d")
    d = cfg.d
    m = y0.resolution
    if kernel is None:
        kernel = solve_kernel(cfg, m)
    if inverse_kernel is None:
        inverse_kernel = solve_inverse_kernel(cfg, m)
    require_same_grid(y0, kernel.grid)
    h = 1.0 / m

    w_feedback = tail_quadrature_matrix(m)[0] * kernel.values[0]
    d0 = float(d.value(np.asarray(0.0)))
    u0 = d0 - float(w_feedback @ y0.values)
    scale = max(float(np.max(np.abs(y0.values))), abs(d0), 1.0)
    if abs(float(y0.values[-1])) > 1e-9 * scale:
        raise IncompatibleInitialCondition("y0(1) must vanish")
    if abs(float(y0.values[0]) - u0) > 1e-6 * scale:
        raise IncompatibleInitialCondition(
            f"y0(0) = {y0.values[0]:.6g} but the feedback gives u(0) = {u0:.6g}")

    n_steps = max(1, math.ceil(T / dt))
    dt = T / n_steps
    n_int = m - 1
    rho = cfg.D / (h * h)
    a_diag = np.full(n_int, -2.0 * rho + cfg.p)
    a_off = np.full(n_int - 1, rho)
    ab = np.zeros((3, n_int))
    ab[0, 1:] = -0.5 * dt * a_off
    ab[1, :] = 1.0 - 0.5 * dt * a_diag
    ab[2, :-1] = -0.5 * dt * a_off

    w0 = float(w_feedback[0])
    w_int = w_feedback[1:-1] / (1.0 + w0)
    e1 = np.zeros(n_int)
    e1[0] = 1.0
    x2 = solve_banded((1, 1), ab, e1)
    sm_denom = 1.0 + 0.5 * dt * rho * float(w_int @ x2)

    times_all = dt * np.arange(n_steps + 1)
    d_all = np.asarray(d.value(times_all))
    store_at = set(_store_indices(n_steps, n_store))

    w_simp = simpson_weights(m + 1)
    grid = kernel.grid

    def apply_a(v):
        out = a_diag * v
        out[:-1] += a_off * v[1:]
        out[1:] += a_off * v[:-1]
        return out

    y_int = y0.values[1:-1].copy()
    u = u0
    states, norms, times, dvals, uvals = [], [], [], [], []

    def record(step, y_interior, u_val):
        full = np.concatenate(([u_val], y_interior, [0.0]))
        states.append(GridFunction(grid, full))
        norms.append(math.sqrt(max(np.sum(w_simp * full * full) * h, 0.0)))
        times.append(times_all[step])
        dvals.append(d_all[step])
        uvals.append(u_val)

    if 0 in store_at:
        record(0, y_int, u)
    for step in range(n_steps):
        d_next = d_all[step + 1] / (1.0 + w0)
        rhs = y_int + 0.5 * dt * apply_a(y_int)
        rhs[0] += 0.5 * dt * rho * (u + d_next)
        x1 = solve_banded((1, 1), ab, rhs)
        y_int = x1 - (0.5 * dt * rho * float(w_int @ x1) / sm_denom) * x2
        u = d_next - float(w_int @ y_int)
        if step + 1 in store_at:
            record(step + 1, y_int, u)

    times = np.array(times)
    run_max = _running_max_signal(d, times)
    y_traj = Trajectory(times, states, np.array(norms), d, np.array(dvals),
                        run_max, "closed-loop-cn", dt, h,
                        extras={"control": np.array(uvals)})

    x_states, x_norms = [], np.empty(times.size)
    for i, st in enumerate(states):
        xf = apply_transform(kernel, st)
        x_states.append(xf)
        x_norms[i] = math.sqrt(max(np.sum(w_simp * xf.values ** 2) * h, 0.0))
    x_traj = Trajectory(times, x_states, x_norms, d, np.array(dvals),
                        run_max, "closed-loop-transformed", dt, h)
    return ClosedLoopResult(y_traj, x_traj, np.array(uvals), kernel, inverse_kernel)


def closed_loop_bound(cfg: ClosedLoopConfig, kernel_norm: float,
                      inverse_norm: float, N: int = 10_000) -> IssEnvelope:
    """Envelope of the closed loop: overshoot (1+||l||)(1+||k||) sqrt(1+eps),
    decay c + D pi^2, gain (1+||l||) sqrt(1+1/eps) G."""
    g = backstepping_gain(cfg.c, cfg.D, N).gain_C
    return IssEnvelope(decay_rate=cfg.c + cfg.D * math.pi ** 2,
                       gain_base=(1.0 + inverse_norm) * g,
                       overshoot_base=(1.0 + inverse_norm) * (1.0 + kernel_norm))
