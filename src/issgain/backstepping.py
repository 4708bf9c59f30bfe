"""Volterra backstepping for the reaction-diffusion plant actuated at z = 0.

Transform pair

    x(t,z) = y(t,z) + integral_z^1 k(z,s) y(t,s) ds
    y(t,z) = x(t,z) + integral_z^1 l(z,s) x(t,s) ds

mapping the plant y_t = D y_zz + p y (y(0) = u, y(1) = 0) to the target
x_t = D x_zz - c x with Dirichlet ends.  Eliminating boundary terms gives
the kernel conditions

    k_zz - k_ss = lam k,   k(z,1) = 0,   k(z,z) = lam (1-z)/2,

with lam = (p+c)/D; the inverse kernel solves the same problem with
lam -> -lam.  The coefficients are constant, so both kernels have the
closed form lam (1-s) I1(xi)/xi, xi = sqrt(lam ((1-z)^2 - (1-s)^2)), with
J1 in place of I1 for lam < 0 (Smyshlyaev & Krstic, IEEE TAC 2004).  The
solvers sample it; the tests check it against the characteristic-variable
fixed point it solves.  Each kernel carries its samples times the tail
quadrature weights, the matrix every transform and feedback evaluation
applies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import i1 as bessel_i1, j1 as bessel_j1

from .config import transport_problem
from .disturbances import DisturbanceSignal
from .errors import InadmissibleCase, IncompatibleInitialCondition, NumericalFailure
from .gains import TransportCase
from .grids import (
    GridFunction,
    require_same_grid,
    simpson_norms,
    simpson_weights,
    tail_quadrature_matrix,
    uniform_grid,
)
from .pde_sim import (DEFAULT_STORE, IssEnvelope, Trajectory, _crank_nicolson, _store_indices,
                      _time_steps)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Triangle samples k(z,s), 0 <= z <= s <= 1, with the L2 triangle norm."""

    grid: np.ndarray
    values: np.ndarray            # (M+1, M+1), zero below the diagonal
    weighted: np.ndarray          # values * tail_quadrature_matrix(M): row i of
                                  # weighted @ f is integral_{z_i}^1 k(z_i,s) f(s) ds
    norm: float                   # sqrt(int_0^1 int_z^1 k^2 ds dz)
    lam_bar: float

    @property
    def resolution(self) -> int:
        return self.grid.size - 1


@dataclass(frozen=True)
class ClosedLoopConfig:
    """Plant y_t = D y_zz + p y under boundary feedback toward target rate c; ``target``
    is the target x_t = D x_zz - c x as the case ``gain --case backstepping`` reads."""

    D: float
    p: float
    c: float
    d: DisturbanceSignal | None = None
    target: TransportCase = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "target", TransportCase.from_target(self.c, self.D))
        if not math.isfinite(self.p):
            raise InadmissibleCase(f"p must be finite, got {self.p}")

    @property
    def lam_bar(self) -> float:
        return (self.p + self.c) / self.D


def solve_kernel(cfg: ClosedLoopConfig, resolution: int = 256) -> Kernel:
    """Forward kernel of the stabilizing transform (closed form at lam_bar)."""
    return bessel_kernel(cfg.lam_bar, resolution)


def solve_inverse_kernel(cfg: ClosedLoopConfig, resolution: int = 256) -> Kernel:
    """Inverse kernel: the same closed form with the opposite sign of lam."""
    return bessel_kernel(-cfg.lam_bar, resolution)


def bessel_kernel(lam: float, resolution: int = 256) -> Kernel:
    """Closed-form constant-coefficient kernel on an even resolution >= 32.

    k(z,s) = lam (1-s) f(xi)/xi with xi = sqrt(|lam| ((1-z)^2 - (1-s)^2)) and
    f = I1 for lam > 0, J1 for lam < 0.  Raises :class:`NumericalFailure`
    when the samples or their norm overflow double precision (I1 does so
    once xi passes about 713, i.e. lam beyond about 5e5).
    """
    if resolution < 32:
        raise ValueError("kernel resolution must be >= 32")
    if resolution % 2:
        raise ValueError("kernel resolution must be even")
    grid = uniform_grid(resolution)
    z = grid[:, None]
    s = grid[None, :]
    arg2 = np.maximum((1.0 - z) ** 2 - (1.0 - s) ** 2, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):     # lam = inf gives inf * 0
        xi = np.sqrt(abs(lam) * arg2)
        ratio = np.full_like(xi, 0.5)
        big = xi > 1e-8
        if lam >= 0:
            ratio[big] = bessel_i1(xi[big]) / xi[big]
        else:
            ratio[big] = bessel_j1(xi[big]) / xi[big]
        values = lam * (1.0 - s) * ratio
        values[np.arange(resolution + 1)[:, None] > np.arange(resolution + 1)[None, :]] = 0.0
        weighted = tail_quadrature_matrix(resolution) * values
        w_z = simpson_weights(resolution + 1) / resolution
        norm = math.sqrt(max(float(w_z @ np.sum(weighted * values, axis=1)), 0.0))
    if not (np.all(np.isfinite(values)) and math.isfinite(norm)):
        raise NumericalFailure(
            f"kernel at lam_bar = {lam:.6g} overflows double precision")
    return Kernel(grid, values, weighted, norm, lam)


def apply_transform(kernel: Kernel, f: GridFunction) -> GridFunction:
    """f(z) + integral_z^1 kernel(z,s) f(s) ds, fourth-order quadrature rows."""
    require_same_grid(f, kernel.grid)
    return GridFunction(f.grid, f.values + kernel.weighted @ f.values)


@dataclass(frozen=True, eq=False)
class ClosedLoopResult:
    y: Trajectory                 # plant trajectory, states carry y(t,0) = u(t)
    x: Trajectory                 # transformed trajectory (target variables)
    kernel: Kernel
    inverse_kernel: Kernel


def simulate_closed_loop(cfg: ClosedLoopConfig, y0: GridFunction, dt: float, T: float,
                         kernel: Kernel | None = None,
                         inverse_kernel: Kernel | None = None,
                         n_store: int = DEFAULT_STORE) -> ClosedLoopResult:
    """Crank-Nicolson closed loop with the feedback folded in implicitly.

    The plant y_t = D y_zz + p y is the transport problem v = 0, k = -p, a = inf
    (resolution >= 64).  The inlet value u = d - integral k(0,s) y ds is the
    open-loop inlet tied to the state by one dense feedback row; solved for u it
    reads u = (d - w @ y)/(1 + w0) over the interior nodes, w = kernel.weighted[0],
    and :func:`issgain.pde_sim._crank_nicolson` steps the plant with the row w/(1 + w0).
    """
    if cfg.d is None:
        raise ValueError("config carries no actuator-error signal d")
    d = cfg.d
    n_steps, dt, times_all = _time_steps(dt, T)
    m = y0.resolution
    if kernel is None:
        kernel = solve_kernel(cfg, m)
    if inverse_kernel is None:
        inverse_kernel = solve_inverse_kernel(cfg, m)
    require_same_grid(y0, kernel.grid)
    h = 1.0 / m

    w_feedback = kernel.weighted[0]
    d0 = float(d.value(np.asarray(0.0)))
    u0 = d0 - float(w_feedback @ y0.values)
    scale = max(float(np.max(np.abs(y0.values))), abs(d0), 1.0)
    if abs(float(y0.values[-1])) > 1e-9 * scale:
        raise IncompatibleInitialCondition("y0(1) must vanish")
    if abs(float(y0.values[0]) - u0) > 1e-6 * scale:
        raise IncompatibleInitialCondition(
            f"y0(0) = {y0.values[0]:.6g} but the feedback gives u(0) = {u0:.6g}")

    plant = transport_problem(cfg.D, 0.0, -cfg.p, math.inf, resolution=m)
    d_all = np.asarray(d.value(times_all))
    store_at = _store_indices(n_steps, n_store)
    w0 = float(w_feedback[0])
    inlet = d_all / (1.0 + w0)
    inlet[0] = u0
    y_rows, uvals = _crank_nicolson(plant, inlet, y0.values, dt, store_at,
                                    feedback=w_feedback / (1.0 + w0))

    times = times_all[store_at]
    d_vals = d_all[store_at]

    def trajectory(rows, method, **fields):
        return Trajectory(times, rows, kernel.grid, simpson_norms(rows, h), d, d_vals, method,
                          dt, **fields)

    y_traj = trajectory(y_rows, "closed-loop-cn", extras={"control": uvals})
    x_traj = trajectory(y_rows + y_rows @ kernel.weighted.T, "closed-loop-transformed")
    return ClosedLoopResult(y_traj, x_traj, kernel, inverse_kernel)


def closed_loop_bound(cfg: ClosedLoopConfig, kernel_norm: float,
                      inverse_norm: float) -> IssEnvelope:
    """The target's closed-form envelope (decay lambda1, gain G) with overshoot
    (1+||l||)(1+||k||) sqrt(1+eps) and gain (1+||l||) sqrt(1+1/eps) G."""
    target = IssEnvelope.from_case(cfg.target)
    return replace(target, gain_base=(1.0 + inverse_norm) * target.gain_base,
                   overshoot_base=(1.0 + inverse_norm) * (1.0 + kernel_norm))
