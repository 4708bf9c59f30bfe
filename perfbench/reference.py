"""References the benchmark checks the program's outputs against.

Everything here is derived from the equations, not from issgain:

* the transport tube in its constant-coefficient form, D x_zz - D zeta^2 x = x_t
  on [0, 1], inlet x(t, 0) = d(t), exit a x(t, 1) + x_z(t, 1) = 0 (Dirichlet
  x(t, 1) = 0 for a = inf).  The backstepping target x_t = D x_zz - c x is the
  same problem with a = inf and zeta^2 = c / D;
* eigenvalues D (zeta^2 + omega_n^2), where omega_n is the n-th positive root of
  a sin(w) + w cos(w) = 0, found here by bisection in ((n - 1/2) pi, n pi);
* the response to an inlet A e^{i w t} is A X(z) e^{i w t} with
  D X'' - (D zeta^2 + i w) X = 0, X(0) = 1 and the exit condition, so
  X = c1 e^{kz} + c2 e^{-kz}, k = sqrt(zeta^2 + i w / D), with (c1, c2) from
  a 2x2 boundary solve done here by Cramer's rule;
* transients are expanded in the normalised eigenfunctions sin(omega_n z) and
  projected with composite Gauss-Legendre quadrature.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import j1

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def gauss_nodes(panels: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre nodes and weights on [0, 1]."""
    h = 1.0 / panels
    left = h * np.arange(panels)[:, None]
    nodes = (left + 0.5 * h * (_GL_X[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * _GL_W, panels)
    return nodes, weights


def exit_root(n: int, a: float) -> float:
    """n-th positive root omega of a sin(w) + w cos(w) = 0 (sin(w) = 0 for a = inf)."""
    if math.isinf(a):
        return n * math.pi
    lo, hi = (n - 0.5) * math.pi, n * math.pi
    if a == 0.0:
        return lo

    def f(w):
        return a * math.sin(w) + w * math.cos(w)

    f_lo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = f(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eigenvalues(zeta: float, a: float, n_modes: int, D: float = 1.0) -> np.ndarray:
    return np.array([D * (zeta ** 2 + exit_root(n, a) ** 2) for n in range(1, n_modes + 1)])


def boundary_coefficients(kappa: complex, a: float) -> tuple[complex, complex]:
    """(c1, c2) with c1 + c2 = 1 and the exit condition on c1 e^{kz} + c2 e^{-kz}."""
    ep, em = cmath.exp(kappa), cmath.exp(-kappa)
    if math.isinf(a):
        row = (ep, em)
    else:
        row = ((a + kappa) * ep, (a - kappa) * em)
    det = row[1] - row[0]          # | 1 1 ; row0 row1 |
    return row[1] / det, -row[0] / det


def steady_gain(zeta: float, a: float) -> float:
    """|| c1 e^{zeta z} + c2 e^{-zeta z} ||_{L2(0,1)} for the unit inlet datum."""
    c1, c2 = (v.real for v in boundary_coefficients(complex(zeta), a))

    def mean_exp(s):               # integral_0^1 e^{s z} dz
        return math.expm1(s) / s

    return math.sqrt(c1 * c1 * mean_exp(2.0 * zeta) + c2 * c2 * mean_exp(-2.0 * zeta)
                     + 2.0 * c1 * c2)


class TubeSolution:
    """Exact solution of the tube with inlet A sin(w t) (w > 0) or A (w = 0).

    ``x0`` is the initial state as a callable of z; it must match the inlet
    datum at t = 0.  The state at time t is the periodic (or steady) response
    plus the modal transient sum_n b_n e^{-lambda_n t} phi_n(z).
    """

    def __init__(self, zeta: float, a: float, D: float, amplitude: float, omega: float,
                 x0, n_modes: int = 64, panels: int = 64):
        self.amplitude, self.omega = amplitude, omega
        self.nodes, self.weights = gauss_nodes(panels)
        z = self.nodes
        kappa = cmath.sqrt(zeta * zeta + 1j * omega / D)
        c1, c2 = boundary_coefficients(kappa, a)
        self.profile = c1 * np.exp(kappa * z) + c2 * np.exp(-kappa * z)
        roots = np.array([exit_root(n, a) for n in range(1, n_modes + 1)])
        self.lam = D * (zeta * zeta + roots * roots)
        scale = np.sqrt(2.0 / (1.0 - np.sin(2.0 * roots) / (2.0 * roots)))
        self.modes = scale[:, None] * np.sin(roots[:, None] * z[None, :])
        self.x0 = np.asarray(x0(z), dtype=float)
        self.coeffs = self.modes @ (self.weights * (self.x0 - self.forced(0.0)))

    def forced(self, t: float) -> np.ndarray:
        if self.omega == 0.0:
            return self.amplitude * self.profile.real
        return self.amplitude * (self.profile * cmath.exp(1j * self.omega * t)).imag

    def state(self, t: float) -> np.ndarray:
        """x(t, z) at the quadrature nodes."""
        if t == 0.0:
            return self.x0
        decay = np.exp(-self.lam * t)
        return self.forced(t) + (self.coeffs * decay) @ self.modes

    def norm(self, t: float) -> float:
        x = self.state(t)
        return math.sqrt(float(self.weights @ (x * x)))


def lift_cubic(a: float):
    """Minimum-norm cubic g with g(0) = 1 and the exit condition (``--x0 lift``).

    g = 1 + c1 z^2 + c2 z^3 with (c1, c2) the least-norm solution of
    a1 (1 + c1 + c2) + a2 (2 c1 + 3 c2) = 0, where (a1, a2) = (1, 0) for a =
    inf and (a, 1) otherwise.
    """
    a1, a2 = (1.0, 0.0) if math.isinf(a) else (a, 1.0)
    u1, u2 = a1 + 2.0 * a2, a1 + 3.0 * a2
    w = -a1
    c1, c2 = u1 * w / (u1 * u1 + u2 * u2), u2 * w / (u1 * u1 + u2 * u2)
    return lambda z: 1.0 + c1 * z ** 2 + c2 * z ** 3


def inverse_kernel_row(lam_bar: float, s: np.ndarray) -> np.ndarray:
    """l(0, s) = -lam (1 - s) J1(xi) / xi, xi = sqrt(lam s (2 - s)), lam = (p + c) / D."""
    xi = np.sqrt(lam_bar * s * (2.0 - s))
    ratio = np.full_like(xi, 0.5)
    big = xi > 1e-8
    ratio[big] = j1(xi[big]) / xi[big]
    return -lam_bar * (1.0 - s) * ratio
