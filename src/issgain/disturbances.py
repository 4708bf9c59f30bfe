"""Boundary disturbance signals d(t) with two derivatives.

Classical solutions need d twice continuously differentiable, so every kind
carries evaluators for d, d' and d''.  Tabulated signals are cubic-spline
interpolants and only piecewise C2; constructing one emits a
:class:`SmoothnessWarning`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SmoothnessWarning


@dataclass(frozen=True, eq=False)
class DisturbanceSignal:
    kind: str                      # constant | sinusoid | smoothed_step | tabulated
    amplitude: float = 0.0
    frequency: float = 0.0         # angular frequency of the sinusoid
    phase: float = 0.0
    offset: float = 0.0
    ramp_time: float = 1.0
    _spline: object = field(default=None, repr=False)

    @classmethod
    def constant(cls, amplitude: float) -> "DisturbanceSignal":
        return cls("constant", amplitude=float(amplitude))

    @classmethod
    def sinusoid(cls, amplitude: float, omega: float, phase: float = 0.0,
                 offset: float = 0.0) -> "DisturbanceSignal":
        return cls("sinusoid", amplitude=float(amplitude), frequency=float(omega),
                   phase=float(phase), offset=float(offset))

    @classmethod
    def smoothed_step(cls, amplitude: float, ramp_time: float) -> "DisturbanceSignal":
        if ramp_time <= 0:
            raise ValueError("ramp_time must be positive")
        return cls("smoothed_step", amplitude=float(amplitude), ramp_time=float(ramp_time))

    @classmethod
    def tabulated(cls, times, values) -> "DisturbanceSignal":
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        warnings.warn("tabulated disturbances are only piecewise C2",
                      SmoothnessWarning, stacklevel=2)
        # imported here, not at the top: it adds ~250 ms to every start-up
        from scipy.interpolate import CubicSpline
        return cls("tabulated", _spline=CubicSpline(times, values))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.full_like(t, self.amplitude, dtype=float)
        if self.kind == "sinusoid":
            return self.offset + self.amplitude * np.sin(self.frequency * t + self.phase)
        if self.kind == "smoothed_step":
            u = np.clip(t / self.ramp_time, 0.0, 1.0)
            return self.amplitude * u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
        return self._spline(t)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t, dtype=float)
        if self.kind == "sinusoid":
            return self.amplitude * self.frequency * np.cos(self.frequency * t + self.phase)
        if self.kind == "smoothed_step":
            u = np.clip(t / self.ramp_time, 0.0, 1.0)
            return self.amplitude * 30.0 * u * u * (1.0 - u) ** 2 / self.ramp_time
        return self._spline(t, 1)

    def second_derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t, dtype=float)
        if self.kind == "sinusoid":
            return -self.amplitude * self.frequency ** 2 * np.sin(self.frequency * t + self.phase)
        if self.kind == "smoothed_step":
            u = np.clip(t / self.ramp_time, 0.0, 1.0)
            return self.amplitude * 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u) / self.ramp_time ** 2
        return self._spline(t, 2)

    def exp_convolution(self, lam: float | np.ndarray, t0: float,
                        t1: float) -> float | np.ndarray:
        """integral_{t0}^{t1} e^{-lam (t1 - s)} d(s) ds.

        ``lam`` is a scalar (the result is a float) or an array of decay
        rates, one per mode (the result is an array of the same shape).
        Closed form for constant and sinusoid kinds (this is what makes the
        exponential integrator exact for them); composite quadratic-in-s
        exponential moments otherwise, with d sampled once for all modes.
        """
        lam_arr = np.asarray(lam, dtype=float)
        if self.kind == "constant":
            out = self.amplitude * _j_moments(lam_arr, t1 - t0, 0)[0]
        elif self.kind == "sinusoid":
            om, ph = self.frequency, self.phase
            j0 = _j_moments(lam_arr, t1 - t0, 0)[0]
            if om == 0.0:
                out = self.offset * j0 + self.amplitude * math.sin(ph) * j0
            else:
                den = lam_arr * lam_arr + om * om
                def antider(s, w):  # e^{-lam (t1-s)} (lam sin - om cos)(om s + ph)/den
                    return w * (lam_arr * math.sin(om * s + ph) - om * math.cos(om * s + ph)) / den
                out = self.offset * j0 + self.amplitude * (
                    antider(t1, 1.0) - antider(t0, np.exp(-lam_arr * (t1 - t0))))
        else:
            out = _quadratic_exp_quadrature(self.value, lam_arr, t0, t1)
        return float(out) if lam_arr.ndim == 0 else out

    def exp_convolution_derivative(self, lam: float | np.ndarray, t0: float,
                                   t1: float) -> float | np.ndarray:
        """integral_{t0}^{t1} e^{-lam (t1 - s)} d'(s) ds, for scalar or array
        ``lam`` as in :meth:`exp_convolution`."""
        lam_arr = np.asarray(lam, dtype=float)
        if self.kind == "constant":
            out = np.zeros_like(lam_arr)
        elif self.kind == "sinusoid":
            om, ph = self.frequency, self.phase
            shifted = DisturbanceSignal.sinusoid(self.amplitude * om, om, ph + math.pi / 2.0)
            out = shifted.exp_convolution(lam_arr, t0, t1)
        else:
            out = _quadratic_exp_quadrature(self.derivative, lam_arr, t0, t1)
        return float(out) if lam_arr.ndim == 0 else out


# From |lam delta| = 1 up, the recurrence J_k = (delta^k - k J_{k-1}) / lam
# is good to a few ulp; below, it cancels like (lam delta)^-k, so the moments
# come from their power series there.
_SERIES_LIMIT = 1.0
# k!/(k+m+1)! for k = 0..2 and m = 0..19: at |lam delta| < 1 the first
# dropped term is below 1/21! < 1e-19 of the leading one.
_SERIES_COEFS = np.array([[math.factorial(k) / math.factorial(k + m + 1) for m in range(20)]
                          for k in range(3)])


def _j_moments(lam, delta, kmax: int) -> np.ndarray:
    """J_k = integral_0^delta e^{-lam (delta - s)} s^k ds for k = 0..kmax <= 2.

    ``lam`` and ``delta`` broadcast against each other; the result has shape
    ``(kmax + 1,) + broadcast shape``.  For |lam delta| < 1 every moment is
    summed from J_k = delta^{k+1} sum_m (-lam delta)^m k!/(k+m+1)!, which is
    exact at lam = 0.
    """
    lam, delta = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                     np.asarray(delta, dtype=float))
    shape = lam.shape
    lam, delta = lam.ravel(), delta.ravel()
    x = lam * delta
    j = np.empty((kmax + 1, x.size))
    small = np.abs(x) < _SERIES_LIMIT
    if np.any(small):
        xs = x[small]
        acc = np.zeros((kmax + 1, xs.size))
        for coef in _SERIES_COEFS[:kmax + 1, ::-1].T:   # Horner in -x
            acc = acc * -xs + coef[:, None]
        j[:, small] = delta[small] ** np.arange(1.0, kmax + 2.0)[:, None] * acc
    large = ~small
    if np.any(large):
        xl, ll, dl = x[large], lam[large], delta[large]
        jk = -np.expm1(-xl) / ll
        j[0, large] = jk
        for k in range(1, kmax + 1):
            jk = (dl ** k - k * jk) / ll
            j[k, large] = jk
    return j.reshape((kmax + 1,) + shape)


def _quadratic_exp_quadrature(fn, lam, t0: float, t1: float,
                              n_sub: int | None = None):
    """Exponential-weighted quadrature: fn interpolated by parabolas per
    substep, the kernel e^{-lam (t1-s)} integrated exactly (stable for stiff
    lam where plain quadrature underflows).

    ``fn`` maps an array of times to samples with time on the first axis; a
    second axis, if any, runs over modes alongside ``lam``.  fn is called
    once, at the substep edges and midpoints, and every mode then runs the
    substep recurrence total = total e^{-lam delta} + piece.  Returns an array
    shaped like ``lam``.
    """
    lam = np.asarray(lam, dtype=float)
    if n_sub is None:
        n_sub = max(16, min(256, math.ceil(64.0 * (t1 - t0))))
    edges = np.linspace(t0, t1, n_sub + 1)
    times = np.empty(2 * n_sub + 1)
    times[0::2] = edges
    times[1::2] = 0.5 * (edges[:-1] + edges[1:])
    f = np.asarray(fn(times), dtype=float).reshape(times.size, -1)
    f0, fm, f1 = f[0:-1:2], f[1::2], f[2::2]
    delta = np.diff(edges)[:, None]
    rates = lam.reshape(1, -1)
    # parabola f(a + s) = c0 + c1 s + c2 s^2 on s in [0, delta], per substep
    c0 = f0
    c1 = (-3.0 * f0 + 4.0 * fm - f1) / delta
    c2 = 2.0 * (f0 - 2.0 * fm + f1) / delta ** 2
    j0, j1, j2 = _j_moments(rates, delta, 2)
    pieces = c0 * j0 + c1 * j1 + c2 * j2
    decays = np.exp(-rates * delta)
    total = pieces[0]
    for i in range(1, n_sub):
        total = total * decays[i] + pieces[i]
    return total.reshape(lam.shape)
