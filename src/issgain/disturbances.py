"""Boundary disturbance signals d(t) with their first derivative.

Classical solutions need d twice continuously differentiable; every kind
carries evaluators for d and d' and their exponential convolutions.
Tabulated signals are cubic-spline interpolants and only piecewise C2;
constructing one emits a :class:`SmoothnessWarning`.
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
        return self._evaluate(t, 0)

    def derivative(self, t):
        return self._evaluate(t, 1)

    def _evaluate(self, t, order: int):
        """d (order 0) or d' (order 1) at ``t``, shaped like ``t``.  A 0-d ``t``
        goes through the 1-d array path, so that d(t) equals its element of any
        array bit for bit (numpy rounds scalar and array powers differently)."""
        t = np.asarray(t, dtype=float)
        ts = np.atleast_1d(t)
        if self.kind == "constant":
            out = np.full_like(ts, self.amplitude if order == 0 else 0.0)
        elif self.kind == "sinusoid":
            amp, om, arg = self.amplitude, self.frequency, self.frequency * ts + self.phase
            if order == 0:
                out = self.offset + amp * np.sin(arg)
            else:
                out = amp * om * np.cos(arg)
        elif self.kind == "smoothed_step":
            u, amp, ramp = np.clip(ts / self.ramp_time, 0.0, 1.0), self.amplitude, self.ramp_time
            if order == 0:
                out = amp * u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
            else:
                out = amp * 30.0 * u * u * (1.0 - u) ** 2 / ramp
        else:
            out = self._spline(ts, order)
        return out.reshape(t.shape)

    def exp_convolution(self, lam: float | np.ndarray, t0: float | np.ndarray,
                        t1: float | np.ndarray) -> float | np.ndarray:
        """integral_{t0}^{t1} e^{-lam (t1 - s)} d(s) ds.

        ``lam`` is a scalar or an array of decay rates, one per mode.  Scalar
        ``t0, t1`` give a result shaped like ``lam`` (a float for a scalar
        ``lam``); 1-d arrays of n interval ends give ``(n,) + lam.shape``, row
        i the value on [t0[i], t1[i]].  Closed form for constant and sinusoid
        kinds (this is what makes the exponential integrator exact for them);
        composite quadratic-in-s exponential moments otherwise, with d sampled
        once for all modes.
        """
        return self._convolution(lam, t0, t1, derivative=False)

    def exp_convolution_derivative(self, lam: float | np.ndarray, t0: float | np.ndarray,
                                   t1: float | np.ndarray) -> float | np.ndarray:
        """integral_{t0}^{t1} e^{-lam (t1 - s)} d'(s) ds, shaped as in
        :meth:`exp_convolution`."""
        return self._convolution(lam, t0, t1, derivative=True)

    def _convolution(self, lam, t0, t1, derivative: bool):
        lam = np.asarray(lam, dtype=float)
        # interval ends on a leading axis, broadcast against the modes
        start, end = (np.reshape(t, np.shape(t) + (1,) * lam.ndim) for t in (t0, t1))
        if self.kind == "constant":
            j0 = _j_moments(lam, end - start, 0)[0]
            out = np.zeros_like(j0) if derivative else self.amplitude * j0
        elif self.kind == "sinusoid":
            om, amp, ph, offset = self.frequency, self.amplitude, self.phase, self.offset
            if derivative:                  # d' = amp om sin(om s + ph + pi/2)
                amp, ph, offset = amp * om, ph + math.pi / 2.0, 0.0
            j0 = _j_moments(lam, end - start, 0)[0]
            if om == 0.0:
                out = offset * j0 + amp * math.sin(ph) * j0
            else:
                den = lam * lam + om * om
                def antider(s, w):  # e^{-lam (t1-s)} (lam sin - om cos)(om s + ph)/den
                    return w * (lam * np.sin(om * s + ph) - om * np.cos(om * s + ph)) / den
                out = offset * j0 + amp * (antider(end, 1.0)
                                           - antider(start, np.exp(-lam * (end - start))))
        else:
            out = _quadratic_exp_quadrature(self.derivative if derivative else self.value,
                                            lam, t0, t1)
        return float(out) if out.ndim == 0 else out


# Largest (substep x mode) block the quadrature works on at once: each element
# holds about a dozen floats, and one block for a T = 2000 lifted run tripled its RSS.
_CHUNK_ELEMENTS = 2 ** 13
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
    x = lam * delta
    j = np.empty((kmax + 1,) + x.shape)
    small = np.abs(x) < _SERIES_LIMIT
    if np.any(small):
        xs = x[small]
        acc = np.zeros((kmax + 1, xs.size))
        for coef in _SERIES_COEFS[:kmax + 1, ::-1].T:   # Horner in -x
            acc = acc * -xs + coef[:, None]
        # With a broadcast exponent, np.power switches to a differently rounded
        # loop once the operands outgrow the ufunc buffer; full-size operands
        # keep one loop, so a moment does not depend on how many share a call.
        ds = np.tile(delta[small], (kmax + 1, 1))
        exponents = np.repeat(np.arange(1.0, kmax + 2.0)[:, None], ds.shape[1], axis=1)
        j[:, small] = np.power(ds, exponents) * acc
    large = ~small
    if np.any(large):
        xl, ll, dl = x[large], lam[large], delta[large]
        jk = -np.expm1(-xl) / ll
        j[0, large] = jk
        for k in range(1, kmax + 1):
            jk = (dl ** k - k * jk) / ll
            j[k, large] = jk
    return j


def _quadratic_exp_quadrature(fn, lam, t0, t1):
    """Exponential-weighted quadrature: fn interpolated by parabolas per
    substep, the kernel e^{-lam (t1-s)} integrated exactly (stable for stiff
    lam where plain quadrature underflows).

    ``t0, t1`` and the result are shaped as in ``exp_convolution``.  An
    interval of length L has max(16, min(256, ceil(64 L))) substeps; chunks
    of whole intervals with one substep count share each call of ``fn``, which
    maps a 1-d array of times (the substep edges and midpoints) to samples
    with time on the first axis and, if fn gives one, modes on the second.
    """
    lam = np.asarray(lam, dtype=float)
    start, end = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
    starts, ends = start.ravel(), end.ravel()
    rates = lam.reshape(1, 1, -1)
    n_subs = np.clip(np.ceil(64.0 * (ends - starts)), 16, 256).astype(int)
    out = np.empty((starts.size, rates.shape[-1]))
    for n_sub in np.unique(n_subs).tolist():
        group = np.flatnonzero(n_subs == n_sub)
        step = max(1, _CHUNK_ELEMENTS // (n_sub * rates.shape[-1]))
        for rows in (group[k:k + step] for k in range(0, group.size, step)):
            lo, hi = starts[rows], ends[rows]
            # edge k of an interval is lo + k (hi - lo)/n_sub, the last hi (as np.linspace)
            edges = lo + np.arange(n_sub + 1.0)[:, None] * ((hi - lo) / n_sub)
            edges[-1] = hi
            times = np.empty((2 * n_sub + 1, rows.size))
            times[0::2] = edges
            times[1::2] = 0.5 * (edges[:-1] + edges[1:])
            f = np.asarray(fn(times.ravel()), dtype=float).reshape(times.shape + (-1,))
            f0, fm, f1 = f[0:-1:2], f[1::2], f[2::2]
            delta = np.diff(edges, axis=0)[..., None]
            # parabola f(a + s) = f0 + c1 s + c2 s^2 on s in [0, delta], per substep
            c1 = (-3.0 * f0 + 4.0 * fm - f1) / delta
            c2 = 2.0 * (f0 - 2.0 * fm + f1) / delta ** 2
            j0, j1, j2 = _j_moments(rates, delta, 2)
            pieces = f0 * j0 + c1 * j1 + c2 * j2
            decays = np.exp(-rates * delta)
            total = pieces[0]
            for i in range(1, n_sub):
                total = total * decays[i] + pieces[i]
            out[rows] = total
    return out.reshape(start.shape + lam.shape)
