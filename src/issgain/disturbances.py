"""Boundary disturbance signals d(t) with their first derivative.

Classical solutions need d twice continuously differentiable; every kind
carries evaluators for d and d' and their exponential convolutions, exact
through the moments J_k: a sinusoid by J_0 at the complex rate lam + i omega,
every other kind (constant, smoothed step, tabulated) as one piecewise
polynomial, piece by piece.  Tabulated signals are cubic-spline interpolants
and only piecewise C2; constructing one emits a :class:`SmoothnessWarning`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SmoothnessWarning


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True, eq=False)
class DisturbanceSignal:
    """offset + amplitude sin(frequency t + phase) for a sinusoid; else d(t) = sum_m
    coefs[i, m] (t - origins[i])^m on [breaks[i-1], breaks[i]), the end pieces unbounded."""

    kind: str                      # constant | sinusoid | smoothed_step | tabulated
    amplitude: float = 0.0
    frequency: float = 0.0         # angular frequency of the sinusoid
    phase: float = 0.0
    offset: float = 0.0
    breaks: np.ndarray | None = None
    origins: np.ndarray | None = None
    coefs: np.ndarray | None = None

    @classmethod
    def constant(cls, amplitude: float) -> "DisturbanceSignal":
        _require_finite(amplitude=amplitude)
        return cls("constant", breaks=np.empty(0), origins=np.zeros(1),
                   coefs=np.array([[float(amplitude)]]))

    @classmethod
    def sinusoid(cls, amplitude: float, omega: float, phase: float = 0.0,
                 offset: float = 0.0) -> "DisturbanceSignal":
        _require_finite(amplitude=amplitude, omega=omega, phase=phase, offset=offset)
        return cls("sinusoid", amplitude=float(amplitude), frequency=float(omega),
                   phase=float(phase), offset=float(offset))

    @classmethod
    def smoothed_step(cls, amplitude: float, ramp_time: float) -> "DisturbanceSignal":
        """0 before t = 0, amplitude from ramp_time on, amplitude (10u^3 - 15u^4 + 6u^5)
        with u = t/ramp_time between: C2 at both ends."""
        _require_finite(amplitude=amplitude)
        if not (math.isfinite(ramp_time) and ramp_time > 0):
            raise ValueError(f"ramp_time must be finite and positive, got {ramp_time}")
        amp, ramp = float(amplitude), float(ramp_time)
        with np.errstate(all="ignore"):
            ramp_poly = amp * np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0]) / ramp ** np.arange(6.0)
        if not np.all(np.isfinite(ramp_poly)):
            raise ValueError(f"amplitude {amp} over ramp_time {ramp} overflows the ramp")
        return cls("smoothed_step", breaks=np.array([0.0, ramp]),
                   origins=np.array([0.0, 0.0, ramp]),
                   coefs=np.array([np.zeros(6), ramp_poly, [amp, 0.0, 0.0, 0.0, 0.0, 0.0]]))

    @classmethod
    def tabulated(cls, times, values) -> "DisturbanceSignal":
        warnings.warn("tabulated disturbances are only piecewise C2",
                      SmoothnessWarning, stacklevel=2)
        # imported here, not at the top: it adds ~250 ms to every start-up
        from scipy.interpolate import CubicSpline
        spline = CubicSpline(times, values)
        # spline.c holds descending powers of t - x[i]; its end pieces extrapolate
        return cls("tabulated", breaks=spline.x[1:-1], origins=spline.x[:-1],
                   coefs=np.ascontiguousarray(spline.c[::-1].T))

    def value(self, t):
        return self._evaluate(t, 0)

    def derivative(self, t):
        return self._evaluate(t, 1)

    def _evaluate(self, t, order: int):
        """d (order 0) or d' (order 1) at ``t``, shaped like ``t``.  A 0-d ``t``
        goes through the 1-d array path, so that d(t) equals its element of any
        array bit for bit (numpy's scalar and array loops can round differently)."""
        t = np.asarray(t, dtype=float)
        ts = np.atleast_1d(t)
        if self.kind == "sinusoid":
            amp, om, arg = self.amplitude, self.frequency, self.frequency * ts + self.phase
            if order == 0:
                out = self.offset + amp * np.sin(arg)
            else:
                out = amp * om * np.cos(arg)
        else:
            # summed in scipy's PPoly order, ascending powers of the local variable,
            # so that a tabulated signal equals its CubicSpline bit for bit
            piece = np.searchsorted(self.breaks, ts, side="right")
            local, coefs = ts - self.origins[piece], self.coefs[piece]
            out, power = np.zeros_like(ts), np.ones_like(ts)
            with np.errstate(over="ignore", invalid="ignore"):
                for m in range(order, coefs.shape[-1]):
                    # a zero coefficient adds 0, also where its power has overflowed
                    term = coefs[..., m] * power * math.perm(m, order)
                    out = out + np.where(coefs[..., m] != 0.0, term, 0.0)
                    power = power * local
        return out.reshape(t.shape)

    def exp_convolution(self, lam: float | np.ndarray, t0: float | np.ndarray,
                        t1: float | np.ndarray) -> float | np.ndarray:
        """integral_{t0}^{t1} e^{-lam (t1 - s)} d(s) ds for t0 <= t1, exact for every kind.

        ``lam`` is a scalar or an array of decay rates, one per mode.  Scalar
        ``t0, t1`` give a result shaped like ``lam`` (a float for a scalar
        ``lam``); 1-d arrays of n interval ends give ``(n,) + lam.shape``, row
        i the value on [t0[i], t1[i]].
        """
        return self._convolution(lam, t0, t1, derivative=False)

    def exp_convolution_derivative(self, lam: float | np.ndarray, t0: float | np.ndarray,
                                   t1: float | np.ndarray) -> float | np.ndarray:
        """integral_{t0}^{t1} e^{-lam (t1 - s)} d'(s) ds, shaped as in
        :meth:`exp_convolution`."""
        return self._convolution(lam, t0, t1, derivative=True)

    def _convolution(self, lam, t0, t1, derivative: bool):
        lam = np.asarray(lam, dtype=float)
        if self.kind != "sinusoid":
            out = self._piecewise_convolution(lam, t0, t1, derivative)
            return float(out) if out.ndim == 0 else out
        # interval ends on a leading axis, broadcast against the modes.  A sin(om s + ph)
        # = Im A e^{i(om s + ph)} convolves to Im A e^{i(om t1 + ph)} J_0(lam + i om, t1 - t0),
        # and d' is the same with amplitude i om A
        start, end = (np.reshape(t, np.shape(t) + (1,) * lam.ndim) for t in (t0, t1))
        om, amp, offset = self.frequency, self.amplitude, self.offset
        if derivative:
            amp, offset = 1j * om * amp, 0.0
        turn = amp * np.exp(1j * (om * end + self.phase))
        out = (offset * _j_moments(lam, end - start, 0)[0]
               + (turn * _j_moments(lam + 1j * om, end - start, 0)[0]).imag)
        return float(out) if out.ndim == 0 else out

    def _piecewise_convolution(self, lam, t0, t1, derivative: bool):
        """The convolution of the pieces, or of d' if ``derivative``: along each
        interval, its part [a, b] on one piece is re-expanded about a, integrated
        as sum_k c_k J_k(lam, b - a) and added to the running total, decayed by
        e^{-lam (b - a)}.  Step i takes the i-th part of every interval that has one."""
        coefs = self.coefs
        if derivative:      # m c_m (t - origin)^(m-1), in as many columns, the last 0
            coefs = np.column_stack([coefs[:, 1:] * np.arange(1.0, coefs.shape[1]),
                                     np.zeros(len(coefs))])
        start, end = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
        starts, ends = start.ravel(), end.ravel()
        rates = lam.reshape(1, -1)
        edges = np.concatenate(([-np.inf], self.breaks, [np.inf]))
        first = np.searchsorted(self.breaks, starts, side="right")
        met = np.searchsorted(self.breaks, ends, side="left") - first + 1
        total = np.zeros((starts.size, rates.size))
        for step in range(int(met.max(initial=1))):
            rows = np.flatnonzero(step < met)
            piece = first[rows] + step
            a = np.maximum(edges[piece], starts[rows])
            delta = (np.minimum(edges[piece + 1], ends[rows]) - a)[:, None]
            # Taylor shift by repeated synthetic division: c[k] becomes p^(k)(a)/k!
            c, shift = list(coefs[piece].T), a - self.origins[piece]
            for k in range(len(c) - 1):
                for m in range(len(c) - 2, k - 1, -1):
                    c[m] = c[m] + shift * c[m + 1]
            with np.errstate(over="ignore", invalid="ignore"):
                moments = _j_moments(rates, delta, len(c) - 1)
                # a zero coefficient adds 0, also where its moment has overflowed
                part = sum(np.where(ck[:, None] != 0.0, ck[:, None] * jk, 0.0)
                           for ck, jk in zip(c, moments))
            total[rows] = part if step == 0 else total[rows] * np.exp(-rates * delta) + part
        return total.reshape(start.shape + lam.shape)


# k!/(k+m+1)! for k = 0..5 and m = 0..19: at |lam delta| < 1 the first
# dropped term is below 1/21! < 1e-19 of the leading one.
_SERIES_COEFS = np.array([[math.factorial(k) / math.factorial(k + m + 1) for m in range(20)]
                          for k in range(6)])


def _j_moments(lam, delta, kmax: int) -> np.ndarray:
    """J_k = integral_0^delta e^{-lam (delta - s)} s^k ds for k = 0..kmax <= 5.

    ``lam`` and ``delta`` broadcast against each other; the result has shape
    ``(kmax + 1,) + broadcast shape`` and the dtype of lam delta, so a complex
    rate gives complex moments.  For |lam delta| < 1 every moment is
    summed from J_k = delta^{k+1} sum_m (-lam delta)^m k!/(k+m+1)!, which is
    exact at lam = 0.  Powers of delta are running products, so a moment does
    not depend on how many share a call.
    """
    lam, delta = np.broadcast_arrays(np.asarray(lam), np.asarray(delta, dtype=float))
    x = lam * delta
    j = np.empty((kmax + 1,) + x.shape, dtype=x.dtype)
    # from |lam delta| = 1 up, the recurrence J_k = (delta^k - k J_{k-1}) / lam is
    # good to about 1e-13 for k <= 5; below, it cancels like (lam delta)^-k
    small = np.abs(x) < 1.0
    xs, ds = x[small], delta[small]
    acc = np.zeros((kmax + 1, xs.size), dtype=x.dtype)
    for coef in _SERIES_COEFS[:kmax + 1, ::-1].T:   # Horner in -x
        acc = acc * -xs + coef[:, None]
    power = np.ones_like(ds)
    for k in range(kmax + 1):
        power = power * ds
        j[k, small] = power * acc[k]
    large = ~small
    xl, ll, dl = x[large], lam[large], delta[large]
    jk = -np.expm1(-xl) / ll
    j[0, large] = jk
    power = np.ones_like(dl)
    for k in range(1, kmax + 1):
        power = power * dl
        jk = (power - k * jk) / ll
        j[k, large] = jk
    return j
