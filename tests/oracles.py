"""Reference values the tests check the package against.

Each is derived independently of the routes it checks: the exact eigendata and
steady profile of the constant-coefficient transport family, the operator
identity K + L + K L = 0 of a mutually inverse pair of backstepping kernels, and
the eigenvalues of a discrete tridiagonal pencil by Sturm-count bisection.
"""
from __future__ import annotations

import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np

from issgain import (
    Kernel,
    Spectrum,
    TransportCase,
    check_hypothesis_H,
    mu_roots,
    transport_problem,
    uniform_grid,
)
from issgain.errors import GridMismatch
from issgain.grids import simpson_weights


def analytic_transport_spectrum(case: TransportCase, n_modes: int,
                                resolution: int = 256) -> Spectrum:
    """Exact eigendata of the constant-coefficient transport family.

    Used where large mode counts are needed (deep series partial sums,
    high-accuracy references); the finite-difference route in
    :mod:`issgain.sturm_liouville` stays independent of it.  From 10 modes up it
    carries the hypothesis report of its transport problem, as a solved spectrum does.
    """
    ns = np.arange(1, n_modes + 1, dtype=float)
    mu = mu_roots(ns, case.a)
    omega = (ns - mu) * math.pi
    lam = case.q_eff + case.D * omega ** 2
    sinc = np.sin(2.0 * omega) / (2.0 * omega)
    amp = np.sqrt(2.0 / (1.0 - sinc))
    grid = uniform_grid(resolution)
    phi = amp[:, None] * np.sin(omega[:, None] * grid[None, :])
    spectrum = Spectrum(eigenvalues=lam, eigenfunctions=phi,
                        derivatives_at_0=amp * omega, grid=grid)
    if n_modes < 10:
        return spectrum
    problem = transport_problem(case.D, case.v, case.k, case.a, resolution=resolution)
    return replace(spectrum, hypothesis=check_hypothesis_H(spectrum, problem))


def sturm_eigenvalue(diag, off, mass, index: int, digits: int = 40) -> float:
    """The ``index``-th (1-based) eigenvalue of T x = lam B x, T symmetric tridiagonal
    with ``diag`` and ``off``, B = diag(``mass``) > 0, by bisection in ``digits``-digit
    decimal arithmetic on the float entries taken as exact.

    By Sylvester's law of inertia the number of eigenvalues below x is the number
    of negative pivots of T - x B in the recurrence u_i = d_i - x b_i - o_{i-1}^2 / u_{i-1}.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        d = [Decimal(float(v)) for v in diag]
        o2 = [Decimal(float(v)) ** 2 for v in off]
        b = [Decimal(float(v)) for v in mass]
        tiny = Decimal(10) ** (-2 * digits)

        def below(x):
            count, pivot = 0, d[0] - x * b[0]
            for i in range(1, len(d) + 1):
                if pivot == 0:
                    pivot = -tiny
                count += pivot < 0
                if i < len(d):
                    pivot = d[i] - x * b[i] - o2[i - 1] / pivot
            return count

        lo, hi = Decimal(-1), Decimal(1)
        while below(lo) >= index:
            lo *= 2
        while below(hi) < index:
            hi *= 2
        while hi - lo > Decimal(10) ** (5 - digits) * max(abs(lo), abs(hi)):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) >= index else (mid, hi)
        return float((lo + hi) / 2)


def steady_state_coefficients(zeta: float, a: float) -> tuple[float, float]:
    """(c1, c2) of the steady profile c1 e^{zeta z} + c2 e^{-zeta z}."""
    if math.isinf(a):
        den = math.expm1(2.0 * zeta)
        return -1.0 / den, (den + 1.0) / den
    den = (zeta + a) * math.exp(2.0 * zeta) + zeta - a
    return (zeta - a) / den, (zeta + a) * math.exp(2.0 * zeta) / den


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


def exact_exp_convolution(pieces, lam: float, t0: float, t1: float,
                          derivative: bool = False) -> float:
    """integral_{t0}^{t1} e^{-lam (t1 - s)} p(s) ds, or the same of p', in
    100-digit decimal arithmetic.

    ``pieces`` are (left, right, origin, coefficients) with p(s) = sum_m c_m
    (s - origin)^m on [left, right).  Each part [a, b] of [t0, t1] integrates by
    the antiderivative e^{-lam (t1 - s)} sum_j (-1)^j p^(j)(s) / lam^(j+1), or by
    sum_m c_m (s - origin)^(m+1) / (m+1) at lam = 0.
    """
    with localcontext() as ctx:
        ctx.prec = 100
        rate, end, total = Decimal(lam), Decimal(t1), Decimal(0)
        for left, right, origin, coefs in pieces:
            a, b = max(left, t0), min(right, t1)
            if a >= b:
                continue
            base = Decimal(origin)
            poly = [Decimal(c) for c in coefs]
            if derivative:
                poly = [m * c for m, c in enumerate(poly)][1:] or [Decimal(0)]
            derivatives = [poly]
            while len(derivatives[-1]) > 1:
                derivatives.append([m * c for m, c in enumerate(derivatives[-1])][1:])

            def antiderivative(s):
                u = s - base
                if lam == 0.0:
                    return u * _horner([c / (m + 1) for m, c in enumerate(poly)], u)
                series = sum((-1) ** j * _horner(cs, u) / rate ** (j + 1)
                             for j, cs in enumerate(derivatives))
                return (-rate * (end - s)).exp() * series

            total += antiderivative(Decimal(b)) - antiderivative(Decimal(a))
        return float(total)


def _horner(coefs, u):
    value = 0
    for c in reversed(coefs):
        value = value * u + c
    return value


def smoothed_step_pieces(amplitude: float, ramp: float):
    """The pieces of amplitude (10u^3 - 15u^4 + 6u^5), u = t/ramp, clamped to
    0 before t = 0 and to amplitude after ramp, with 100-digit coefficients."""
    with localcontext() as ctx:
        ctx.prec = 100
        amp, r = Decimal(amplitude), Decimal(ramp)
        ramp_poly = [0, 0, 0, 10 * amp / r ** 3, -15 * amp / r ** 4, 6 * amp / r ** 5]
    return [(-math.inf, 0.0, 0.0, [0]), (0.0, ramp, 0.0, ramp_poly),
            (ramp, math.inf, ramp, [amp])]


def spline_pieces(spline):
    """The pieces of a scipy CubicSpline, its end pieces extended to -inf and inf."""
    x, c = spline.x, spline.c
    lefts = [-math.inf, *x[1:-1]]
    rights = [*x[1:-1], math.inf]
    return [(lefts[i], rights[i], x[i], c[::-1, i]) for i in range(c.shape[1])]
