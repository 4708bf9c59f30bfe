"""ISS gain constants for boundary-disturbed parabolic problems.

The gain constant is

    C = p(0)/sqrt(b1^2+b2^2) * sqrt( sum_n lambda_n^{-2} |b1 phi_n'(0) - b2 phi_n(0)|^2 )
      = sqrt( integral r(z) xtilde(z)^2 dz )

with ``xtilde`` the steady state driven by boundary datum sqrt(b1^2+b2^2).
Both routes are implemented and must agree; the transport family
(p = D, r = 1, q = k + v^2/4D, Dirichlet inlet, Robin exit with parameter a)
additionally has closed forms in zeta = sqrt(v^2+4kD)/(2D):

    G(zeta, a)   = sqrt(c1^2 (e^{2z}-1)/2z + c2^2 (1-e^{-2z})/2z + 2 c1 c2)
    G(zeta, inf) = (e^{2z}-1)^{-1} sqrt((e^{4z}-1-4z e^{2z})/(2z))

where the sine frequencies are omega_n = (n - mu_n(a)) pi and mu_n solves
tan(mu pi) + mu pi / a = n pi / a on (0, 1/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from .errors import InadmissibleCase, UncertifiedHypothesis
from .sturm_liouville import (
    HYPOTHESIS_MIN_MODES,
    SLProblem,
    Spectrum,
    solve_spectrum,
    solve_steady_bvp,
    weighted_norm,
)

DEFAULT_SERIES_N = 10_000
SWEEP_EXITS = (0.0, 1.0, math.inf)    # the exit parameters a of the sweep columns

_PI2 = math.pi ** 2
_PI4 = math.pi ** 4
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GainReport:
    """Gain constant with route and ISS envelope parameters.

    ``tail_estimate`` is expressed in gain units: the tail-corrected value of
    the constant is ``gain_C + tail_estimate`` (zero for non-series routes).
    ``iss_overshoot`` sqrt(1+eps) and ``iss_gain`` C sqrt((1+1/eps)/(b1^2+b2^2))
    are the envelope's factors at ``epsilon`` = 1; ``verify_iss`` takes any eps.
    """

    gain_C: float
    route: str                     # "series" | "bvp_integral" | "closed_form"
    truncation_N: int
    tail_estimate: float
    epsilon: float
    iss_overshoot: float
    iss_decay_rate: float
    iss_gain: float
    boundary_norm: float = 1.0
    series_value: float | None = None
    closed_value: float | None = None
    discrepancy: float | None = None

    @property
    def tail_corrected(self) -> float:
        return self.gain_C + self.tail_estimate


def _report(gain, route, n, tail, decay, bnorm, **extra) -> GainReport:
    return GainReport(
        gain_C=gain, route=route, truncation_N=n, tail_estimate=tail,
        epsilon=1.0, iss_overshoot=_SQRT2, iss_decay_rate=decay,
        iss_gain=(gain + tail) * _SQRT2 / bnorm, boundary_norm=bnorm, **extra)


@dataclass(frozen=True)
class TransportCase:
    """Transport tube, checked when built; ``a`` is the exit parameter, inf = Dirichlet."""

    D: float
    v: float
    k: float
    a: float  # in [0, inf]

    def __post_init__(self):
        if not (math.isfinite(self.D) and self.D > 0):
            raise InadmissibleCase(f"D must be finite and positive, got {self.D}")
        if not (math.isfinite(self.v) and self.v >= 0):
            raise InadmissibleCase(f"v must be finite and nonnegative, got {self.v}")
        if not math.isfinite(self.k):
            raise InadmissibleCase(f"k must be finite, got {self.k}")
        if not self.a >= 0:
            raise InadmissibleCase(f"a must be in [0, inf], got {self.a}")
        disc = self.v * self.v + 4.0 * self.k * self.D   # inf where v ** 2 would raise
        if not (0.0 <= disc < math.inf and math.isfinite(self.zeta)
                and math.isfinite(self.q_eff)):
            raise InadmissibleCase(f"zeta and q = k + v^2/(4D) must be real and finite "
                                   f"(D={self.D}, v={self.v}, k={self.k})")

    @classmethod
    def from_zeta(cls, zeta: float, a: float, D: float = 1.0) -> "TransportCase":
        if not (math.isfinite(zeta) and zeta >= 0):
            raise InadmissibleCase(f"zeta must be finite and nonnegative, got {zeta}")
        return cls(D=D, v=2.0 * D * zeta, k=0.0, a=a)

    @classmethod
    def from_target(cls, c: float, D: float = 1.0) -> "TransportCase":
        """The Dirichlet target q = c of the backstepping design: v = 0, k = c, a = inf."""
        if not (math.isfinite(c) and c >= 0):
            raise InadmissibleCase(f"c must be finite and nonnegative, got {c}")
        return cls(D=D, v=0.0, k=c, a=math.inf)

    @property
    def zeta(self) -> float:
        return math.sqrt(self.v ** 2 + 4.0 * self.k * self.D) / (2.0 * self.D)

    @property
    def q_eff(self) -> float:
        """Constant potential of the transformed problem: k + v^2/(4D)."""
        return self.k + self.v ** 2 / (4.0 * self.D)

    def lambda1(self) -> float:
        mu1 = mu_root(1, self.a)
        return self.D * (self.zeta ** 2 + _PI2 * (1.0 - mu1) ** 2)


# ---------------------------------------------------------------------------
# mu roots and transport eigendata


def mu_roots(n: np.ndarray | int, a: float) -> np.ndarray:
    """Solutions mu_n(a) in [0, 1/2] of tan(mu pi) + mu pi / a = n pi / a.

    mu_n(inf) = 0 and mu_n(0) = 1/2 exactly.  For 0 < a < inf, delta = 1/2 - mu
    is the fixed point of delta = arctan(a / ((n - 1/2 + delta) pi)) / pi.  The
    map contracts by a / ((n - 1/2 + delta)^2 pi^2 + a^2) <= 1/pi, so 32 steps
    from delta = 1/4 reach rounding level.  A root leaves the sweep once the map
    returns it unchanged: it is a fixed point, so further steps would keep it.
    """
    ns = np.atleast_1d(np.asarray(n, dtype=float))
    if np.any(ns < 1):
        raise ValueError("mode index must be >= 1")
    if math.isinf(a):
        return np.zeros_like(ns)
    if a == 0.0:
        return np.full_like(ns, 0.5)
    if a < 0.0:
        raise InadmissibleCase("exit parameter a must be in [0, inf]")
    delta = np.full_like(ns, 0.25)
    moving = np.arange(ns.size)
    for _ in range(32):
        step = np.arctan(a / ((ns[moving] - 0.5 + delta[moving]) * math.pi)) / math.pi
        moved = step != delta[moving]
        delta[moving] = step
        moving = moving[moved]
        if not moving.size:
            break
    return 0.5 - delta


def mu_root(n: int, a: float) -> float:
    return float(mu_roots(np.array([n], dtype=float), a)[0])


def transport_series_terms(zeta: float, a: float, N: int) -> np.ndarray:
    """Terms of the squared-gain series (2/pi^2) (n-mu)^3 / (...)."""
    ns = np.arange(1, N + 1, dtype=float)
    mu = mu_roots(ns, a)
    x = ns - mu
    corr = x + np.sin(2.0 * mu * math.pi) / (2.0 * math.pi)
    return 2.0 * x ** 3 / (_PI2 * corr * (zeta ** 2 / _PI2 + x ** 2) ** 2)


def _series_remainder(N: int, shift: float, c2: float, c4: float) -> float:
    """sum_{n>N} c2/omega_n^2 + c4/omega_n^4 with omega_n = (n - shift) pi, clipped at
    0: c2/pi^2 zeta(2, nu) + c4/pi^4 zeta(4, nu), nu = N + 1 - shift, through the
    Hurwitz zeta function (DLMF 25.11.1).

    For series whose terms are c2/omega_n^2 + c4/omega_n^4 + O(n^-6) it is
    off by O(N^-5).  ``shift`` is 1/2 per Robin end.
    A zero coefficient adds 0, also at nu = 0, where its zeta is infinite.
    """
    nu = N + 1.0 - shift
    tail = c2 / _PI2 * hurwitz_zeta(2.0, nu) if c2 else 0.0
    tail += c4 / _PI4 * hurwitz_zeta(4.0, nu) if c4 else 0.0
    return float(max(tail, 0.0))


def _zero_zeta_gain(a: float) -> float:
    """Limit of G(zeta, a) at zeta -> 0+: the L2 norm of 1 - a z/(1+a)."""
    if math.isinf(a):
        return 1.0 / math.sqrt(3.0)
    alpha = a / (1.0 + a)
    return math.sqrt(1.0 - alpha + alpha ** 2 / 3.0)


def transport_gain_closed(zeta: float, a: float) -> float:
    """Right-hand closed/integral form of the gain via the steady state.

    Exponentials are arranged around e^{-2 zeta} so the expression stays
    finite for large zeta.
    """
    if zeta < 0:
        raise InadmissibleCase("zeta must be nonnegative")
    if zeta < 1e-5:
        # G^2 is analytic in zeta^2, so the limit is accurate to O(zeta^2)
        # here, while the direct formula starts cancelling catastrophically.
        return _zero_zeta_gain(a)
    em2 = math.expm1(-2.0 * zeta)          # e^{-2z} - 1 < 0
    e2 = em2 + 1.0                         # e^{-2z}
    if math.isinf(a):
        num = -math.expm1(-4.0 * zeta) - 4.0 * zeta * e2
        den = 2.0 * zeta * em2 * em2
        return math.sqrt(num / den)
    denom = (zeta + a) + (zeta - a) * e2
    c1s = (zeta - a) / denom               # c1 e^{2 zeta}, scaled
    c2s = (zeta + a) / denom
    g2 = (c1s * c1s * (e2 - e2 * e2) + c2s * c2s * (-em2)) / (2.0 * zeta) \
        + 2.0 * c1s * c2s * e2
    return math.sqrt(max(g2, 0.0))


def transport_gain(case: TransportCase, N: int = DEFAULT_SERIES_N) -> GainReport:
    """Gain of the transport problem by series and closed routes.

    ``gain_C`` carries the closed-form value; the tail-corrected series value
    and the discrepancy between the two routes are attached.
    """
    zeta = case.zeta
    gain = transport_gain_closed(zeta, case.a)
    if zeta == 0.0:
        series = gain
    else:
        s_partial = float(np.sum(transport_series_terms(zeta, case.a, N)))
        shift = 0.0 if math.isinf(case.a) else 0.5
        series = math.sqrt(s_partial + _series_remainder(N, shift, 2.0, -4.0 * zeta ** 2))
    return _report(gain, "closed_form", N, 0.0, decay=case.lambda1(), bnorm=1.0,
                   series_value=series, closed_value=gain,
                   discrepancy=abs(series - gain))


def backstepping_gain(c: float, D: float, N: int = DEFAULT_SERIES_N) -> GainReport:
    """Gain of the Dirichlet target problem q = c: the transport gain at
    v = 0, k = c, a = inf, i.e. G(sqrt(c/D), inf) with decay c + D pi^2."""
    return transport_gain(TransportCase.from_target(c, D), N)


def advection_gain(v: float, D: float, k: float = 0.0,
                   form: str = "derivation") -> float:
    """Weighted-L2 gain of the pure advection equation.

    ``derivation``: sqrt((1 - e^{-X})/X) with X = v/D + 2k/v, the form the
    estimate's derivation actually produces (and which the exact solution
    attains for constant inputs).  ``legacy``: an alternate argument
    l pi^{-1} zeta^2 + pi l^{-1} with l = 2D/(v pi^2) seen in circulated
    gain plots; kept for comparison only, it is inconsistent with the
    derivation (the consistent reading would be l pi^2 zeta^2 + l^{-1}/pi^2,
    which reduces back to X).
    """
    if v <= 0 or D <= 0:
        raise InadmissibleCase("v and D must be positive")
    x = v / D + 2.0 * k / v
    if x <= 0:
        raise InadmissibleCase("v/D + 2k/v must be positive")
    if form == "legacy":
        ell = 2.0 * D / (v * _PI2)
        zeta = math.sqrt(v * v + 4.0 * k * D) / (2.0 * D)
        x = ell / math.pi * zeta ** 2 + math.pi / ell
    elif form != "derivation":
        raise ValueError("form must be 'derivation' or 'legacy'")
    return math.sqrt(-math.expm1(-x) / x)


# ---------------------------------------------------------------------------
# generic series / BVP routes


def _certify(spectrum: Spectrum):
    """Raise unless the spectrum carries a certified hypothesis report."""
    report = spectrum.hypothesis
    if report is None:
        raise ValueError(f"hypothesis check needs at least {HYPOTHESIS_MIN_MODES} computed modes")
    if not report.certified:
        raise UncertifiedHypothesis(
            f"hypothesis not certified (lambda1={report.lambda1:.6g}, method={report.method})")


def gain_series(problem: SLProblem, spectrum: Spectrum, N: int) -> GainReport:
    """Series route: partial sum of p(0)^2 lambda_n^{-2}|b1 phi'(0)-b2 phi(0)|^2.

    ``gain_C`` is the square root of the certified partial sum;
    ``tail_estimate`` is the remainder :func:`_series_remainder` converted to
    gain units, so ``gain_C + tail_estimate`` is the tail-corrected constant.
    A certified spectrum implies constant p, q, r, and then the terms tend to
    c2/omega_n^2 + c4/omega_n^4, omega_n = (n - shift) pi, shift 1/2 per Robin
    end.  A Dirichlet inlet (b2 = 0) has terms 2r omega^2/(omega^2 + q/p)^2, so
    c2 = 2r and c4 = -4rq/p.  A Robin inlet has b1n phi'(0) - b2n phi(0) =
    -(s/b2) phi(0), phi_n(0)^2 -> 2/r and lambda_n ~ p omega_n^2/r, so c2 = 0
    and c4 = 2r(s/b2)^2.  Certifying variable coefficients needs this
    remainder extended.
    """
    if N < 0 or N > spectrum.n_modes:
        raise ValueError("need 0 <= N <= number of computed modes")
    _certify(spectrum)
    s = problem.boundary_norm
    b1n, b2n = problem.b1 / s, problem.b2 / s
    p0, q0, r0 = problem.p.value, problem.q.value, problem.r.value
    lam = spectrum.eigenvalues[:N]
    num = p0 * (b1n * spectrum.derivatives_at_0[:N] - b2n * spectrum.values_at_0[:N])
    partial = float(np.sum((num / lam) ** 2))
    shift = 0.5 * (problem.b2 != 0.0) + 0.5 * (problem.a2 != 0.0)
    c2, c4 = ((2.0 * r0, -4.0 * r0 * q0 / p0) if problem.b2 == 0.0
              else (0.0, 2.0 * r0 * (s / problem.b2) ** 2))
    tail_sq = _series_remainder(N, shift, c2, c4)
    gain = math.sqrt(partial)
    tail_gain = math.sqrt(partial + tail_sq) - gain
    return _report(gain, "series", N, tail_gain, decay=float(spectrum.eigenvalues[0]), bnorm=s)


def bvp_integral(problem: SLProblem) -> float:
    """|| xtilde ||_r with datum sqrt(b1^2+b2^2): the squared norm is
    Richardson-extrapolated across the grid and its refinement (both
    second-order accurate).  Certifies nothing; see :func:`gain_bvp`."""
    bv = problem.boundary_norm
    s1 = weighted_norm(solve_steady_bvp(problem, bv), problem) ** 2
    fine = problem.with_resolution(2 * problem.resolution)
    s2 = weighted_norm(solve_steady_bvp(fine, bv), fine) ** 2
    return math.sqrt(max((4.0 * s2 - s1) / 3.0, 0.0))


def gain_bvp(problem: SLProblem, spectrum: Spectrum | None = None) -> GainReport:
    """Integral route: :func:`bvp_integral`, certified by the spectrum's
    hypothesis report, with the spectrum's lambda1 as the decay rate."""
    if spectrum is None:
        spectrum = solve_spectrum(problem, min(16, max(10, problem.resolution // 8)))
    _certify(spectrum)
    return _report(bvp_integral(problem), "bvp_integral", 0, 0.0,
                   decay=float(spectrum.eigenvalues[0]), bnorm=problem.boundary_norm)


# ---------------------------------------------------------------------------
# Figure-1 sweep


@dataclass(frozen=True)
class SweepTable:
    """Gain comparison over a zeta grid at k = 0, one column per exit parameter a."""

    zetas: np.ndarray
    a_values: tuple
    g_columns: dict
    advection: np.ndarray
    advection_form: str

    def ordering_ok(self) -> bool:
        """Strict decrease of G along the a_values list, every row."""
        cols = [self.g_columns[a] for a in self.a_values]
        return all(np.all(cols[j] > cols[j + 1]) for j in range(len(cols) - 1))

    def nonincreasing_columns(self) -> dict:
        out = {a: bool(np.all(np.diff(col) <= 1e-12)) for a, col in self.g_columns.items()}
        out["advection"] = bool(np.all(np.diff(self.advection) <= 1e-12))
        return out

    def crossovers(self, a: float = math.inf) -> list[tuple[float, float]]:
        """Brackets [zeta_i, zeta_j] where advection - G(., a) changes sign.

        j = i + 1 unless the difference is exactly zero in between; a change
        of sign through such zero rows counts once, bracketed by the nearest
        nonzero rows on either side.
        """
        diff = self.advection - self.g_columns[a]
        nz = np.flatnonzero(diff)
        sgn = np.sign(diff[nz])
        idx = np.flatnonzero(sgn[:-1] != sgn[1:])
        return [(float(self.zetas[nz[i]]), float(self.zetas[nz[i + 1]])) for i in idx]


def sweep_figure1(zeta_grid, advection_form: str = "derivation") -> SweepTable:
    """Gain columns G(zeta, a), a in ``SWEEP_EXITS``, plus the advection gain over
    a zeta grid.

    The sweep is at k = 0, where the parameter l = 2D/(v pi^2) of the advection
    estimate reduces to 1/(pi^2 zeta) and the advection argument is a function
    of zeta alone; for k != 0 it would depend on v and D separately.
    """
    zetas = np.asarray(zeta_grid, dtype=float)
    if not np.all(np.isfinite(zetas) & (zetas > 0)):
        raise ValueError("zeta grid must be finite and positive")
    g_cols = {
        a: np.array([transport_gain_closed(z, a) for z in zetas])
        for a in SWEEP_EXITS
    }
    adv = np.array([advection_gain(v=2.0 * z, D=1.0, k=0.0, form=advection_form)
                    for z in zetas])
    return SweepTable(zetas, SWEEP_EXITS, g_cols, adv, advection_form)
