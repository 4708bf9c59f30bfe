import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import lapack, solve_banded

import issgain.cli
import issgain.pde_sim as pde_sim
import issgain.sturm_liouville
from issgain import (
    ClosedLoopConfig,
    CompatibilityWarning,
    DisturbanceSignal,
    GridFunction,
    IssEnvelope,
    MissingEnvelopeParameters,
    NumericalFailure,
    SingularBVP,
    SmoothnessWarning,
    StabilityWarning,
    Trajectory,
    TransportCase,
    UncertifiedHypothesis,
    advection_exact,
    advection_gain,
    build_problem,
    gain_bvp,
    lift_disturbance,
    simulate_closed_loop,
    simulate_fd,
    simulate_spectral,
    simulate_via_lifting,
    solve_spectrum,
    solve_kernel,
    solve_steady_bvp,
    transport_problem,
    verify_iss,
    weighted_norm,
)
from issgain.disturbances import _j_moments
from issgain.grids import simpson_weights
from oracles import (
    analytic_transport_spectrum,
    exact_exp_convolution,
    smoothed_step_pieces,
    spline_pieces,
)


def exact_j_moment(lam, delta, k):
    """J_k = delta^{k+1} sum_m (-lam delta)^m k!/(k+m+1)!, summed in rational
    arithmetic until the terms fall below 1e-40 of the sum.  Past lam delta = 50
    that takes hundreds of terms of huge rationals, and J_k comes from the
    decimal antiderivative of ``exact_exp_convolution`` instead."""
    if lam * delta > 50.0:
        return exact_exp_convolution([(-math.inf, math.inf, 0.0, [0] * k + [1])], lam, 0.0, delta)
    x, d = Fraction(lam) * Fraction(delta), Fraction(delta)
    total, m = Fraction(0), 0
    while True:
        term = (-x) ** m * Fraction(math.factorial(k), math.factorial(k + m + 1))
        total += term
        if m > 2 and abs(term) <= abs(total) * Fraction(1, 10 ** 40):
            return float(d ** (k + 1) * total)
        m += 1


def loop_semidiscrete_operator(problem):
    """Reference assembly of x' = A x + d(t) load, node by node: the lower,
    main and upper diagonals of A (lower[0] and upper[-1] unused), the load
    direction and the active window."""
    m = problem.resolution
    h = 1.0 / m
    pn, qn, rn, ph = problem.sample(m)
    lo = 1 if problem.b2 == 0.0 else 0
    hi = m - 1 if problem.a2 == 0.0 else m
    n = hi - lo + 1
    lower, diag, upper, load = (np.zeros(n) for _ in range(4))
    for j in range(n):
        i = lo + j
        if i == 0:
            diag[j] = (-2.0 * ph[0] / (rn[0] * h * h)
                       + 2.0 * pn[0] * problem.b1 / (problem.b2 * rn[0] * h)
                       - qn[0] / rn[0])
            upper[j] = 2.0 * ph[0] / (rn[0] * h * h)
            load[j] = -2.0 * pn[0] / (problem.b2 * rn[0] * h)
        elif i == m:
            diag[j] = (-2.0 * ph[m - 1] / (rn[m] * h * h)
                       - 2.0 * pn[m] * problem.a1 / (problem.a2 * rn[m] * h)
                       - qn[m] / rn[m])
            lower[j] = 2.0 * ph[m - 1] / (rn[m] * h * h)
        else:
            lower[j] = ph[i - 1] / (rn[i] * h * h)
            upper[j] = ph[i] / (rn[i] * h * h)
            diag[j] = -(ph[i - 1] + ph[i]) / (rn[i] * h * h) - qn[i] / rn[i]
    if problem.b2 == 0.0:
        load[0] = ph[0] / (rn[1] * h * h) / problem.b1
    return lower, diag, upper, load, lo, hi


def assembled_operator(problem):
    """The operator A = -M^{-1} T of ``_assemble``'s stiffness T and mass M, and
    its load, in the layout of :func:`loop_semidiscrete_operator` without its
    unused ends: sub-, main and super-diagonal, load, lo, hi."""
    diag, off, mass, inlet, lo, hi = issgain.sturm_liouville._assemble(problem,
                                                                      problem.resolution)
    return -off / mass[1:], -diag / mass, -off / mass[:-1], inlet / mass[0], lo, hi


def solve_banded_cn(problem, d, x0, dt, T, n_store, operator=None):
    """Reference Crank-Nicolson run for compatible x0: one banded solve of the
    unfactored matrix per step, one fresh array per stored state.  The
    operator is the loop assembly unless given in its layout.  Returns the
    stored states and their norms."""
    n_steps = max(1, math.ceil(T / dt))
    dt = T / n_steps
    lower, diag, upper, load, lo, hi = operator or loop_semidiscrete_operator(problem)
    ab = np.zeros((3, hi - lo + 1))
    ab[0, 1:] = -0.5 * dt * upper[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * diag
    ab[2, :-1] = -0.5 * dt * lower[1:]
    d_all = np.asarray(d.value(dt * np.arange(n_steps + 1)))
    store_at = set(pde_sim._store_indices(n_steps, n_store).tolist())
    w = simpson_weights(problem.resolution + 1) * problem.r(problem.grid)
    x = x0.values[lo:hi + 1].copy()
    states, norms = [], []

    def record(step):
        full = np.zeros(problem.resolution + 1)
        full[lo:hi + 1] = x
        if problem.b2 == 0.0:
            full[0] = d_all[step] / problem.b1
        states.append(full)
        norms.append(math.sqrt(max(problem.spacing * np.sum(w * full * full), 0.0)))

    record(0)
    for step in range(n_steps):
        ax = diag * x
        ax[:-1] += upper[:-1] * x[1:]
        ax[1:] += lower[1:] * x[:-1]
        rhs = x + 0.5 * dt * ax + 0.5 * dt * load * (d_all[step] + d_all[step + 1])
        x = solve_banded((1, 1), ab, rhs)
        if step + 1 in store_at:
            record(step + 1)
    return np.array(states), np.array(norms)


def longdouble_cn(problem, inlet, x0, dt, store_at, feedback=None):
    """Reference Crank-Nicolson loop in long double on the float64 entries of
    ``_assemble``: (M + hT) x_{k+1} = (M - hT) x_k + h inlet e_1 (u_k + u_{k+1}),
    h = dt/2, one Thomas solve per step.  With a ``feedback`` row, u_{k+1} =
    inlet[k+1] - feedback @ x_{k+1}, solved exactly for u_{k+1}.  Returns the
    stored active-node states and u, as long double."""
    ld = np.longdouble
    diag, off, mass, load, lo, hi = issgain.sturm_liouville._assemble(problem,
                                                                      problem.resolution)
    diag, off, mass, load = diag.astype(ld), off.astype(ld), mass.astype(ld), ld(load)
    half = ld(dt) / 2
    lower = half * off                   # off-diagonal of M + hT, and minus that of M - hT
    pivots = mass + half * diag
    for i in range(1, pivots.size):
        pivots[i] -= lower[i - 1] ** 2 / pivots[i - 1]

    def solve(rhs):
        y = rhs.copy()
        for i in range(1, y.size):
            y[i] -= lower[i - 1] / pivots[i - 1] * y[i - 1]
        y[-1] /= pivots[-1]
        for i in range(y.size - 2, -1, -1):
            y[i] = (y[i] - lower[i] * y[i + 1]) / pivots[i]
        return y

    unit = np.zeros(diag.size, dtype=ld)
    unit[0] = half * load
    response = solve(unit)               # x_{k+1} per unit u_{k+1}
    row = None if feedback is None else feedback[lo:hi + 1].astype(ld)
    inlet = inlet.astype(ld)
    x, u = x0[lo:hi + 1].astype(ld), inlet[0]
    rows, us = [x], [u]
    for step in range(store_at[-1]):
        rhs = (mass - half * diag) * x
        rhs[:-1] -= lower * x[1:]
        rhs[1:] -= lower * x[:-1]
        rhs[0] += half * load * u
        free = solve(rhs)
        u = inlet[step + 1] if row is None else \
            (inlet[step + 1] - row @ free) / (1 + row @ response)
        x = free + response * u
        if step + 1 in store_at:
            rows.append(x)
            us.append(u)
    return np.array(rows), np.array(us)


FD_ORACLE_PROBLEMS = {
    "laplacian": lambda: build_problem(1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 128),
    "transport a=0": lambda: transport_problem(1.0, 2.0, 0.0, 0.0, resolution=128),
    "transport a=1": lambda: transport_problem(1.0, 2.0, 0.0, 1.0, resolution=128),
    "transport a=inf": lambda: transport_problem(1.0, 2.0, 0.0, math.inf, resolution=128),
    "robin inlet": lambda: build_problem(1.0, 1.0, 1.0, 1, 0, 1, -1, 128),
    "scaled dirichlet inlet": lambda: build_problem(1.0, 0.5, 1.0, 1, 0, 2.0, 0, 128),
    "weighted form a=1": lambda: transport_problem(1.0, 2.0, 0.3, 1.0, form="y",
                                                   resolution=128),
    "weighted form a=inf": lambda: transport_problem(1.0, 2.0, 0.3, math.inf, form="y",
                                                     resolution=128),
}


def batch_signals():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tabulated = DisturbanceSignal.tabulated(np.linspace(0.0, 4.0, 30),
                                                np.cos(np.linspace(0.0, 4.0, 30)))
    return [DisturbanceSignal.constant(0.7), DisturbanceSignal.sinusoid(1.3, 2.5, 0.3, 0.2),
            DisturbanceSignal.sinusoid(1.3, 0.0, 0.3, 0.2),
            DisturbanceSignal.smoothed_step(2.0, 0.8), tabulated]


class TestDisturbanceSignal:
    @pytest.mark.parametrize("d", [
        DisturbanceSignal.constant(2.0),
        DisturbanceSignal.sinusoid(1.5, 3.0, phase=0.4, offset=0.2),
        DisturbanceSignal.smoothed_step(2.0, 0.7),
    ])
    def test_derivative_consistency(self, d):
        ts = np.linspace(0.05, 1.3, 9)
        eps = 1e-5
        dd = (d.value(ts + eps) - d.value(ts - eps)) / (2 * eps)
        assert np.allclose(dd, d.derivative(ts), atol=1e-7, rtol=1e-5)

    def test_smoothed_step_is_c2_at_ends(self):
        d = DisturbanceSignal.smoothed_step(3.0, 0.5)
        for t in (0.0, 0.5):
            assert d.derivative(t) == pytest.approx(0.0, abs=1e-14)
        assert d.value(0.5) == pytest.approx(3.0)
        assert d.value(2.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("d", batch_signals(), ids=lambda d: d.kind)
    def test_scalar_evaluation_matches_array(self, d):
        # a 0-d time takes the array path: numpy rounds a scalar u ** 3 differently
        t = np.random.default_rng(7).uniform(-0.2, 4.2, 2000)
        for method in (d.value, d.derivative):
            array = method(t)
            assert np.array_equal(array, [method(x) for x in t])
            assert np.array_equal(array.reshape(40, 50), method(t.reshape(40, 50)))
            assert method(np.float64(t[0])).shape == ()

    def test_tabulated_warns(self):
        with pytest.warns(Warning):
            DisturbanceSignal.tabulated(np.linspace(0, 1, 20), np.linspace(0, 1, 20) ** 2)

    @pytest.mark.parametrize("lam", [0.5, 12.0, 400.0])
    def test_exp_convolution_oracle(self, lam):
        # oracle: adaptive quadrature of e^{-lam (t1-s)} d(s); every kind is exact,
        # the step across the end of its ramp at 0.8 too
        from scipy.integrate import quad
        for d in (DisturbanceSignal.sinusoid(1.3, 2.5, 0.3),
                  DisturbanceSignal.smoothed_step(2.0, 0.8), DisturbanceSignal.constant(0.7)):
            t0, t1 = 0.2, 0.9
            exact, _ = quad(lambda s: math.exp(-lam * (t1 - s)) * float(d.value(np.asarray(s))),
                            t0, t1, epsabs=1e-14, epsrel=1e-12)
            assert d.exp_convolution(lam, t0, t1) == pytest.approx(exact, abs=1e-12)
        # and a short interval, the simulators' regime, to about the quadrature's accuracy
        d = DisturbanceSignal.smoothed_step(2.0, 0.8)
        exact, _ = quad(lambda s: math.exp(-lam * (0.52 - s)) * float(d.value(np.asarray(s))),
                        0.5, 0.52, epsabs=1e-15, epsrel=1e-13)
        assert d.exp_convolution(lam, 0.5, 0.52) == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize("lam, omega, delta", [(1e-8, 1e-9, 1e-3), (1e-8, 1e-6, 1e-3),
                                                   (1e-4, 1e-3, 1e-3)])
    def test_slow_sinusoid_convolution_oracle(self, lam, omega, delta):
        # a slow mode under a slow sinusoid: a real antiderivative over lam^2 + omega^2
        # would cancel like 1e-16/(|lam + i omega| delta), 6.6e-6 relative in the first case
        from scipy.integrate import quad
        d = DisturbanceSignal.sinusoid(1.3, omega, 0.3)
        t0, t1 = 0.2, 0.2 + delta
        for method, f in ((d.exp_convolution, d.value),
                          (d.exp_convolution_derivative, d.derivative)):
            exact, _ = quad(lambda s: math.exp(-lam * (t1 - s)) * float(f(np.asarray(s))),
                            t0, t1, epsabs=0.0, epsrel=2e-14)
            assert method(lam, t0, t1) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("lam, delta", [(0.5 + 0.8j, 0.5), (0.3 + 6.0j, 0.7)])
    def test_j_moments_at_a_complex_rate(self, lam, delta):
        # series (|lam delta| < 1) and recurrence branches; e^{-lam u} = e^{-Re lam u}
        # (cos - i sin)(Im lam u) splits J_k into two real integrals
        from scipy.integrate import quad
        got = _j_moments(lam, delta, 5)
        assert got.dtype == complex
        for k in range(6):
            parts = [quad(lambda s: math.exp(-lam.real * (delta - s)) * s ** k
                          * trig(lam.imag * (delta - s)), 0.0, delta,
                          epsabs=0.0, epsrel=2e-14)[0] for trig in (math.cos, math.sin)]
            assert got[k].real == pytest.approx(parts[0], rel=1e-12, abs=0.0)
            assert got[k].imag == pytest.approx(-parts[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x", [0.0, 1e-9, 1e-6, 1e-3, 0.1, 10.0])
    def test_j_moments_match_series(self, x):
        # the recurrence J_k = (delta^k - k J_{k-1}) / lam cancels as lam delta -> 0
        # (J2 off by 5.4 relative at lam = 1e-6, delta = 1e-2) and divides by zero at lam = 0
        for delta in (1e-2, 4e-6, 0.7):
            lam = x / delta
            got = _j_moments(lam, delta, 5)
            for k in range(6):
                exact = exact_j_moment(lam, delta, k)
                assert got[k] == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_j_moments_broadcast_without_warnings(self):
        lam = np.array([0.0, 1e-7, 2.5, 80.0, 3e4])
        delta = np.array([[1e-3], [0.05]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _j_moments(lam, delta, 5)
        assert got.shape == (6, 2, 5)
        for r, dl in enumerate(delta[:, 0]):
            for c, lm in enumerate(lam):
                assert np.array_equal(got[:, r, c], _j_moments(lm, dl, 5))
                for k in range(6):
                    assert got[k, r, c] == pytest.approx(exact_j_moment(lm, dl, k),
                                                         rel=1e-12, abs=0.0)
        assert got[2, 1, 0] == pytest.approx(0.05 ** 3 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("t0, t1", [(0.31, 0.33), (0.1, 0.8)])
    def test_vectorised_quadrature_matches_scalar_loop(self, t0, t1):
        # one call over 32 modes against the exact oracle taken one mode at a time
        d = DisturbanceSignal.smoothed_step(1.7, 0.9)
        pieces = smoothed_step_pieces(1.7, 0.9)
        lam = np.geomspace(0.5, 1e4, 32)
        for method, derivative in ((d.exp_convolution, False),
                                   (d.exp_convolution_derivative, True)):
            vector = method(lam, t0, t1)
            assert vector.shape == lam.shape
            reference = np.array([exact_exp_convolution(pieces, float(l), t0, t1, derivative)
                                  for l in lam])
            assert np.max(np.abs(vector - reference) / np.abs(reference)) < 1e-13

    @pytest.mark.parametrize("kind", ["smoothed_step", "tabulated"])
    def test_exp_convolution_matches_exact_oracle(self, kind):
        # intervals inside one piece, across the step's ramp ends 0 and 0.9 or across
        # knots of the table on [0, 4], and past either end, where the end pieces
        # extrapolate; the bound is relative to sup |d| (or |d'|) over the interval
        # times the kernel's integral, since d' vanishes to second order at 0.9
        if kind == "smoothed_step":
            d, pieces = DisturbanceSignal.smoothed_step(1.7, 0.9), smoothed_step_pieces(1.7, 0.9)
        else:
            times = np.linspace(0.0, 4.0, 30)
            with pytest.warns(SmoothnessWarning):
                d = DisturbanceSignal.tabulated(times, np.cos(times))
            pieces = spline_pieces(CubicSpline(times, np.cos(times)))
        t0, t1 = np.array([(0.31, 0.33), (0.1, 0.8), (-0.3, 1.2), (0.85, 0.95), (0.0, 0.9),
                           (-0.5, 0.2), (3.9, 4.5), (4.2, 4.6), (-1.0, -0.5), (1.0, 1.0)]).T
        lam = np.array([0.0, 0.5, 12.0, 400.0, 3e4])
        kernel = [[exact_exp_convolution([(-math.inf, math.inf, 0.0, [1])], l, a, b)
                   for l in lam] for a, b in zip(t0, t1)]
        for method, fn, derivative in ((d.exp_convolution, d.value, False),
                                       (d.exp_convolution_derivative, d.derivative, True)):
            got = method(lam, t0, t1)
            exact = np.array([[exact_exp_convolution(pieces, l, a, b, derivative) for l in lam]
                              for a, b in zip(t0, t1)])
            sup = np.array([np.max(np.abs(fn(np.linspace(a, b, 2001)))) for a, b in zip(t0, t1)])
            assert np.all(np.abs(got - exact) <= 1e-12 * sup[:, None] * kernel)

    @pytest.mark.parametrize("d", [DisturbanceSignal.constant(0.7),
                                   DisturbanceSignal.sinusoid(1.3, 2.5, 0.3, 0.2),
                                   DisturbanceSignal.sinusoid(1.3, 0.0, 0.3, 0.2),
                                   DisturbanceSignal.smoothed_step(2.0, 0.8)])
    def test_exp_convolution_vector_matches_scalar_calls(self, d):
        lam = np.array([0.0, 0.5, 12.0, 400.0])
        for method in (d.exp_convolution, d.exp_convolution_derivative):
            vector = method(lam, 0.2, 0.45)
            scalars = [method(float(l), 0.2, 0.45) for l in lam]
            assert all(type(v) is float for v in scalars)
            assert np.allclose(vector, scalars, rtol=1e-14, atol=0.0)


class TestBatchedIntervals:
    """One call over many intervals returns, row for row, the one-interval values."""

    @pytest.mark.parametrize("d", batch_signals(), ids=lambda d: d.kind)
    def test_batch_equals_per_interval_calls(self, d):
        # six intervals of lengths 0.1 to 2.7 across the step's ramp and the table's knots
        t0 = np.array([0.0, 0.25, 0.75, 1.0, 1.1, 3.8])
        t1 = np.array([0.25, 0.75, 1.0, 1.1, 3.8, 4.0])
        lam = np.array([0.0, 0.5, 12.0, 400.0, 3e4])
        for method in (d.exp_convolution, d.exp_convolution_derivative):
            batch = method(lam, t0, t1)
            assert batch.shape == (t0.size, lam.size)
            for i in range(t0.size):
                assert np.array_equal(batch[i], method(lam, float(t0[i]), float(t1[i])))
            # a scalar rate gives one value per interval
            assert np.array_equal(method(12.0, t0, t1), batch[:, 2])

    def test_batch_beyond_chunk_limit(self):
        # 300 intervals by 32 modes: 9,600 elements, more than numpy's 8,192-element
        # ufunc buffer, past which a loop could round differently
        lam = np.geomspace(0.5, 1e4, 32)
        edges = np.linspace(-0.2, 4.3, 301)
        for d in batch_signals():
            for method in (d.exp_convolution, d.exp_convolution_derivative):
                batch = method(lam, edges[:-1], edges[1:])
                assert batch.shape == (edges.size - 1, lam.size)
                for i in range(edges.size - 1):
                    assert np.array_equal(batch[i], method(lam, float(edges[i]),
                                                           float(edges[i + 1])))

    @pytest.mark.parametrize("n_store", [8, 160])
    @pytest.mark.parametrize("d", [DisturbanceSignal.smoothed_step(1.0, 0.5),
                                   DisturbanceSignal.sinusoid(1.0, 3.0, 0.2)],
                             ids=lambda d: d.kind)
    def test_one_convolution_call_per_run(self, monkeypatch, transport_case_problem,
                                          transport_case_spectrum, d, n_store):
        calls = []
        for name in ("exp_convolution", "exp_convolution_derivative"):
            original = getattr(DisturbanceSignal, name)

            def counting(self, *args, original=original, name=name):
                calls.append(name)
                return original(self, *args)

            monkeypatch.setattr(DisturbanceSignal, name, counting)
        x0 = GridFunction(transport_case_problem.grid,
                          np.zeros_like(transport_case_problem.grid))
        for route in (simulate_spectral, simulate_via_lifting):
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                traj = route(transport_case_problem, transport_case_spectrum, d, x0, 2.0,
                             N=16, n_store=n_store)
            assert traj.times.size == n_store + 1
            # the lifted route convolves d itself, not d' through the lift
            assert calls == ["exp_convolution"]

class TestSimulateFd:
    def test_single_mode_decay(self, laplacian_problem, laplacian_spectrum):
        d = DisturbanceSignal.constant(0.0)
        traj = simulate_fd(laplacian_problem, d, laplacian_spectrum.phi(1), 5e-4, 0.2,
                           n_store=10)
        lam1 = laplacian_spectrum.eigenvalues[0]
        expected = traj.norms[0] * np.exp(-lam1 * traj.times)
        assert np.max(np.abs(traj.norms - expected) / expected) < 2e-4

    def test_stationary_at_steady_state(self, laplacian_problem):
        xs = solve_steady_bvp(laplacian_problem, 1.0)
        traj = simulate_fd(laplacian_problem, DisturbanceSignal.constant(1.0), xs,
                           1e-3, 0.3, n_store=6)
        drift = np.max(np.abs(traj.values - xs.values))
        assert drift < 1e-4

    def test_dirichlet_boundary_enforced_exactly(self, transport_case_problem):
        d = DisturbanceSignal.sinusoid(1.0, 2.0)
        x0 = GridFunction(transport_case_problem.grid,
                          np.zeros_like(transport_case_problem.grid))
        traj = simulate_fd(transport_case_problem, d, x0, 1e-3, 0.5, n_store=20)
        worst = np.max(np.abs(traj.values[:, 0] - traj.d_values))
        assert worst <= 1e-6 * np.max(np.abs(traj.d_values))

    def test_robin_inlet_reaches_steady_state(self):
        prob = build_problem(1.0, 1.0, 1.0, 1, 0, 1, -1, 128)
        xs = solve_steady_bvp(prob, 1.0)
        x0 = GridFunction(prob.grid, xs.values.copy())
        traj = simulate_fd(prob, DisturbanceSignal.constant(1.0), x0, 5e-4, 0.5, n_store=6)
        assert np.max(np.abs(traj.values[-1] - xs.values)) < 2e-4

    def test_incompatible_initial_state_projected(self, laplacian_problem):
        bad = GridFunction(laplacian_problem.grid,
                           np.sin(math.pi * laplacian_problem.grid))  # x(0) = 0 != d(0)
        with pytest.warns(CompatibilityWarning):
            traj = simulate_fd(laplacian_problem, DisturbanceSignal.constant(1.0), bad,
                               1e-3, 0.05, n_store=4)
        assert traj.values[0, 0] == pytest.approx(1.0)

    def test_coarse_dt_warns(self, laplacian_problem):
        d = DisturbanceSignal.sinusoid(1.0, 100.0)
        x0 = GridFunction(laplacian_problem.grid, np.zeros_like(laplacian_problem.grid))
        with pytest.warns(StabilityWarning):
            simulate_fd(laplacian_problem, d, x0, 0.01, 0.05, n_store=4)

    def test_cross_solver_convergence_ratio(self):
        # reference: exact-coefficient expansion, compared at a zero of d so
        # that the slowly-decaying boundary tail of the expansion vanishes
        T = math.pi / 2
        d = DisturbanceSignal.sinusoid(1.0, 2.0)
        spec = analytic_transport_spectrum(TransportCase(1.0, 0.0, 0.0, math.inf), 600, 2048)
        prob_ref = build_problem(1.0, 0.0, 1.0, 1, 0, 1, 0, 2048)
        x0_ref = GridFunction(prob_ref.grid, np.zeros(2049))
        ref = simulate_spectral(prob_ref, spec, d, x0_ref, T, N=600, n_store=4)
        ref_vals = ref.values[-1]
        errs = []
        for m, dt in ((64, 4e-3), (128, 2e-3)):
            prob = build_problem(1.0, 0.0, 1.0, 1, 0, 1, 0, m)
            traj = simulate_fd(prob, d, GridFunction(prob.grid, np.zeros(m + 1)), dt, T,
                               n_store=4)
            diff = GridFunction(prob.grid, traj.values[-1] - ref_vals[::2048 // m])
            errs.append(weighted_norm(diff, prob))
        assert 3.0 <= errs[0] / errs[1] <= 5.0


class TestCrankNicolsonLoop:
    """simulate_fd against the reference loop, and the work one run does."""

    @pytest.mark.parametrize("name", sorted(FD_ORACLE_PROBLEMS))
    def test_operator_matches_loop_assembly(self, name):
        problem = FD_ORACLE_PROBLEMS[name]()
        lower, diag, upper, load, lo, hi = loop_semidiscrete_operator(problem)
        got = assembled_operator(problem)
        assert got[4:] == (lo, hi)
        assert not np.any(load[1:])
        for a, b in zip(got[:4], (lower[1:], diag, upper[:-1], load[0])):
            if problem.has_constant_coefficients:
                assert np.array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    @pytest.mark.parametrize("name", sorted(FD_ORACLE_PROBLEMS))
    @pytest.mark.parametrize("d", [DisturbanceSignal.sinusoid(1.0, 3.0),
                                   DisturbanceSignal.smoothed_step(1.0, 0.2)])
    def test_matches_solve_banded_loop(self, name, d):
        problem = FD_ORACLE_PROBLEMS[name]()
        x0 = GridFunction(problem.grid, np.zeros(problem.resolution + 1))  # d(0) = 0
        traj = simulate_fd(problem, d, x0, 1e-3, 0.3, n_store=40)
        states, norms = solve_banded_cn(problem, d, x0, 1e-3, 0.3, 40)
        # the folded step 2 B^{-1} x - x rounds differently from the oracle's
        # B^{-1} (I + hA) x, and for variable coefficients the loop assembly
        # differs by an ulp on the diagonal; over 300 steps both stay near 1e-13
        assert np.max(np.abs(traj.values - states)) <= \
            1e-12 * np.max(np.abs(states))
        assert np.max(np.abs(traj.norms - norms)) <= 1e-12 * np.max(norms)

    @pytest.mark.parametrize("name", ["transport a=inf", "weighted form a=1"])
    def test_long_horizon_matches_solve_banded_loop(self, name):
        """3,000 steps at the fd_envelope scale (M = 256, dt = 5e-4, T = 1.5) on
        the same operator: the fold's rounding does not grow with the step count."""
        problem = FD_ORACLE_PROBLEMS[name]().with_resolution(256)
        d = DisturbanceSignal.sinusoid(1.0, 6.0)
        x0 = GridFunction(problem.grid, np.zeros(problem.resolution + 1))
        traj = simulate_fd(problem, d, x0, 5e-4, 1.5)
        sub, diag, sup, load, lo, hi = assembled_operator(problem)
        same_operator = (np.r_[0.0, sub], diag, np.r_[sup, 0.0],
                         np.r_[load, np.zeros(diag.size - 1)], lo, hi)
        states, norms = solve_banded_cn(problem, d, x0, 5e-4, 1.5, pde_sim.DEFAULT_STORE,
                                        same_operator)
        assert np.max(np.abs(traj.values - states)) <= 1e-11 * np.max(np.abs(states))
        assert np.max(np.abs(traj.norms - norms)) <= 1e-11 * np.max(norms)

    def test_work_per_run(self, monkeypatch, transport_case_problem):
        calls = {"dstevd": 0, "dgtsv": 0, "GridFunction": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(pde_sim, "dstevd", counted("dstevd", lapack.dstevd))
        monkeypatch.setattr(issgain.sturm_liouville, "dgtsv",
                            counted("dgtsv", lapack.dgtsv))
        monkeypatch.setattr(GridFunction, "__post_init__",
                            counted("GridFunction", GridFunction.__post_init__))

        problem = transport_case_problem
        x0 = GridFunction(problem.grid, np.zeros(problem.resolution + 1))
        d = DisturbanceSignal.sinusoid(1.0, 2.0)
        built = []
        for n_store in (160, 8):
            calls.update(dstevd=0, GridFunction=0)
            traj = simulate_fd(problem, d, x0, 1e-3, 0.5, n_store=n_store)
            assert calls["dstevd"] == 1          # one eigensolve per run, none per step
            built.append(calls["GridFunction"])
        assert calls["dgtsv"] == 0
        # the lifting cubic is built whatever the number of stored states
        assert built[0] == built[1] <= 2

        assert traj.values.shape[0] == traj.times.size == 9
        assert not traj.values.flags.writeable

    def test_zero_pivot_is_a_numerical_failure(self, monkeypatch, tmp_path, capsys,
                                               laplacian_problem):
        # a failed eigensolve ends in exit 2 through the CLI
        def failed(*args, **kwargs):
            vals, vectors, _ = lapack.dstevd(*args, **kwargs)
            return vals, vectors, 1
        with monkeypatch.context() as patch:
            patch.setattr(pde_sim, "dstevd", failed)
            assert issgain.cli.main(["simulate", "--solver", "fd", "--T", "0.01",
                                     "--output", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "numerical failure: Crank-Nicolson eigensolve failed")
        # two uncoupled active nodes of mass 1, the inlet one of stiffness s: lam = s
        # exactly, and at dt = 1 a feedback value f there gives 1 + h_0 = 1 + f/4 for s = 2
        problem = laplacian_problem
        inlet, store_at = np.zeros(3), pde_sim._store_indices(2, 2)
        x0 = np.zeros(problem.resolution + 1)

        def uncoupled(stiffness):
            return lambda *args: (np.array([stiffness, 4.0]), np.zeros(1), np.ones(2),
                                  1.0, 1, 2)
        monkeypatch.setattr(pde_sim, "_assemble", uncoupled(-2.0))     # 1 + lam/2 = 0
        with pytest.raises(NumericalFailure, match="Crank-Nicolson matrix is singular"):
            pde_sim._crank_nicolson(problem, inlet, x0, 1.0, store_at)
        monkeypatch.setattr(pde_sim, "_assemble", uncoupled(2.0))
        feedback = np.zeros(problem.resolution + 1)
        feedback[1] = -4.0
        with pytest.raises(NumericalFailure, match="closed-loop inlet equation is singular"):
            pde_sim._crank_nicolson(problem, inlet, x0, 1.0, store_at, feedback=feedback)
        feedback[1] = -2.0                                            # 1 + h_0 = 1/2
        rows, u = pde_sim._crank_nicolson(problem, inlet, x0, 1.0, store_at, feedback=feedback)
        assert np.all(np.isfinite(rows)) and np.all(np.isfinite(u))

    def test_non_finite_stored_row_rejected(self, laplacian_problem):
        grid = laplacian_problem.grid
        x0 = GridFunction(grid, 1e308 * (1.0 - grid))    # compatible with d(0) = 1e308
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="values must be finite"):
            simulate_fd(laplacian_problem, DisturbanceSignal.constant(1e308), x0,
                        1e-3, 0.01, n_store=4)
        values = np.zeros((3, grid.size))
        values[2, 5] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            Trajectory(np.arange(3.0), values, grid, np.zeros(3),
                       DisturbanceSignal.constant(0.0), np.zeros(3), "test", 1.0)
        with pytest.raises(ValueError, match="norms must be finite"):
            Trajectory(np.arange(3.0), np.zeros((3, grid.size)), grid,
                       np.array([0.0, np.nan, 0.0]), DisturbanceSignal.constant(0.0),
                       np.zeros(3), "test", 1.0)

    def test_zero_feedback_row_is_the_open_loop(self, transport_case_problem):
        problem = transport_case_problem
        dt, n_steps = 1e-3, 300
        inlet = np.asarray(DisturbanceSignal.sinusoid(1.0, 3.0).value(dt * np.arange(n_steps + 1)))
        x0 = np.sin(math.pi * problem.grid)
        store_at = pde_sim._store_indices(n_steps, 40)
        open_loop = pde_sim._crank_nicolson(problem, inlet, x0, dt, store_at)
        zero_row = pde_sim._crank_nicolson(problem, inlet, x0, dt, store_at,
                                           feedback=np.zeros(x0.size))
        assert np.array_equal(open_loop[0], zero_row[0])
        assert np.array_equal(open_loop[1], zero_row[1])
        assert np.array_equal(open_loop[1], inlet[store_at])

    @pytest.mark.parametrize("name", ["dirichlet", "robin exit", "robin inlet",
                                      "feedback row"])
    def test_matches_longdouble_step_loop(self, name):
        # 400 steps at M = 64 against the long double loop on the same entries; the
        # largest distance measured was 2.7e-14 of max|x| (robin inlet), and the
        # earlier loop of one tridiagonal solve per step measured up to 6.2e-14
        feedback = None
        if name == "feedback row":
            problem = transport_problem(1.0, 0.0, -5.0, math.inf, resolution=64)
            w = solve_kernel(ClosedLoopConfig(D=1.0, p=5.0, c=2.0), 64).weighted[0]
            feedback = w / (1.0 + w[0])
        else:
            problem = {"dirichlet": build_problem(1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 64),
                       "robin exit": transport_problem(1.0, 2.0, 0.0, 1.0, resolution=64),
                       "robin inlet": build_problem(1.0, 1.0, 1.0, 1, 0, 1, -1, 64)}[name]
        dt, n_steps = 1e-3, 400
        inlet = np.asarray(DisturbanceSignal.sinusoid(1.0, 3.0).value(dt * np.arange(n_steps + 1)))
        x0 = 0.5 * np.sin(math.pi * problem.grid) * (1.0 - problem.grid)
        store_at = pde_sim._store_indices(n_steps, 40)
        rows, u = pde_sim._crank_nicolson(problem, inlet, x0, dt, store_at, feedback)
        ref_rows, ref_u = longdouble_cn(problem, inlet, x0, dt, store_at, feedback)
        lo = 1 if problem.b2 == 0.0 else 0
        ref_rows, ref_u = ref_rows.astype(float), ref_u.astype(float)
        active = rows[:, lo:lo + ref_rows.shape[1]]
        assert np.max(np.abs(active - ref_rows)) <= 1e-13 * np.max(np.abs(ref_rows))
        assert np.max(np.abs(u - ref_u)) <= 1e-13 * np.max(np.abs(ref_u))

    @pytest.mark.parametrize("n_steps", [1, pde_sim.CN_BLOCK - 1, pde_sim.CN_BLOCK,
                                         pde_sim.CN_BLOCK + 1, 3 * pde_sim.CN_BLOCK])
    @pytest.mark.parametrize("n_store", [1, 3, 1000])
    def test_block_boundaries_match_solve_banded_loop(self, n_steps, n_store):
        # one step, one step short of a block, one block, one block and a step, and
        # three blocks, storing only the end, three states (at the block ends of
        # three blocks) or every step
        problem = FD_ORACLE_PROBLEMS["transport a=1"]()
        d = DisturbanceSignal.sinusoid(1.0, 3.0)
        x0 = GridFunction(problem.grid, 0.5 * np.sin(math.pi * problem.grid))   # d(0) = 0
        dt = 2.0 ** -10                  # T/dt is the integer n_steps exactly
        traj = simulate_fd(problem, d, x0, dt, n_steps * dt, n_store=n_store)
        states, norms = solve_banded_cn(problem, d, x0, dt, n_steps * dt, n_store)
        assert traj.values.shape[0] == min(n_store, n_steps) + 1
        assert np.max(np.abs(traj.values - states)) <= 1e-12 * np.max(np.abs(states))
        assert np.max(np.abs(traj.norms - norms)) <= 1e-12 * np.max(norms)

    @pytest.mark.parametrize("route", ["fd", "closed-loop"])
    def test_superposition_from_rest(self, transport_case_problem, route):
        # x0 = 0 and d(0) = 0: the runs of d1, d2 and d1 + d2 through the one step
        # body add up; d1 + d2 is tabulated on the step grid, where it interpolates
        dt, T = 1e-3, 0.5
        *_, steps = pde_sim._time_steps(dt, T)
        d1 = DisturbanceSignal.sinusoid(1.0, 3.0)
        d2 = DisturbanceSignal.smoothed_step(2.0, 0.3)
        with pytest.warns(SmoothnessWarning):
            d12 = DisturbanceSignal.tabulated(steps, d1.value(steps) + d2.value(steps))
        grid = transport_case_problem.grid
        x0 = GridFunction(grid, np.zeros_like(grid))

        def run(d):
            if route == "fd":
                return simulate_fd(transport_case_problem, d, x0, dt, T, n_store=50).values
            cfg = ClosedLoopConfig(D=1.0, p=3.0, c=1.0, d=d)
            return simulate_closed_loop(cfg, x0, dt, T, n_store=50).y.values

        x1, x2, x12 = run(d1), run(d2), run(d12)
        assert np.max(np.abs(x1 + x2 - x12)) <= 1e-12 * np.max(np.abs(x12))


def transport_tube(zeta, a):
    return transport_problem(1.0, 2.0 * zeta, 0.0, a, resolution=256)


SPECTRAL_VS_FD = {
    "tube-4-inf-step": (lambda: transport_tube(4.0, math.inf),
                        DisturbanceSignal.smoothed_step(1.0, 1.0)),
    "tube-0.5-1-step": (lambda: transport_tube(0.5, 1.0), DisturbanceSignal.smoothed_step(1.0, 1.0)),
    "tube-1-inf-sinusoid": (lambda: transport_tube(1.0, math.inf),
                            DisturbanceSignal.sinusoid(1.0, 2.0)),
    "tube-2-0-sinusoid": (lambda: transport_tube(2.0, 0.0), DisturbanceSignal.sinusoid(1.0, 2.0)),
    "robin-inlet-sinusoid": (lambda: build_problem(1, 1, 1, 1, 0, 1, -1, 256),
                             DisturbanceSignal.sinusoid(1.0, 2.0)),
    "laplacian-constant-x0-zero": (lambda: build_problem(1.0, 0.0, 1.0, 1, 0, 1, 0, 256),
                                   DisturbanceSignal.constant(1.0)),
}


class TestSimulateSpectral:
    def test_steady_coefficient(self, laplacian_problem, laplacian_spectrum):
        # steady coefficient of the unit-datum profile: p(0) phi_1'(0)/lambda_1
        d = DisturbanceSignal.constant(1.0)
        x0 = GridFunction(laplacian_problem.grid, 1 - laplacian_problem.grid)
        traj = simulate_spectral(laplacian_problem, laplacian_spectrum, d, x0, 2.0, N=12)
        c1 = traj.extras["coefficients"][-1, 0]
        assert c1 == pytest.approx(math.sqrt(2) / math.pi, abs=1e-7)

    def test_homogeneous_decay_exact(self, laplacian_problem, laplacian_spectrum):
        d = DisturbanceSignal.constant(0.0)
        x0 = laplacian_spectrum.phi(2)
        traj = simulate_spectral(laplacian_problem, laplacian_spectrum, d, x0, 0.5, N=12,
                                 n_store=10)
        lam = laplacian_spectrum.eigenvalues
        c = traj.extras["coefficients"]
        for i, t in enumerate(traj.times):
            assert np.allclose(c[i], c[0] * np.exp(-lam * t), atol=1e-12)

    def test_per_mode_bound(self, transport_case_problem, transport_case_spectrum):
        # |c_n(t)| <= e^{-lam t}|c_n(0)| + |coupling| (1-e^{-lam t})/lam max|d|
        d = DisturbanceSignal.sinusoid(1.0, 3.0)
        x0 = GridFunction(transport_case_problem.grid,
                          np.zeros_like(transport_case_problem.grid))
        traj = simulate_spectral(transport_case_problem, transport_case_spectrum, d, x0,
                                 1.0, N=24, n_store=40)
        lam = traj.extras["eigenvalues"]
        kappa = traj.extras["coupling"]
        c = traj.extras["coefficients"]
        max_d = pde_sim._running_max_abs(d, traj.times)
        for i, t in enumerate(traj.times):
            bound = (np.abs(c[0]) * np.exp(-lam * t)
                     + np.abs(kappa) * (1 - np.exp(-lam * t)) / lam * max_d[i])
            assert np.all(np.abs(c[i]) <= bound + 1e-12)

    def test_norms_match_states(self, laplacian_problem, laplacian_spectrum):
        # the stored norms are the weighted norms of the reconstructed states
        d = DisturbanceSignal.sinusoid(1.0, 2.0)
        x0 = GridFunction(laplacian_problem.grid, np.zeros_like(laplacian_problem.grid))
        traj = simulate_spectral(laplacian_problem, laplacian_spectrum, d, x0, 0.5,
                                 N=12, n_store=10)
        for row, norm in zip(traj.values, traj.norms):
            assert weighted_norm(GridFunction(traj.grid, row), laplacian_problem) == \
                pytest.approx(norm, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(SPECTRAL_VS_FD))
    def test_matches_fd(self, name):
        # the steady-state lift adds back the quasi-static part the kept modes
        # drop, so 32 modes follow CN on the same grid; x0 = 0 misses d(0) = 1
        # in the last case and both routes project it
        make_problem, d = SPECTRAL_VS_FD[name]
        problem = make_problem()
        x0 = GridFunction(problem.grid, np.zeros_like(problem.grid))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CompatibilityWarning)
            spectral = simulate_spectral(problem, solve_spectrum(problem, 32), d, x0, 2.0,
                                         N=32, n_store=40)
            fd = simulate_fd(problem, d, x0, 1e-3, 2.0, n_store=40)
        assert np.max(np.abs(spectral.norms - fd.norms)) < 1e-4 * np.max(fd.norms)

    @pytest.mark.parametrize("problem, tol", [
        (transport_problem(1.0, 2.0, 0.0, 1.0, resolution=256), 1e-12),
        (build_problem(1, 1, 1, 1, 0, 1, -1, 256), 1e-5)], ids=["dirichlet", "robin"])
    def test_states_meet_inlet_datum(self, problem, tol):
        d = DisturbanceSignal.sinusoid(1.5, 3.0, 0.2, 0.4)
        x0 = GridFunction(problem.grid, np.zeros_like(problem.grid))
        with pytest.warns(CompatibilityWarning):
            traj = simulate_spectral(problem, solve_spectrum(problem, 32), d, x0, 1.0,
                                     N=32, n_store=20)
        datum = [problem.b1 * state.value_at_left() + problem.b2 * state.derivative_at_left()
                 for state in (GridFunction(traj.grid, row) for row in traj.values)]
        assert np.max(np.abs(np.array(datum) - traj.d_values)) < tol

    def test_uncertified_raises(self):
        prob = build_problem(1.0, -20.0, 1.0, 1, 0, 1, 0, 256)
        spec = solve_spectrum(prob, 12)
        x0 = GridFunction(prob.grid, np.zeros_like(prob.grid))
        with pytest.raises(UncertifiedHypothesis):
            simulate_spectral(prob, spec, DisturbanceSignal.constant(0.0), x0, 1.0, N=10)

    def test_certifies_before_steady_solve(self, monkeypatch):
        # an uncertified problem fails as uncertified (exit 1), never as a singular BVP
        def singular(*args, **kwargs):
            raise SingularBVP("steady BVP matrix is singular")

        monkeypatch.setattr(pde_sim, "solve_steady_bvp", singular)
        prob = build_problem(1.0, -20.0, 1.0, 1, 0, 1, 0, 256)
        x0 = GridFunction(prob.grid, np.zeros_like(prob.grid))
        with pytest.raises(UncertifiedHypothesis):
            simulate_spectral(prob, solve_spectrum(prob, 12), DisturbanceSignal.constant(0.0),
                              x0, 1.0, N=10)

    @pytest.mark.parametrize("n_store", [0, -3])
    def test_store_below_one_rejected(self, laplacian_problem, laplacian_spectrum, n_store):
        d = DisturbanceSignal.smoothed_step(1.0, 0.2)
        x0 = GridFunction(laplacian_problem.grid, np.zeros_like(laplacian_problem.grid))
        runs = (lambda: simulate_fd(laplacian_problem, d, x0, 1e-3, 0.05, n_store=n_store),
                lambda: simulate_spectral(laplacian_problem, laplacian_spectrum, d, x0, 0.05,
                                          N=12, n_store=n_store),
                lambda: simulate_via_lifting(laplacian_problem, laplacian_spectrum, d, x0,
                                             0.05, N=12, n_store=n_store))
        for run in runs:
            with pytest.raises(ValueError, match="n_store"):
                run()


class TestLifting:
    def test_dirichlet_minimum_norm_cubic(self, laplacian_problem):
        rec = lift_disturbance(laplacian_problem)
        b1n, b2n, c1, c2 = rec.coeffs
        assert (b1n, b2n) == (1.0, 0.0)
        assert c1 == pytest.approx(-0.5, abs=1e-14)
        assert c2 == pytest.approx(-0.5, abs=1e-14)
        assert rec.g.values[0] == pytest.approx(1.0)
        assert rec.g.values[-1] == pytest.approx(0.0, abs=1e-14)

    def test_lift_boundary_identities(self):
        # g satisfies b1 g(0) + b2 g'(0) = s and a1 g(1) + a2 g'(1) = 0
        prob = build_problem(1.0, 0.3, 1.0, 0.7, -1.2, 2.0, 1.0, 128)
        rec = lift_disturbance(prob)
        b1n, b2n, c1, c2 = rec.coeffs
        g0, gp0 = rec.g.values[0], b2n
        g1, gp1 = rec.g.values[-1], b2n + 2.0 * c1 + 3.0 * c2
        assert b1n * g0 + b2n * gp0 == pytest.approx(1.0, abs=1e-12)
        assert prob.a1 * g1 + prob.a2 * gp1 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("problem", [
        transport_problem(1.0, 1.0, 0.0, math.inf, resolution=256),
        transport_problem(1.0, 1.0, 0.0, 1.0, resolution=256),
        build_problem(1, 1, 1, 1, 0, 1, -1, 256)], ids=["tube-a-inf", "tube-a-1", "robin-inlet"])
    def test_lifted_coupling_matches_boundary_coupling(self, problem):
        # Green's identity: (<phi, A g> + lam <phi, g>)/s, for the cubic and for the
        # steady-state lift, is the boundary coupling kappa/s =
        # p(0)(b1 phi'(0) - b2 phi(0))/s^2, up to quadrature error in the low modes
        spectrum = solve_spectrum(problem, 12)
        s = problem.boundary_norm
        p0 = float(problem.p(np.zeros(1))[0])
        kappa = p0 * (problem.b1 * spectrum.derivatives_at_0[:8]
                      - problem.b2 * spectrum.values_at_0[:8]) / s ** 2
        d = DisturbanceSignal.constant(0.0)
        x0 = GridFunction(problem.grid, np.zeros_like(problem.grid))
        for route in (simulate_spectral, simulate_via_lifting):
            coupling = route(problem, spectrum, d, x0, 0.1, N=8, n_store=2).extras["coupling"]
            assert np.max(np.abs(coupling - kappa) / np.abs(kappa)) < 1e-5


class TestForcedSpectral:
    def test_time_varying_forcing_against_modal_oracle(self, laplacian_problem,
                                                       laplacian_spectrum):
        # d = 0.3 + 1.2 sin(2.5 t + 0.4) through the boundary coupling: each mode is
        # the exact solution of c' = -lam c + coupling d, c(0) the projection of x0
        # (x0 = phi_2 misses the inlet datum d(0) and is projected first)
        d = DisturbanceSignal.sinusoid(1.2, 2.5, 0.4, 0.3)
        x0 = laplacian_spectrum.phi(2)
        with pytest.warns(CompatibilityWarning):
            traj = simulate_spectral(laplacian_problem, laplacian_spectrum, d, x0, 0.8,
                                     N=12, n_store=16)
        c, coupling = traj.extras["coefficients"], traj.extras["coupling"]

        def conv_d(lam_n, t):
            # integral_0^t e^{-lam (t-s)} d(s) ds
            om, ph = 2.5, 0.4
            val = lam_n * math.sin(om * t + ph) - om * math.cos(om * t + ph)
            val0 = lam_n * math.sin(ph) - om * math.cos(ph)
            return (0.3 * -math.expm1(-lam_n * t) / lam_n
                    + 1.2 * (val - math.exp(-lam_n * t) * val0) / (lam_n ** 2 + om ** 2))

        for i, t in enumerate(traj.times):
            for n, lam_n in enumerate(traj.extras["eigenvalues"]):
                exact = math.exp(-lam_n * t) * c[0, n] + coupling[n] * conv_d(lam_n, float(t))
                assert c[i, n] == pytest.approx(exact, rel=1e-12, abs=1e-13)

    def test_lifted_route_matches_fd(self, transport_case_problem, transport_case_spectrum):
        d = DisturbanceSignal.sinusoid(1.0, 2.0)
        x0 = GridFunction(transport_case_problem.grid,
                          np.zeros_like(transport_case_problem.grid))
        lifted = simulate_via_lifting(transport_case_problem, transport_case_spectrum,
                                      d, x0, 0.5, N=32, n_store=8)
        fd = simulate_fd(transport_case_problem, d, x0, 2.5e-4, 0.5, n_store=8)
        diff = GridFunction(transport_case_problem.grid,
                            lifted.values[-1] - fd.values[-1])
        assert weighted_norm(diff, transport_case_problem) < 2e-5

    def test_lifted_route_matches_fd_robin_exit(self):
        # exit parameter a = 1: the lifting cubic has nontrivial c1, c2
        from issgain import transport_problem
        problem = transport_problem(1.0, 1.0, 0.0, 1.0, resolution=256)
        spectrum = solve_spectrum(problem, 32)
        d = DisturbanceSignal.sinusoid(1.0, 2.0)
        x0 = GridFunction(problem.grid, np.zeros_like(problem.grid))
        lifted = simulate_via_lifting(problem, spectrum, d, x0, 0.5, N=32, n_store=8)
        fd = simulate_fd(problem, d, x0, 2.5e-4, 0.5, n_store=8)
        diff = GridFunction(problem.grid,
                            lifted.values[-1] - fd.values[-1])
        assert weighted_norm(diff, problem) < 2e-5

    def test_lifted_route_matches_fd_exit_incompatible_state(self):
        # sin(pi z) misses the Robin exit condition x(1) + x'(1) = 0; like fd, the
        # modal route takes it as an L2 initial state
        problem = transport_problem(1.0, 1.0, 0.0, 1.0, resolution=256)
        spectrum = solve_spectrum(problem, 32)
        d = DisturbanceSignal.sinusoid(1.0, 2.0)
        x0 = GridFunction(problem.grid, np.sin(math.pi * problem.grid))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CompatibilityWarning)
            lifted = simulate_via_lifting(problem, spectrum, d, x0, 0.5, N=32, n_store=8)
            fd = simulate_fd(problem, d, x0, 2.5e-4, 0.5, n_store=8)
        assert np.max(np.abs(lifted.norms - fd.norms) / fd.norms) < 1e-5

    def test_lifted_route_matches_fd_robin_inlet(self):
        # mixed inlet condition x(0) - x'(0) = d: exercises the normalized
        # boundary pair in the lifting and the Robin row of the fd scheme
        problem = build_problem(1.0, 1.0, 1.0, 1, 0, 1, -1, 256)
        spectrum = solve_spectrum(problem, 32)
        d = DisturbanceSignal.sinusoid(1.0, 2.0)
        x0 = GridFunction(problem.grid, np.zeros_like(problem.grid))
        lifted = simulate_via_lifting(problem, spectrum, d, x0, 0.5, N=32, n_store=8)
        fd = simulate_fd(problem, d, x0, 2.5e-4, 0.5, n_store=8)
        diff = GridFunction(problem.grid,
                            lifted.values[-1] - fd.values[-1])
        assert weighted_norm(diff, problem) < 5e-5


class TestAdvectionExact:
    def test_pure_transport_exits(self):
        d = DisturbanceSignal.constant(0.0)
        y0 = lambda z: np.sin(np.pi * np.asarray(z)) ** 2
        traj = advection_exact(2.0, 0.3, d, y0, T=0.8, resolution=128, n_store=8)
        # t = 0.8 > 1/v = 0.5: everything has left the tube
        assert np.max(np.abs(traj.values[-1])) == 0.0
        mid = traj.values[2]  # t = 0.2: pure shifted decay
        t = traj.times[2]
        expected = math.exp(-0.3 * t) * y0(traj.grid - 2.0 * t)
        expected[traj.grid <= 2.0 * t] = 0.0
        assert np.max(np.abs(mid - expected)) < 1e-12

    def test_steady_fill(self):
        d = DisturbanceSignal.constant(1.0)
        y0 = lambda z: np.ones_like(np.asarray(z, dtype=float))
        traj = advection_exact(2.0, 0.0, d, y0, T=1.0, resolution=64, n_store=5)
        assert np.max(np.abs(traj.values[-1] - 1.0)) == 0.0

    def test_pde_residual_away_from_characteristic(self):
        d = DisturbanceSignal.sinusoid(1.0, 2.0, phase=math.pi / 2)
        v, k = 1.0, 0.5
        d0 = float(d.value(np.asarray(0.0)))
        y0 = lambda z: d0 * np.exp(-k / v * np.asarray(z))
        def y_at(t):
            return advection_exact(v, k, d, y0, T=t, resolution=256, n_store=1) \
                .values[-1]
        t0, dt = 0.7, 1e-4
        grid = np.linspace(0, 1, 257)
        yt = (y_at(t0 + dt) - y_at(t0 - dt)) / (2 * dt)
        y = y_at(t0)
        yz = np.gradient(y, grid, edge_order=2)
        resid = yt + v * yz + k * y
        away = np.abs(grid - v * t0) > 0.05
        assert np.max(np.abs(resid[away])) < 1e-3

    def test_compatibility_warning(self):
        d = DisturbanceSignal.sinusoid(1.0, 2.0)   # d(0)=0 but d'(0) != 0
        y0 = lambda z: np.zeros_like(np.asarray(z, dtype=float))
        with pytest.warns(CompatibilityWarning):
            advection_exact(1.0, 0.0, d, y0, T=0.1, resolution=64, n_store=2)

    def test_weighted_norm_envelope(self):
        # exact solution obeys the derivation-form gain bound in the
        # e^{-vz/D}-weighted norm with the sliding-window maximum
        v, k, D = 1.0, 0.0, 1.0
        d = DisturbanceSignal.sinusoid(1.0, 2.0, phase=math.pi / 2)
        y0 = lambda z: np.ones_like(np.asarray(z, dtype=float))
        traj = advection_exact(v, k, d, y0, T=3.0, resolution=256, weight_D=D, n_store=60)
        env = IssEnvelope(decay_rate=k + v * v / (2 * D),
                          gain_base=advection_gain(v, D, k),
                          epsilon_dependent=False, max_window=1.0 / v)
        report = verify_iss(traj, env, slack=1e-3)
        assert report.passed


class TestWeightedFormEquivalence:
    def test_original_variables_satisfy_same_envelope(self):
        # the tube in original variables (exponential weights) has the same
        # gain constant and decay rate as its transformed twin: the steady
        # profiles map into each other with unit Jacobian in the weighted
        # norm, so the envelope carries over verbatim
        from issgain import transport_gain, TransportCase
        y_form = transport_problem(1.0, 1.0, 0.0, math.inf, form="y", resolution=256)
        report = transport_gain(TransportCase(1.0, 1.0, 0.0, math.inf))
        envelope = IssEnvelope(decay_rate=report.iss_decay_rate,
                               gain_base=report.gain_C)
        d = DisturbanceSignal.sinusoid(1.0, 2.0)
        y0 = GridFunction(y_form.grid, np.zeros_like(y_form.grid))
        traj = simulate_fd(y_form, d, y0, 5e-4, 1.0, n_store=40)
        check = verify_iss(traj, envelope, epsilons=(0.1, 1.0, 10.0), slack=1e-3)
        assert check.passed

    def test_steady_state_norms_agree_across_forms(self):
        y_form = transport_problem(1.0, 1.0, 0.0, math.inf, form="y", resolution=256)
        x_form = transport_problem(1.0, 1.0, 0.0, math.inf, form="x", resolution=256)
        ys = solve_steady_bvp(y_form, 1.0)
        xs = solve_steady_bvp(x_form, 1.0)
        assert weighted_norm(ys, y_form) == pytest.approx(
            weighted_norm(xs, x_form), abs=1e-8)
        # pointwise: y = e^{vz/2D} x
        assert np.max(np.abs(ys.values - np.exp(ys.grid / 2) * xs.values)) < 1e-6


def sinusoid_max(amplitude, omega, phase, a, b):
    """Closed-form max of |amplitude sin(omega t + phase)| over [a, b]."""
    lo, hi = omega * a + phase, omega * b + phase
    if math.pi / 2 + math.ceil((lo - math.pi / 2) / math.pi) * math.pi <= hi:
        return abs(amplitude)
    return max(abs(amplitude * math.sin(lo)), abs(amplitude * math.sin(hi)))


class TestRunningMax:
    @pytest.mark.parametrize("omega, phase, T, n_store", [(2.0, 0.0, 1.5, 160),
                                                          (7.0, 0.4, 3.0, 40),
                                                          (40.0, 1.0, 2.0, 12)])
    @pytest.mark.parametrize("window", [None, 0.5, 0.03])
    def test_sinusoid_within_sampling_bound(self, omega, phase, T, n_store, window):
        amplitude = 1.7
        d = DisturbanceSignal.sinusoid(amplitude, omega, phase)
        times = pde_sim._store_times(T, n_store)
        got = pde_sim._running_max_abs(d, times, window)
        bound = amplitude * (omega * (T / n_store / 32)) ** 2 / 8.0
        for t, value in zip(times, got):
            start = 0.0 if window is None else max(0.0, t - window)
            exact = sinusoid_max(amplitude, omega, phase, start, t)
            assert exact - bound - 1e-15 <= value <= exact + 1e-15

    def test_one_signal_call(self, monkeypatch):
        d = DisturbanceSignal.sinusoid(1.0, 3.0)
        calls = []
        original = DisturbanceSignal.value

        def counted(self, t):
            calls.append(np.size(t))
            return original(self, t)
        monkeypatch.setattr(DisturbanceSignal, "value", counted)
        times = pde_sim._store_times(2.0, 40)
        pde_sim._running_max_abs(d, times)
        pde_sim._running_max_abs(d, times, 0.25)
        assert calls == [32 * 40 + 1, 32 * 40 + 1 + 41]


class TestVerifyIss:
    def test_homogeneous_margin(self, laplacian_problem, laplacian_spectrum):
        d = DisturbanceSignal.constant(0.0)
        traj = simulate_fd(laplacian_problem, d, laplacian_spectrum.phi(1), 1e-3, 0.3,
                           n_store=12)
        rep_gain = gain_bvp(laplacian_problem, spectrum=laplacian_spectrum)
        report = verify_iss(traj, rep_gain, epsilons=(0.5,), slack=1e-3)
        assert report.passed
        # margin >= (sqrt(1+eps) - 1) e^{-lambda_1 t} ||x0|| up to solver error
        lam1 = laplacian_spectrum.eigenvalues[0]
        floor = (math.sqrt(1.5) - 1) * math.exp(-lam1 * report.argmin_times[0]) \
            * traj.norms[0]
        assert report.min_margins[0] >= 0.99 * floor

    def test_constant_disturbance_margin_shrinks_with_eps(
            self, transport_case_problem, transport_case_spectrum):
        d = DisturbanceSignal.constant(1.0)
        x0 = GridFunction(transport_case_problem.grid, 1 - transport_case_problem.grid)
        traj = simulate_fd(transport_case_problem, d, x0, 1e-3, 1.5, n_store=30)
        rep_gain = gain_bvp(transport_case_problem, spectrum=transport_case_spectrum)
        report = verify_iss(traj, rep_gain, epsilons=(0.1, 1.0, 10.0), slack=1e-3)
        assert report.passed
        assert report.min_margins[0] > report.min_margins[1] > report.min_margins[2] > 0

    def test_missing_parameters(self, laplacian_problem, laplacian_spectrum):
        d = DisturbanceSignal.constant(0.0)
        traj = simulate_fd(laplacian_problem, d, laplacian_spectrum.phi(1), 1e-3, 0.1,
                           n_store=4)
        bad = IssEnvelope(decay_rate=math.nan, gain_base=1.0)
        with pytest.raises(MissingEnvelopeParameters):
            verify_iss(traj, bad)
        good = IssEnvelope(decay_rate=1.0, gain_base=1.0)
        with pytest.raises(ValueError):
            verify_iss(traj, good, epsilons=(0.0, 1.0))
        # no epsilon is no check: an envelope that no trajectory meets must not pass
        with pytest.raises(ValueError, match="needs at least one epsilon"):
            verify_iss(traj, IssEnvelope(decay_rate=1e3, gain_base=1e-9), epsilons=())
        free = IssEnvelope(decay_rate=1e3, gain_base=1e-9, epsilon_dependent=False)
        report = verify_iss(traj, free, epsilons=())     # its one row, epsilon nan
        assert math.isnan(report.epsilons[0]) and report.per_epsilon_pass == (False,)

    @pytest.mark.parametrize("envelope, epsilons", [
        (IssEnvelope(decay_rate=9.8, gain_base=0.3), (0.1, 1.0, 10.0)),
        (IssEnvelope(decay_rate=2.0, gain_base=0.05, overshoot_base=1.7), (1e-3, 0.5, 1e3)),
        (IssEnvelope(decay_rate=1.0, gain_base=0.2, epsilon_dependent=False, max_window=0.5),
         (0.1, 1.0)),
    ])
    def test_one_pass_matches_a_loop_over_epsilon(self, laplacian_problem, envelope,
                                                  epsilons):
        # the reference: the envelope's right-hand side built and checked one epsilon at a
        # time, in the same arithmetic, so every reported number is equal
        d = DisturbanceSignal.sinusoid(1.0, 3.0)
        x0 = GridFunction(laplacian_problem.grid, 0.4 * np.sin(math.pi * laplacian_problem.grid))
        traj = simulate_fd(laplacian_problem, d, x0, 1e-3, 1.0, n_store=40)
        report = verify_iss(traj, envelope, epsilons=epsilons, slack=1e-3)
        maxd = pde_sim._running_max_abs(d, traj.times, envelope.max_window)
        decay = np.exp(-envelope.decay_rate * traj.times)
        rows = []
        for eps in (epsilons if envelope.epsilon_dependent else (math.nan,)):
            over, gain = envelope.overshoot_base, envelope.gain_base
            if envelope.epsilon_dependent:
                over, gain = over * math.sqrt(1.0 + eps), gain * math.sqrt(1.0 + 1.0 / eps)
            rhs = over * decay * traj.norms[0] + gain * maxd
            margin = rhs - traj.norms
            i = int(np.argmin(margin))
            rows.append((eps, margin[i], traj.times[i], margin[i] >= -1e-3 * np.max(rhs),
                         max(0.0, -margin[i]) / np.max(rhs)))
        eps_col, margins, times, passes, violations = zip(*rows)
        assert np.array_equal(report.epsilons, eps_col, equal_nan=True)
        assert report.min_margins == margins and report.argmin_times == times
        assert report.per_epsilon_pass == passes and report.passed == all(passes)
        assert report.worst_relative_violation == max(violations)
        assert not report.passed      # gains below 1/sqrt(3): the violations are compared too
