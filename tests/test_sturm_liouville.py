import math
import warnings

import numpy as np
import pytest

from issgain import (
    Coefficient,
    ConvergenceFailure,
    DegenerateBoundary,
    GridFunction,
    NonPositiveCoefficient,
    SingularBVP,
    build_problem,
    check_hypothesis_H,
    ConfigError,
    fourier_coefficients,
    solve_spectrum,
    solve_steady_bvp,
    steady_bvp_residual,
    transport_problem,
    weighted_norm,
)
from issgain.sturm_liouville import _assemble, _solve_raw_spectrum
from oracles import sturm_eigenvalue

SQRT3_INV = 0.5773502691896258


class TestBuildProblem:
    def test_transport_case_coefficients(self):
        prob = transport_problem(2.0, 1.0, 0.5, math.inf)
        grid = prob.grid
        assert np.allclose(prob.p(grid), 2.0)
        assert np.allclose(prob.q(grid), 0.5 + 1.0 / 8.0)
        assert np.allclose(prob.r(grid), 1.0)
        assert (prob.a1, prob.a2, prob.b1, prob.b2) == (1.0, 0.0, 1.0, 0.0)

    def test_nonpositive_coefficient(self):
        with pytest.raises(NonPositiveCoefficient):
            build_problem(-1.0, 0.0, 1.0, 1, 0, 1, 0)
        with pytest.raises(NonPositiveCoefficient):
            build_problem(1.0, 0.0, 0.0, 1, 0, 1, 0)

    def test_overflowing_table_spline_rejected_as_p(self):
        # a table p that spikes to 1e306 mid-interval makes the spline overflow to
        # inf and nan samples; p is named, before any operator row is built
        z = np.linspace(0.0, 1.0, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = Coefficient.table(z, np.where(np.abs(z - 0.5) < 0.01, 1e306, 1.0))
            with pytest.raises(ConfigError, match=r"^p\(z\) must be finite"):
                build_problem(p, 1.0, 1.0, 1, 0, 1, 0)

    def test_degenerate_boundary(self):
        with pytest.raises(DegenerateBoundary):
            build_problem(1.0, 0.0, 1.0, 1, 0, 0, 0)
        with pytest.raises(DegenerateBoundary):
            build_problem(1.0, 0.0, 1.0, 0, 0, 1, 0)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            build_problem(1.0, 0.0, 1.0, 1, 0, 1, 0, resolution=32)


class TestSpectrum:
    def test_dirichlet_laplacian_eigenvalues(self, laplacian_spectrum):
        n = np.arange(1, 11)
        exact = (n * np.pi) ** 2
        rel = np.abs(laplacian_spectrum.eigenvalues[:10] - exact) / exact
        assert np.max(rel) <= 1e-6

    def test_eigenfunctions_are_sines(self, laplacian_problem, laplacian_spectrum):
        grid = laplacian_problem.grid
        for n in (1, 2, 3):
            exact = math.sqrt(2) * np.sin(n * math.pi * grid)
            assert np.max(np.abs(laplacian_spectrum.eigenfunctions[n - 1] - exact)) < 1e-6

    def test_sign_convention(self, laplacian_spectrum):
        assert np.all(laplacian_spectrum.derivatives_at_0 > 0)

    def test_neumann_exit_quarter_pi_squared(self):
        # transport exit parameter a = 0 at zeta = 0: lambda_1 = pi^2/4
        prob = transport_problem(1.0, 0.0, 0.0, 0.0)
        spec = solve_spectrum(prob, 10)
        assert spec.eigenvalues[0] == pytest.approx(math.pi ** 2 / 4, rel=1e-8)

    def test_robin_inlet(self):
        # x(0) - x'(0) = 0, Dirichlet exit: omega tan(omega) root gives
        # lambda_1 = 4.115858365694522 (brentq oracle on tan w = -w)
        prob = build_problem(1.0, 0.0, 1.0, 1, 0, 1, -1, 256)
        spec = solve_spectrum(prob, 5)
        assert spec.eigenvalues[0] == pytest.approx(4.115858365694522, rel=1e-8)

    def test_constant_potential_shift(self, laplacian_problem, laplacian_spectrum):
        shifted = build_problem(1.0, 7.0, 1.0, 1, 0, 1, 0, 256)
        spec = solve_spectrum(shifted, 6)
        assert np.allclose(spec.eigenvalues, laplacian_spectrum.eigenvalues[:6] + 7.0,
                           rtol=1e-10, atol=1e-8)
        assert np.allclose(spec.eigenfunctions, laplacian_spectrum.eigenfunctions[:6],
                           atol=1e-9)

    def test_gram_matrix_identity(self, laplacian_problem, laplacian_spectrum):
        phi = laplacian_spectrum.eigenfunctions[:10]
        h = laplacian_problem.spacing
        w = np.ones(phi.shape[1]); w[1:-1:2] = 4; w[2:-1:2] = 2; w /= 3
        gram = h * (phi * w * laplacian_problem.r(laplacian_problem.grid)) @ phi.T
        assert np.max(np.abs(gram - np.eye(10))) <= 1e-6

    def test_operator_residual(self, laplacian_problem, laplacian_spectrum):
        # apply the operator by fourth-order differences on the interior
        grid = laplacian_problem.grid
        h = laplacian_problem.spacing
        for n in range(1, 11):
            phi = laplacian_spectrum.eigenfunctions[n - 1]
            lam = laplacian_spectrum.eigenvalues[n - 1]
            idx = np.arange(2, grid.size - 2)
            d2 = (-phi[idx - 2] + 16 * phi[idx - 1] - 30 * phi[idx]
                  + 16 * phi[idx + 1] - phi[idx + 2]) / (12 * h * h)
            resid = -d2 - lam * phi[idx]
            rel = math.sqrt(np.mean(resid ** 2)) / lam
            assert rel <= 1e-4

    def test_variable_coefficients_match_transformed_form(self):
        # y-form (exponential weights) and x-form of the same tube share
        # eigenvalues: the pointwise transformation is unitary up to weights
        y_form = transport_problem(1.0, 1.0, 0.0, 0.0, form="y", resolution=256)
        x_form = transport_problem(1.0, 1.0, 0.0, 0.0, form="x", resolution=256)
        sy = solve_spectrum(y_form, 8)
        sx = solve_spectrum(x_form, 8)
        assert np.max(np.abs(sy.eigenvalues - sx.eigenvalues) / sx.eigenvalues) < 1e-8

    def test_too_many_modes_raises(self):
        prob = build_problem(1.0, 0.0, 1.0, 1, 0, 1, 0, 64)
        with pytest.raises(ConvergenceFailure):
            solve_spectrum(prob, 20)


class TestRawEigensolver:
    """Bracket, inverse iteration and Rayleigh-Ritz against a 40-digit Sturm bisection
    of the same discrete pencil."""

    @pytest.mark.parametrize("resolution", [256, 512])
    @pytest.mark.parametrize("problem", [
        build_problem(1.0, -3.0, 2.0, 1, 1, 1, 0),          # negq.cfg of the CLI tests
        transport_problem(1.0, 2.0, 0.0, 1.0),              # zeta = 1, a = 1
    ], ids=["negq", "transport"])
    def test_matches_sturm_bisection(self, problem, resolution):
        diag, off, mass, *_ = _assemble(problem, resolution)
        eigenvalues, _ = _solve_raw_spectrum(problem, resolution, 4)
        for n in (1, 2, 4):
            exact = sturm_eigenvalue(diag, off, mass, n)
            assert eigenvalues[n - 1] == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestHypothesis:
    def test_laplacian_certified(self, laplacian_problem, laplacian_spectrum):
        rep = check_hypothesis_H(laplacian_spectrum, laplacian_problem)
        assert rep.positive and rep.certified
        assert math.isfinite(rep.tail_bound) and rep.tail_bound > 0
        assert rep.method == "transport-bound"

    def test_negative_potential_not_positive(self):
        prob = build_problem(1.0, -20.0, 1.0, 1, 0, 1, 0, 256)
        spec = solve_spectrum(prob, 12)
        rep = check_hypothesis_H(spec, prob)
        assert rep.lambda1 == pytest.approx(math.pi ** 2 - 20.0, rel=1e-6)
        assert not rep.positive and not rep.certified

    def test_transport_case_certified(self, transport_case_problem, transport_case_spectrum):
        rep = check_hypothesis_H(transport_case_spectrum, transport_case_problem)
        assert rep.certified
        # tail bound must dominate the true remainder sum_{n>N} sup|phi|/lambda
        lam_true = 0.25 + (np.arange(33, 5000) * math.pi) ** 2
        true_tail = float(np.sum(math.sqrt(2) / lam_true))
        assert rep.tail_bound >= true_tail

    def test_table_coefficients_uncertified(self):
        z = np.linspace(0, 1, 129)
        prob = build_problem(Coefficient.table(z, 1.0 + 0.2 * z),
                             Coefficient.table(z, 0.3 * z),
                             Coefficient.table(z, np.ones_like(z)),
                             1, 0, 1, 0, 256)
        spec = solve_spectrum(prob, 16)
        rep = check_hypothesis_H(spec, prob)
        assert rep.positive and not rep.certified
        assert rep.method == "none"
        assert rep.tail_bound == math.inf

    def test_needs_ten_modes(self, laplacian_problem):
        spec = solve_spectrum(laplacian_problem, 6)
        with pytest.raises(ValueError):
            check_hypothesis_H(spec, laplacian_problem)

    @pytest.mark.parametrize("problem", [
        build_problem(1.0, 0.0, 1.0, 1, 0, 1, 0, 256),
        build_problem(1.0, -20.0, 1.0, 1, 0, 1, 0, 256),
        transport_problem(1.0, 2.0, 0.3, 1.0, form="y", resolution=256),
    ], ids=["laplacian", "negative-potential", "form-y"])
    @pytest.mark.parametrize("n_modes", [6, 9, 10, 16])
    def test_solved_spectrum_carries_its_report(self, problem, n_modes):
        spec = solve_spectrum(problem, n_modes)
        if n_modes < 10:
            assert spec.hypothesis is None
        else:
            assert spec.hypothesis == check_hypothesis_H(spec, problem)


class TestSteadyBVP:
    def test_laplacian_linear_profile(self, laplacian_problem):
        x = solve_steady_bvp(laplacian_problem, 1.0)
        assert np.max(np.abs(x.values - (1 - x.grid))) < 1e-12
        assert steady_bvp_residual(laplacian_problem, x, 1.0) <= 1e-6

    def test_transport_closed_form(self):
        # x'' = zeta^2 x with x(0)=1, x'(1) = -a x(1):
        #c1 = (zeta-a)/((zeta+a) e^{2 zeta} + zeta - a)
        zeta, a = 1.0, 1.0
        prob = transport_problem(1.0, 2 * zeta, 0.0, a, resolution=256)
        x = solve_steady_bvp(prob, 1.0)
        den = (zeta + a) * math.exp(2 * zeta) + zeta - a
        c1 = (zeta - a) / den
        c2 = (zeta + a) * math.exp(2 * zeta) / den
        exact = c1 * np.exp(zeta * x.grid) + c2 * np.exp(-zeta * x.grid)
        assert np.max(np.abs(x.values - exact)) < 5e-6

    def test_dirichlet_inlet_holds_datum_over_b1(self):
        prob = build_problem(1.0, 0.5, 1.0, 1, 0, 2.0, 0, 128)
        datum = 0.7
        x = solve_steady_bvp(prob, datum)
        assert 2.0 * x.values[0] == datum
        assert steady_bvp_residual(prob, x, datum) <= 1e-12

    def test_non_finite_system_rejected(self):
        # p = 1e306 is finite, but the interior stiffness rows 2p/h overflow
        with pytest.raises(ConfigError, match="operator row overflows at resolution 256"):
            solve_steady_bvp(build_problem(1e306, 1.0, 1.0, 1, 0, 1, 0), 1.0)

    def test_zero_datum_gives_zero(self, transport_case_problem):
        x = solve_steady_bvp(transport_case_problem, 0.0)
        assert np.max(np.abs(x.values)) == 0.0

    def test_singular_bvp(self):
        # b = (1, 1) admits the zero-eigenvalue mode z - 1
        prob = build_problem(1.0, 0.0, 1.0, 1, 0, 1, 1, 256)
        with pytest.raises(SingularBVP):
            solve_steady_bvp(prob, 1.0)


class TestQuadratureOps:
    def test_weighted_norm_linear(self, laplacian_problem):
        f = GridFunction(laplacian_problem.grid, 1 - laplacian_problem.grid)
        assert weighted_norm(f, laplacian_problem) == pytest.approx(SQRT3_INV, abs=1e-12)

    def test_eigenfunction_norm_one(self, laplacian_problem, laplacian_spectrum):
        for n in (1, 5, 10):
            assert weighted_norm(laplacian_spectrum.phi(n), laplacian_problem) == \
                pytest.approx(1.0, abs=1e-9)

    def test_zero_norm(self, laplacian_problem):
        f = GridFunction(laplacian_problem.grid, np.zeros_like(laplacian_problem.grid))
        assert weighted_norm(f, laplacian_problem) == 0.0

    def test_fourier_linear_profile(self, laplacian_problem, laplacian_spectrum):
        # oracle: quad of sqrt(2) sin(pi z) (1-z) on [0,1] = 0.4501581580785531
        f = GridFunction(laplacian_problem.grid, 1 - laplacian_problem.grid)
        coeffs = fourier_coefficients(f, laplacian_spectrum, laplacian_problem)
        assert coeffs[0] == pytest.approx(0.4501581580785531, abs=1e-8)

    def test_fourier_of_eigenfunction(self, laplacian_problem, laplacian_spectrum):
        coeffs = fourier_coefficients(laplacian_spectrum.phi(2), laplacian_spectrum,
                                      laplacian_problem)
        expected = np.zeros(12)
        expected[1] = 1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-9

    def test_fourier_zero(self, laplacian_problem, laplacian_spectrum):
        f = GridFunction(laplacian_problem.grid, np.zeros_like(laplacian_problem.grid))
        assert np.max(np.abs(fourier_coefficients(f, laplacian_spectrum,
                                                  laplacian_problem))) == 0.0

    def test_parseval_residual_decreases(self, laplacian_problem, laplacian_spectrum):
        # smooth member of the domain: sin(pi z) - 0.5 sin(3 pi z)
        grid = laplacian_problem.grid
        f = GridFunction(grid, np.sin(math.pi * grid) - 0.5 * np.sin(3 * math.pi * grid))
        coeffs = fourier_coefficients(f, laplacian_spectrum, laplacian_problem)
        norm_sq = weighted_norm(f, laplacian_problem) ** 2
        res = [abs(np.sum(coeffs[:n] ** 2) - norm_sq) for n in (1, 3, 6)]
        assert res[0] > res[1] >= res[2]
        assert res[2] < 1e-10

    def test_weighted_inner_symmetry(self, laplacian_problem, laplacian_spectrum):
        # <phi_3, phi_1>_r and <phi_1, phi_3>_r from the Fourier coefficients
        def coeffs(n):
            return fourier_coefficients(laplacian_spectrum.phi(n), laplacian_spectrum,
                                        laplacian_problem)
        assert coeffs(1)[2] == pytest.approx(coeffs(3)[0], abs=1e-15)

    def test_steady_state_coefficient_identity(self):
        # the expansion coefficients of the steady state with unit datum are
        # p(0)(b1 phi_n'(0) - b2 phi_n(0)) / (lambda_n sqrt(b1^2+b2^2)) --
        # the identity that makes the series and integral gain routes agree
        prob = build_problem(2.0, 1.0, 1.0, 1, 0, 1, -1, 256)
        spec = solve_spectrum(prob, 12)
        s = prob.boundary_norm
        xs = solve_steady_bvp(prob, s)
        coeffs = fourier_coefficients(xs, spec, prob)
        p0 = 2.0
        predicted = p0 * (spec.derivatives_at_0 / s - (-1.0) * spec.values_at_0 / s) \
            / spec.eigenvalues
        assert np.max(np.abs(coeffs - predicted)) < 1e-6


class TestAssembly:
    """_assemble returns the active window and the inlet column's one nonzero."""

    def test_dirichlet_inlet(self):
        problem = build_problem(Coefficient.exponential(2.0, -0.5), 0.3, 1.0, 1, 1, 4.0, 0, 64)
        diag, off, mass, inlet, lo, hi = _assemble(problem, 64)
        assert (lo, hi) == (1, 64)
        assert diag.size == mass.size == 64 and off.size == 63
        ph0 = float(problem.p(np.array([0.5 / 64]))[0])
        assert inlet == pytest.approx(ph0 * 64 / 4.0, rel=1e-15)

    def test_robin_inlet(self):
        problem = build_problem(3.0, 0.3, 1.0, 1, 0, 2.0, -1.5, 64)
        diag, off, mass, inlet, lo, hi = _assemble(problem, 64)
        assert (lo, hi) == (0, 63)
        assert diag.size == mass.size == 64 and off.size == 63
        assert inlet == -3.0 / -1.5
        assert mass[0] == 0.5 / 64
