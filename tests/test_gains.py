import math

import numpy as np
import pytest

from issgain import (
    InadmissibleCase,
    SweepTable,
    TransportCase,
    UncertifiedHypothesis,
    advection_gain,
    backstepping_gain,
    build_problem,
    gain_bvp,
    gain_series,
    mu_root,
    mu_roots,
    solve_spectrum,
    sweep_figure1,
    transport_gain,
    transport_gain_closed,
)
from issgain.csvio import kv_block, sweep_table
from issgain.gains import _series_remainder
from oracles import analytic_transport_spectrum, steady_state_coefficients

SQRT3_INV = 0.5773502691896258
G_1_INF = 0.5426663913183775      # closed form at zeta = 1, Dirichlet exit
G_1_ZERO = 0.7686249077312649     # cosh form sqrt((1+sinh2/2)/(2 cosh^2 1))
G_1_ONE = 0.6575198539828996      # exit parameter a = zeta = 1: ||e^{-z}||
ADV_ZETA1 = 0.6575198539828996    # sqrt((1-e^{-2})/2)
MU_1_1 = 0.35422632345659446      # mpmath root of tan(mu pi) + mu pi = pi


class TestMuRoot:
    def test_limits(self):
        assert mu_root(1, math.inf) == 0.0
        assert mu_root(7, math.inf) == 0.0
        assert mu_root(1, 0.0) == 0.5
        assert mu_root(4, 0.0) == 0.5

    def test_reference_value(self):
        assert mu_root(1, 1.0) == pytest.approx(MU_1_1, abs=1e-14)
        assert mu_root(1, 1.0) == pytest.approx(0.3545, abs=5e-4)

    def test_residual_invariant(self):
        # |tan(mu pi) + mu pi/a - n pi/a| <= 1e-10 wherever the residual is
        # measurable in double precision (sec^2 amplifies rounding ~ (n/a)^2)
        for a in (0.5, 1.0, 3.0, 10.0):
            for n in range(1, 101):
                mu = mu_root(n, a)
                assert 0.0 < mu < 0.5
                res = abs(math.tan(mu * math.pi) + mu * math.pi / a - n * math.pi / a)
                assert res <= 1e-10, (n, a, res)

    def test_fixed_points_leave_the_sweep_bit_for_bit(self):
        # dropping a root once the map returns it unchanged gives the 32-sweep result
        def thirty_two_sweeps(ns, a):
            delta = np.full_like(ns, 0.25)
            for _ in range(32):
                delta = np.arctan(a / ((ns - 0.5 + delta) * math.pi)) / math.pi
            return 0.5 - delta
        ns = np.arange(1, 10_001, dtype=float)
        for a in [*np.logspace(-300, 300, 301), 1e-5, 0.3, 1.0, 2.0, 3.7, 10.0, 50.0]:
            assert np.array_equal(mu_roots(ns, a), thirty_two_sweeps(ns, a)), a

    def test_monotone_in_a(self):
        a_grid = [0.1, 0.5, 1.0, 5.0, 50.0]
        mus = [mu_root(2, a) for a in a_grid]
        assert all(x > y for x, y in zip(mus, mus[1:]))


class TestTransportGain:
    def test_closed_form_values(self):
        assert transport_gain_closed(1.0, math.inf) == pytest.approx(G_1_INF, abs=1e-12)
        assert transport_gain_closed(1.0, 0.0) == pytest.approx(G_1_ZERO, abs=1e-12)
        assert transport_gain_closed(1.0, 1.0) == pytest.approx(G_1_ONE, abs=1e-12)

    def test_zero_zeta_limits(self):
        # steady state at zeta = 0 is 1 - a z/(1+a); the Dirichlet-exit limit
        # is 1/sqrt(3), the Neumann-exit limit is 1
        assert transport_gain_closed(0.0, math.inf) == pytest.approx(SQRT3_INV, abs=1e-15)
        assert transport_gain_closed(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert transport_gain_closed(0.0, 1.0) == pytest.approx(math.sqrt(7.0 / 12.0), abs=1e-15)
        assert transport_gain_closed(1e-7, math.inf) == pytest.approx(SQRT3_INV, rel=1e-9)

    def test_large_zeta_stable(self):
        val = transport_gain_closed(500.0, math.inf)
        assert 0 < val < 0.05 and math.isfinite(val)
        assert transport_gain_closed(500.0, 2.0) > 0

    def test_series_matches_closed_dirichlet(self):
        for zeta in np.linspace(0.1, 5, 50):
            report = transport_gain(TransportCase.from_zeta(zeta, math.inf))
            assert report.discrepancy <= 1e-8

    def test_series_matches_closed_robin(self):
        for a in (0.0, 1.0, 4.0):
            for zeta in (0.3, 1.0, 2.5):
                report = transport_gain(TransportCase.from_zeta(zeta, a))
                assert report.discrepancy <= 1e-8

    def test_gain_decreasing_in_exit_parameter(self):
        g = [transport_gain_closed(1.0, a) for a in (0.0, 1.0, math.inf)]
        assert g[0] > g[1] > g[2]

    def test_inadmissible(self):
        with pytest.raises(InadmissibleCase):
            TransportCase(D=1.0, v=1.0, k=-0.3, a=math.inf).zeta

    def test_decay_rate_uses_mu1(self):
        case = TransportCase.from_zeta(1.0, 0.0)
        # a = 0: mu_1 = 1/2, lambda_1 = D (zeta^2 + pi^2/4)
        assert case.lambda1() == pytest.approx(1.0 + math.pi ** 2 / 4, rel=1e-12)


class TestBacksteppingGain:
    def test_zero_target_rate(self):
        rep = backstepping_gain(0.0, 1.0)
        assert rep.gain_C == pytest.approx(SQRT3_INV, abs=1e-15)

    def test_matches_transport_at_unit_zeta(self):
        rep = backstepping_gain(1.0, 1.0)
        assert rep.gain_C == pytest.approx(G_1_INF, abs=1e-12)

    def test_series_matches_closed(self):
        rep = backstepping_gain(2.5, 0.7, N=10_000)
        assert abs(rep.series_value - rep.closed_value) <= 1e-6

    def test_decay_rate(self):
        rep = backstepping_gain(2.0, 3.0)
        assert rep.iss_decay_rate == pytest.approx(2.0 + 3.0 * math.pi ** 2, rel=1e-14)


class TestAdvectionGain:
    def test_reference_value(self):
        assert advection_gain(2.0, 1.0, 0.0) == pytest.approx(ADV_ZETA1, abs=1e-14)

    def test_small_argument_limit(self):
        assert advection_gain(1e-9, 1.0, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_literal_form_differs(self):
        lit = advection_gain(2.0, 1.0, 0.0, form="legacy")
        assert lit == pytest.approx(
            math.sqrt(-math.expm1(-(math.pi ** 3 + math.pi ** -3)) / (math.pi ** 3 + math.pi ** -3)),
            rel=1e-12)
        assert lit < advection_gain(2.0, 1.0, 0.0)

    def test_inadmissible(self):
        with pytest.raises(InadmissibleCase):
            advection_gain(1.0, 1.0, -0.6)

    def test_dominates_dirichlet_gain_everywhere(self):
        # the derivation-form advection gain exceeds G(zeta, inf) for every
        # zeta > 0 (2 u^2 ln u - 3 u^2 + 4 u - 1 > 0 for u = e^{2 zeta} > 1)
        for zeta in np.linspace(0.02, 8, 60):
            assert advection_gain(2 * zeta, 1.0, 0.0) > transport_gain_closed(zeta, math.inf)


class TestGenericRoutes:
    def test_series_plus_tail_hits_closed_value(self, laplacian_problem):
        spec = analytic_transport_spectrum(TransportCase(1.0, 0.0, 0.0, math.inf),
                                           10_000, 256)
        rep = gain_series(laplacian_problem, spec, 10_000)
        assert rep.route == "series"
        assert rep.truncation_N == 10_000
        assert abs(rep.tail_corrected - SQRT3_INV) <= 1e-9

    def test_route_agreement_numeric_spectrum(self, laplacian_problem, laplacian_spectrum):
        series = gain_series(laplacian_problem, laplacian_spectrum, 12)
        bvp = gain_bvp(laplacian_problem, spectrum=laplacian_spectrum)
        assert abs(series.gain_C - bvp.gain_C) <= series.tail_estimate + 1e-6
        assert abs(series.tail_corrected - bvp.gain_C) <= 1e-4

    def test_empty_series(self, laplacian_problem):
        spec = analytic_transport_spectrum(TransportCase(1.0, 0.0, 0.0, math.inf), 100, 256)
        rep = gain_series(laplacian_problem, spec, 0)
        assert rep.gain_C == 0.0
        assert rep.tail_estimate == pytest.approx(SQRT3_INV, abs=1e-6)

    def test_bvp_route_transport(self, transport_case_problem, transport_case_spectrum):
        rep = gain_bvp(transport_case_problem, spectrum=transport_case_spectrum)
        assert rep.gain_C == pytest.approx(transport_gain_closed(0.5, math.inf), abs=1e-9)
        assert rep.route == "bvp_integral"

    def test_uncertified_raises(self):
        prob = build_problem(1.0, -20.0, 1.0, 1, 0, 1, 0, 256)
        spec = solve_spectrum(prob, 12)
        with pytest.raises(UncertifiedHypothesis):
            gain_series(prob, spec, 12)

    def test_scale_covariance(self):
        # scaling (b1, b2) leaves the gain constant invariant, and the
        # combination iss_gain * sqrt(b1^2+b2^2) (the normalized-disturbance
        # gain) is invariant as well
        base = build_problem(1.0, 1.0, 1.0, 1, 0, 1, -1, 256)
        scaled = build_problem(1.0, 1.0, 1.0, 1, 0, 3, -3, 256)
        r1 = gain_bvp(base)
        r2 = gain_bvp(scaled)
        assert r2.gain_C == pytest.approx(r1.gain_C, rel=1e-10)
        assert r2.iss_gain * scaled.boundary_norm == pytest.approx(
            r1.iss_gain * base.boundary_norm, rel=1e-10)

    @pytest.mark.parametrize("a1, a2", [(1, 0), (1, 1), (0, 1)],
                             ids=["dirichlet-exit", "robin-exit", "neumann-exit"])
    def test_route_agreement_robin_inlet(self, a1, a2):
        # the remainder's 2r(s/b2)^2/omega_n^4 leaves the tail-corrected series
        # within the BVP route's accuracy at the default N = 16
        prob = build_problem(2.0, 1.0, 0.5, a1, a2, 1, -1, 256)
        spec = solve_spectrum(prob, 16)
        series = gain_series(prob, spec, 16).tail_corrected
        bvp = gain_bvp(prob, spectrum=spec).gain_C
        assert abs(series - bvp) <= 3e-7 * bvp

    def test_robin_inlet_series_scale_invariant(self):
        # (b1, b2) -> kappa (b1, b2) changes neither the spectrum nor s/b2
        r1, r2 = (gain_series(prob, solve_spectrum(prob, 16), 16).tail_corrected
                  for prob in (build_problem(1.0, 1.0, 1.0, 1, 1, 1, -0.5, 256),
                               build_problem(1.0, 1.0, 1.0, 1, 1, 3, -1.5, 256)))
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_report_envelope_fields(self):
        # every route reports the envelope at its one epsilon, 1
        rep = backstepping_gain(1.0, 1.0)
        assert rep.epsilon == 1.0
        assert rep.iss_overshoot == math.sqrt(2.0)
        assert rep.iss_gain == rep.gain_C * math.sqrt(2.0)
        block = kv_block(rep)
        assert "gain_C = " in block and "route = closed_form" in block

    def test_remark_tightness(self):
        rep = backstepping_gain(1.0, 1.0)
        for eps in (0.01, 0.1, 1.0, 10.0, 1e4):
            gamma = rep.gain_C * math.sqrt(1 + 1 / eps) / rep.boundary_norm
            assert gamma * rep.boundary_norm >= rep.gain_C
        big = rep.gain_C * math.sqrt(1 + 1e-12)
        assert big == pytest.approx(rep.gain_C, rel=1e-9)


class TestSeriesRemainder:
    COEFS = [(2.0, -12.0), (0.0, 8.0), (1.5, 0.7)]

    @pytest.mark.parametrize("shift", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("N", [0, 16, 10_000])
    def test_matches_direct_summation(self, shift, N):
        if N + 1 - shift == 0:
            # omega_1 = 0: the first term, and so the remainder, is infinite
            assert _series_remainder(N, shift, 0.0, 8.0) == math.inf
            return
        K = 10 ** 6                                 # terms summed directly
        omega = (np.arange(N + 1, N + K + 1) - shift) * math.pi
        # the rest, n > N + K, as the integral from N + K + 1/2: error O(K^-3)
        x = (N + K + 0.5 - shift) * math.pi
        for c2, c4 in self.COEFS:
            direct = float(np.sum(c2 / omega ** 2 + c4 / omega ** 4))
            direct += (c2 / x + c4 / (3.0 * x ** 3)) / math.pi
            assert _series_remainder(N, shift, c2, c4) == pytest.approx(max(direct, 0.0),
                                                                         rel=1e-10)

    def test_clipped_at_zero(self):
        assert _series_remainder(16, 0.0, 2.0, -1e9) == 0.0


class TestSweep:
    def test_reference_row(self):
        table = sweep_figure1(np.array([1.0]))
        row = [column[0] for column in sweep_table(table)[1]]
        assert row[0] == 1.0
        assert row[1] == pytest.approx(G_1_ZERO, abs=1e-12)
        assert row[2] == pytest.approx(G_1_ONE, abs=1e-12)
        assert row[3] == pytest.approx(G_1_INF, abs=1e-12)
        assert row[4] == pytest.approx(ADV_ZETA1, abs=1e-12)

    def test_orderings_and_monotonicity(self):
        table = sweep_figure1(np.linspace(0.1, 4, 40))
        assert table.ordering_ok()
        assert all(table.nonincreasing_columns().values())

    def test_crossover_depends_on_advection_form(self):
        zetas = np.linspace(0.05, 4, 80)
        derivation = sweep_figure1(zetas)
        literal = sweep_figure1(zetas, advection_form="legacy")
        assert derivation.crossovers(math.inf) == []
        assert len(literal.crossovers(math.inf)) == 1

    def test_crossover_through_exact_zero_counts_once(self):
        zetas = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        g = np.array([0.5, 1.0, 1.0, 1.5, 1.0])
        table = SweepTable(zetas, (math.inf,), {math.inf: g}, np.ones(5), "derivation")
        # signs of advection - G: +, 0, 0, -, 0 -> one change, bracketed by
        # the nonzero rows around the zeros; the trailing zero starts none
        assert table.crossovers(math.inf) == [(0.5, 2.0)]
        touch = SweepTable(zetas, (math.inf,),
                           {math.inf: np.array([0.5, 1.0, 0.5, 0.5, 0.5])},
                           np.ones(5), "derivation")
        # +, 0, +, +, + touches zero without changing sign
        assert touch.crossovers(math.inf) == []

    def test_steady_state_coefficients_match_profile(self):
        c1, c2 = steady_state_coefficients(1.0, 1.0)
        assert c1 == pytest.approx(0.0, abs=1e-15)
        assert c2 == pytest.approx(1.0, abs=1e-15)


class TestAnalyticSpectrum:
    def test_matches_numeric_solver_robin_exit(self):
        # independent routes to the same eigendata: finite differences with
        # Richardson vs the sine family with bisected frequencies
        case = TransportCase.from_zeta(0.8, 2.0)
        problem = build_problem(case.D, case.q_eff, 1.0, case.a, 1.0, 1.0, 0.0, 256)
        numeric = solve_spectrum(problem, 8)
        analytic = analytic_transport_spectrum(case, 8, 256)
        assert np.max(np.abs(numeric.eigenvalues - analytic.eigenvalues)
                      / analytic.eigenvalues) < 1e-6
        assert np.max(np.abs(numeric.eigenfunctions - analytic.eigenfunctions)) < 1e-5
        assert np.max(np.abs(numeric.derivatives_at_0 - analytic.derivatives_at_0)
                      / analytic.derivatives_at_0) < 1e-5

    def test_decay_rate_matches_numeric_lambda1(self, transport_case_problem,
                                                transport_case_spectrum):
        case = TransportCase(1.0, 1.0, 0.0, math.inf)
        assert case.lambda1() == pytest.approx(
            float(transport_case_spectrum.eigenvalues[0]), rel=1e-8)
