"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as they
are produced.

Criterion 8 checks the figure-style gain comparison ``sweep_figure1``:

* 8b extrapolates every column to zeta -> 0+.  Each transport column must
  reach the norm of its zeta = 0 steady state ``1 - alpha z`` with
  ``alpha = a/(1+a)``, i.e. ``sqrt(1 - alpha + alpha^2/3)``, worked out
  inside the test from the steady profile; the advection column must reach 1.
* 8c compares the advection column with the Dirichlet-exit column on both
  advection-gain conventions: the legacy variant crosses it exactly once,
  near small zeta; the derivation form, the default, dominates it at every
  row.  Why the two differ is derived in the test.
"""
import math
import time

import numpy as np
import pytest

from issgain import (
    ClosedLoopConfig,
    DisturbanceSignal,
    GridFunction,
    IssEnvelope,
    TransportCase,
    advection_exact,
    advection_gain,
    apply_transform,
    build_problem,
    closed_loop_bound,
    gain_bvp,
    gain_series,
    simulate_closed_loop,
    simulate_fd,
    simulate_spectral,
    simulate_via_lifting,
    solve_inverse_kernel,
    solve_kernel,
    solve_spectrum,
    sweep_figure1,
    transport_gain,
    transport_problem,
    uniform_grid,
    verify_iss,
    weighted_norm,
)
from oracles import analytic_transport_spectrum

SQRT3_INV = 0.5773502692
BESSEL_NORM_LAM5 = 0.8602171154643504   # dblquad oracle of the closed form


def check(num: str, label: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_gain_triple_agreement():
    t0 = time.perf_counter()
    problem = transport_problem(1.0, 0.0, 0.0, math.inf, resolution=256)
    spectrum = analytic_transport_spectrum(TransportCase(1.0, 0.0, 0.0, math.inf),
                                           10_000, 256)
    series = gain_series(problem, spectrum, 10_000).tail_corrected
    bvp = gain_bvp(problem).gain_C
    elapsed = time.perf_counter() - t0
    worst = max(abs(series - SQRT3_INV), abs(bvp - SQRT3_INV), abs(series - bvp))
    check("1", "series, integral and closed gain agree to 1e-6 in < 1 s",
          worst <= 1e-6 and elapsed < 1.0,
          f"worst={worst:.2e}, elapsed={elapsed:.2f}s")


def test_criterion_2_identity_across_transport_cases():
    t0 = time.perf_counter()
    worst = 0.0
    for zeta in (0.5, 1.0, 2.0):
        for a in (0.0, 1.0, math.inf):
            case = TransportCase.from_zeta(zeta, a)
            series = transport_gain(case, N=10_000).series_value
            problem = transport_problem(case.D, case.v, case.k, case.a, resolution=256)
            bvp = gain_bvp(problem).gain_C
            worst = max(worst, abs(series - bvp))
    elapsed = time.perf_counter() - t0
    check("2", "series equals the steady-state integral on 9 transport cases",
          worst <= 1e-6 and elapsed < 5.0,
          f"worst={worst:.2e}, elapsed={elapsed:.2f}s")


def test_criterion_3_closed_form_check():
    worst = 0.0
    for zeta in np.linspace(0.1, 5.0, 50):
        report = transport_gain(TransportCase.from_zeta(float(zeta), math.inf), N=10_000)
        worst = max(worst, report.discrepancy)
    check("3", "Dirichlet-exit series and closed form agree to 1e-8 on [0.1, 5]",
          worst <= 1e-8, f"worst={worst:.2e}")


def test_criterion_4_eigensolver_accuracy(laplacian_problem, laplacian_spectrum):
    n = np.arange(1, 11)
    exact = (n * math.pi) ** 2
    lam_err = float(np.max(np.abs(laplacian_spectrum.eigenvalues[:10] - exact) / exact))
    phi = laplacian_spectrum.eigenfunctions[:10]
    h = laplacian_problem.spacing
    w = np.ones(phi.shape[1]); w[1:-1:2] = 4; w[2:-1:2] = 2; w /= 3
    gram = h * (phi * w) @ phi.T
    gram_err = float(np.max(np.abs(gram - np.eye(10))))
    check("4", "eigenvalues within 1e-6 and Gram matrix within 1e-6 of identity",
          lam_err <= 1e-6 and gram_err <= 1e-6,
          f"lam={lam_err:.2e}, gram={gram_err:.2e}")


def test_criterion_5_iss_envelope(transport_case_problem, transport_case_spectrum):
    t0 = time.perf_counter()
    problem = transport_case_problem
    envelope = IssEnvelope.from_gain_report(
        gain_bvp(problem, spectrum=transport_case_spectrum))
    eps = (0.1, 1.0, 10.0)
    grid = problem.grid
    runs = []
    for label, d, x0_vals in (
            ("constant", DisturbanceSignal.constant(1.0), 1 - grid),
            ("sinusoid", DisturbanceSignal.sinusoid(1.0, 2.0), np.zeros_like(grid))):
        x0 = GridFunction(grid, x0_vals)
        fd = simulate_fd(problem, d, x0, 5e-4, 1.5, n_store=120)
        sp = simulate_spectral(problem, transport_case_spectrum, d, x0, 1.5,
                               N=32, n_store=120)
        for method, traj in (("fd", fd), ("spectral", sp)):
            report = verify_iss(traj, envelope, epsilons=eps, slack=1e-3)
            runs.append((label, method, report.passed, report.worst_relative_violation))
    elapsed = time.perf_counter() - t0
    ok = all(r[2] for r in runs) and elapsed < 30.0
    check("5", "ISS envelope holds for fd and spectral runs, both disturbances",
          ok, f"violations={[f'{r[0]}/{r[1]}:{r[3]:.1e}' for r in runs]}, "
              f"elapsed={elapsed:.1f}s")


def test_criterion_6_gain_tightness(transport_case_problem, transport_case_spectrum):
    problem = transport_case_problem
    gain = gain_bvp(problem, spectrum=transport_case_spectrum).gain_C
    lam1 = float(transport_case_spectrum.eigenvalues[0])
    horizon = 10.0 / lam1
    x0 = GridFunction(problem.grid, 1 - problem.grid)
    traj = simulate_fd(problem, DisturbanceSignal.constant(1.0), x0, 2e-4, horizon,
                       n_store=12)
    gap = abs(traj.norms[-1] - gain)
    check("6", "constant unit datum drives the norm to the gain constant",
          gap <= 1e-3, f"|norm(T) - C|={gap:.2e}")


def test_criterion_7_lifting_route_equivalence():
    T = math.pi / 2
    d = DisturbanceSignal.sinusoid(1.0, 2.0)
    prob_ref = build_problem(1.0, 0.25, 1.0, 1, 0, 1, 0, 4096)
    spectrum = solve_spectrum(prob_ref, 200)
    x0_ref = GridFunction(prob_ref.grid, np.zeros(4097))
    lifted = simulate_via_lifting(prob_ref, spectrum, d, x0_ref, T, N=200, n_store=8)
    ref_vals = lifted.values[-1]
    errs = []
    for m, dt in ((64, 4e-3), (128, 2e-3)):
        prob = build_problem(1.0, 0.25, 1.0, 1, 0, 1, 0, m)
        fd = simulate_fd(prob, d, GridFunction(prob.grid, np.zeros(m + 1)), dt, T,
                         n_store=8)
        diff = GridFunction(prob.grid, fd.values[-1] - ref_vals[::4096 // m])
        errs.append(weighted_norm(diff, prob))
    ratio = errs[0] / errs[1]
    check("7", "fd error vs lifting route shrinks by a factor in [3,5] under halving",
          3.0 <= ratio <= 5.0, f"errors={errs[0]:.2e}/{errs[1]:.2e}, ratio={ratio:.2f}")


@pytest.fixture(scope="module")
def figure1_table():
    return sweep_figure1(np.linspace(0.05, 4.0, 80))


def test_criterion_8a_figure1_ordering(figure1_table):
    check("8a", "G(zeta, 0) > G(zeta, 1) > G(zeta, inf) at every row",
          figure1_table.ordering_ok())


def test_criterion_8b_figure1_limits(figure1_table):
    # At zeta = 0 the steady state solves x_zz = 0, x(0) = 1,
    # a x(1) + x_z(1) = 0, so it is 1 - alpha z with alpha = a/(1+a)
    # (alpha = 1 for the Dirichlet exit a = inf).  Its squared L2 norm is
    # the integral of (1 - alpha z)^2 over [0, 1], i.e. 1 - alpha + alpha^2/3:
    # 1 for a = 0, 7/12 for a = 1 and 1/3 for a = inf.  The advection gain
    # sqrt((1 - e^{-2 zeta})/(2 zeta)) tends to 1.
    t = figure1_table
    z1, z2 = t.zetas[0], t.zetas[1]
    limits, expected = {}, {}
    for a in t.a_values:
        g1, g2 = t.g_columns[a][0], t.g_columns[a][1]
        # G^2 is analytic in zeta^2: extrapolate linearly in zeta^2
        limits[a] = g1 + (g1 - g2) * z1 ** 2 / (z2 ** 2 - z1 ** 2)
        alpha = 1.0 if math.isinf(a) else a / (1.0 + a)
        expected[a] = math.sqrt(1.0 - alpha + alpha ** 2 / 3.0)
    adv_limit = t.advection[0] + (t.advection[0] - t.advection[1]) * z1 / (z2 - z1)
    pde_ok = all(abs(limits[a] - expected[a]) <= 5e-3 for a in t.a_values)
    adv_ok = abs(adv_limit - 1.0) <= 5e-3
    detail = ", ".join(f"G(0+,{a})={limits[a]:.4f} (expected {expected[a]:.4f})"
                       for a in t.a_values)
    check("8b", "gain columns -> norm of the steady state 1 - a z/(1+a) and "
                "advection -> 1 as zeta -> 0+",
          pde_ok and adv_ok, detail + f", adv={adv_limit:.4f}")


def test_criterion_8c_figure1_crossover(figure1_table):
    # With the derivation-form advection gain sqrt((1 - e^{-2 zeta})/(2 zeta))
    # the difference to the Dirichlet-exit column is positive for every
    # zeta > 0: substituting u = e^{2 zeta}, the inequality reduces to
    # 2 u^2 ln u - 3 u^2 + 4 u - 1 > 0 for u > 1, which holds since the left
    # side and its derivative vanish at u = 1 and its second derivative is
    # 4 ln u > 0.  The single crossover of the gain-comparison figure belongs
    # to the legacy variant (advection_form='legacy'), which crosses below
    # the Dirichlet-exit column once near small zeta (about zeta = 0.091).
    derivation = figure1_table
    legacy = sweep_figure1(derivation.zetas, advection_form="legacy")
    legacy_crossings = legacy.crossovers(math.inf)
    derivation_crossings = derivation.crossovers(math.inf)
    margin = float(np.min(derivation.advection - derivation.g_columns[math.inf]))
    ok = (len(legacy_crossings) == 1
          and legacy_crossings[0] == pytest.approx((0.05, 0.1), abs=1e-12)
          and derivation_crossings == [] and margin > 0.0)
    check("8c", "legacy advection crosses the Dirichlet column once in "
                "(0.05, 0.1); derivation form dominates it at every row",
          ok, f"legacy crossings={legacy_crossings}, "
              f"derivation crossings={derivation_crossings}, min margin={margin:.2e}")


def test_criterion_9_advection_estimate():
    worst = 0.0
    for v, k, d_ref in ((1.0, 0.0, 1.0), (1.0, 0.3, 1.0), (2.0, 0.0, 0.5)):
        d = DisturbanceSignal.sinusoid(1.0, 2.0, phase=math.pi / 2)
        d0 = float(d.value(np.asarray(0.0)))
        y0 = lambda z, kv=k / v, d0=d0: d0 * np.exp(-kv * np.asarray(z))
        traj = advection_exact(v, k, d, y0, T=3.0, resolution=512,
                               weight_D=d_ref, n_store=90)
        env = IssEnvelope(decay_rate=k + v * v / (2.0 * d_ref),
                          gain_base=advection_gain(v, d_ref, k),
                          epsilon_dependent=False, max_window=1.0 / v)
        report = verify_iss(traj, env, slack=1e-3)
        worst = max(worst, report.worst_relative_violation)
        assert report.passed
    check("9", "exact advection solutions satisfy the derived gain bound",
          worst <= 1e-3, f"worst violation={worst:.2e}")


def test_criterion_10_backstepping_pipeline(kernels_lam5):
    t0 = time.perf_counter()
    forward, inverse = kernels_lam5
    grid = forward.grid
    f = GridFunction(grid, np.sin(3 * math.pi * grid) + 0.3 * np.cos(2 * math.pi * grid))
    back = apply_transform(inverse, apply_transform(forward, f))
    roundtrip = float(np.max(np.abs(back.values - f.values)))
    norm_gap = abs(forward.norm - BESSEL_NORM_LAM5)

    sandwich_ok = True
    envelope_ok = True
    for c in (0.0, 1.0):
        cfg = ClosedLoopConfig(D=1.0, p=3.0, c=c, d=DisturbanceSignal.sinusoid(1.0, 2.0))
        m = 128
        kernel = solve_kernel(cfg, m)
        inv = solve_inverse_kernel(cfg, m)
        g = uniform_grid(m)
        x0 = GridFunction(g, 0.5 * np.sin(math.pi * g))
        y0 = apply_transform(inv, x0)
        result = simulate_closed_loop(cfg, y0, 5e-4, 1.5, kernel=kernel,
                                      inverse_kernel=inv, n_store=80)
        sandwich_ok &= bool(
            np.all(result.y.norms <= (1 + inv.norm) * result.x.norms * (1 + 1e-9))
            and np.all(result.x.norms <= (1 + kernel.norm) * result.y.norms * (1 + 1e-9)))
        env = closed_loop_bound(cfg, kernel.norm, inv.norm)
        report = verify_iss(result.y, env, epsilons=(0.1, 1.0, 10.0), slack=1e-3)
        envelope_ok &= report.passed
    elapsed = time.perf_counter() - t0
    ok = (roundtrip <= 1e-8 and norm_gap <= 1e-6 and sandwich_ok and envelope_ok
          and elapsed < 60.0)
    check("10", "backstepping transforms, kernel oracle and closed-loop envelope",
          ok, f"roundtrip={roundtrip:.2e}, |norm-oracle|={norm_gap:.2e}, "
              f"sandwich={sandwich_ok}, envelope={envelope_ok}, elapsed={elapsed:.1f}s")
