import math
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dgttrf, dgttrs

import issgain.backstepping as backstepping
import issgain.gains as gains
from issgain import (
    ClosedLoopConfig,
    DisturbanceSignal,
    GridFunction,
    InadmissibleCase,
    IncompatibleInitialCondition,
    IssEnvelope,
    NumericalFailure,
    TransportCase,
    apply_transform,
    bessel_kernel,
    closed_loop_bound,
    simulate_closed_loop,
    solve_inverse_kernel,
    solve_kernel,
    transport_problem,
    uniform_grid,
    verify_iss,
)
from issgain.grids import simpson_weights, tail_quadrature_matrix
from issgain.pde_sim import CN_BLOCK, _store_indices
from issgain.sturm_liouville import _assemble
from oracles import reciprocity_residual

# dblquad of the closed-form kernel squared over the triangle, lam = 5
BESSEL_NORM_LAM5 = 0.8602171154643504


# Reference for the closed-form kernels: the characteristic-variable fixed
# point of the kernel equations, solved by successive approximation.  With
# xi = (1-z)+(1-s), eta = (1-z)-(1-s) the kernel k(z,s) = G(xi,eta) solves
#
#     G(xi,eta) = lam (xi-eta)/4
#                 + lam/4 integral_eta^xi integral_0^eta G(tau,sigma) dsigma dtau,
#
# whose series converges for every lam like a Bessel series.

def cumulative_integral_o4(values, h, axis=-1):
    """Fourth-order cumulative integral along ``axis`` (antiderivative, 0 at start).

    Uses the 4-point Adams-Moulton-type corrector
    ``I[i+1] = I[i] + h/24 (-f[i-1] + 13 f[i] + 13 f[i+1] - f[i+2])``
    with one-sided variants at the ends; exact for cubics.
    """
    f = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    n = f.shape[-1]
    out = np.zeros_like(f)
    if n == 1:
        return np.moveaxis(out, -1, axis)
    if n == 2:
        out[..., 1] = 0.5 * h * (f[..., 0] + f[..., 1])
        return np.moveaxis(out, -1, axis)
    if n == 3:
        out[..., 1] = h / 12.0 * (5 * f[..., 0] + 8 * f[..., 1] - f[..., 2])
        out[..., 2] = out[..., 1] + h / 12.0 * (-f[..., 0] + 8 * f[..., 1] + 5 * f[..., 2])
        return np.moveaxis(out, -1, axis)
    inc = np.empty(f.shape[:-1] + (n - 1,))
    inc[..., 0] = h / 24.0 * (9 * f[..., 0] + 19 * f[..., 1] - 5 * f[..., 2] + f[..., 3])
    inc[..., 1:-1] = h / 24.0 * (
        -f[..., :-3] + 13 * f[..., 1:-2] + 13 * f[..., 2:-1] - f[..., 3:]
    )
    inc[..., -1] = h / 24.0 * (
        f[..., -4] - 5 * f[..., -3] + 19 * f[..., -2] + 9 * f[..., -1]
    )
    np.cumsum(inc, axis=-1, out=inc)
    out[..., 1:] = inc
    return np.moveaxis(out, -1, axis)


def kernel_fixed_point(lam, resolution):
    """Solve the characteristic-variable fixed point on [0,2] x [0,1]."""
    m = resolution
    h = 1.0 / m
    xi = np.linspace(0.0, 2.0, 2 * m + 1)[:, None]
    eta = np.linspace(0.0, 1.0, m + 1)[None, :]
    base = lam * (xi - eta) / 4.0
    g = base.copy()
    diag_idx = np.arange(m + 1)
    for _ in range(200):
        inner = cumulative_integral_o4(g, h, axis=1)
        c_full = cumulative_integral_o4(inner, h, axis=0)
        correction = lam / 4.0 * (c_full - c_full[diag_idx, diag_idx][None, :])
        g_new = base + correction
        delta = np.max(np.abs(g_new - g))
        g = g_new
        if delta <= 1e-10 * max(1.0, float(np.max(np.abs(g)))):
            return g
    raise AssertionError(f"kernel iteration did not reach tolerance (delta={delta:.2e})")


def triangle_from_characteristic(g, resolution):
    """Map G(xi, eta) back to k(z, s) on the triangle z <= s."""
    m = resolution
    k = np.zeros((m + 1, m + 1))
    i = np.arange(m + 1)[:, None]
    j = np.arange(m + 1)[None, :]
    mask = j >= i
    k[mask] = g[(2 * m - i - j)[mask], (j - i)[mask]]
    return k


def triangle_norm(values):
    m = values.shape[0] - 1
    inner = np.sum(tail_quadrature_matrix(m) * values * values, axis=1)
    return math.sqrt((simpson_weights(m + 1) / m) @ inner)


def test_cumulative_o4_exact_on_cubics():
    g = uniform_grid(32)
    vals = g**3 - 2 * g + 1
    exact = g**4 / 4 - g**2 + g
    cum = cumulative_integral_o4(vals, 1 / 32)
    assert np.max(np.abs(cum - exact)) < 1e-14


def test_cumulative_o4_order_on_sine():
    errs = []
    for m in (32, 64):
        g = uniform_grid(m)
        cum = cumulative_integral_o4(np.sin(3 * g), 1 / m)
        exact = (1 - np.cos(3 * g)) / 3
        errs.append(np.max(np.abs(cum - exact)))
    assert errs[0] / errs[1] > 12  # fourth order: factor 16 under halving


class TestKernels:
    def test_matches_bessel_closed_form(self, kernels_lam5):
        forward, _ = kernels_lam5
        oracle = bessel_kernel(5.0, 256)
        assert np.max(np.abs(forward.values - oracle.values)) < 1e-10
        assert abs(forward.norm - BESSEL_NORM_LAM5) <= 1e-6

    def test_inverse_matches_negative_lam_bessel(self, kernels_lam5):
        _, inverse = kernels_lam5
        oracle = bessel_kernel(-5.0, 256)
        assert np.max(np.abs(inverse.values - oracle.values)) < 1e-10

    def test_diagonal_and_edge_conditions(self, kernels_lam5):
        forward, _ = kernels_lam5
        grid = forward.grid
        diag = np.diagonal(forward.values)
        assert np.max(np.abs(diag - 5.0 * (1 - grid) / 2)) < 1e-9
        assert np.max(np.abs(forward.values[:, -1])) < 1e-9

    @pytest.mark.parametrize("p, c", [(5.0, 2.0), (1.0, 0.5), (3.0, 1.0)])
    def test_closed_forms_solve_the_fixed_point(self, p, c):
        cfg = ClosedLoopConfig(D=1.0, p=p, c=c)
        m = 256
        for kernel, lam in ((solve_kernel(cfg, m), cfg.lam_bar),
                            (solve_inverse_kernel(cfg, m), -cfg.lam_bar)):
            oracle = triangle_from_characteristic(kernel_fixed_point(lam, m), m)
            assert np.max(np.abs(kernel.values - oracle)) < 1e-10
            assert abs(kernel.norm - triangle_norm(oracle)) < 1e-9

    def test_overflow_is_a_numerical_failure(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="overflow"):
                bessel_kernel(1e6, 64)
            with pytest.raises(NumericalFailure, match="overflow"):
                solve_kernel(ClosedLoopConfig(D=1.0, p=1e6, c=0.0), 64)

    def test_non_finite_parameters_rejected(self):
        # D and c are checked as the target TransportCase, p beside it
        for field in ("D", "p", "c"):
            for bad in (math.nan, math.inf):
                params = {"D": 1.0, "p": 3.0, "c": 1.0, field: bad}
                with pytest.raises(InadmissibleCase, match=f"^{field} must be finite"):
                    ClosedLoopConfig(**params)

    def test_zero_rate_kernel_vanishes(self):
        k = solve_kernel(ClosedLoopConfig(D=1.0, p=0.0, c=0.0), 64)
        assert np.max(np.abs(k.values)) == 0.0
        assert k.norm == 0.0

    def test_coarse_resolution_rejected(self):
        with pytest.raises(ValueError):
            solve_kernel(ClosedLoopConfig(D=1.0, p=4.0, c=1.0), 16)

    def test_reciprocity_identity(self, kernels_lam5):
        # mutually inverse plus-sign Volterra transforms satisfy
        # l(z,s) + k(z,s) + int_z^s k(z,t) l(t,s) dt = 0
        forward, inverse = kernels_lam5
        assert reciprocity_residual(forward, inverse, stride=16) <= 1e-8


class TestTransforms:
    def test_zero_kernel_is_identity(self):
        k = solve_kernel(ClosedLoopConfig(D=1.0, p=0.0, c=0.0), 64)
        grid = uniform_grid(64)
        f = GridFunction(grid, np.cos(2 * grid))
        out = apply_transform(k, f)
        assert np.max(np.abs(out.values - f.values)) == 0.0

    def test_round_trip(self, kernels_lam5):
        forward, inverse = kernels_lam5
        grid = forward.grid
        f = GridFunction(grid, np.sin(3 * math.pi * grid) + 0.3 * np.cos(2 * math.pi * grid))
        back = apply_transform(inverse, apply_transform(forward, f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-8

    def test_norm_inflation_bound(self, kernels_lam5):
        forward, _ = kernels_lam5
        grid = forward.grid
        h = grid[1] - grid[0]
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = GridFunction(grid, rng.standard_normal(grid.size))
            out = apply_transform(forward, f)
            nf = math.sqrt(np.trapezoid(f.values ** 2, dx=h))
            no = math.sqrt(np.trapezoid(out.values ** 2, dx=h))
            assert no <= (1 + forward.norm) * nf * (1 + 1e-9)

    def test_feedback_values(self, kernels_lam5):
        forward, _ = kernels_lam5
        grid = forward.grid
        # the feedback row gives u = d - int k(0,s) y(s) ds; quadrature oracle at y = 1-z
        from scipy.integrate import quad
        from scipy.special import i1
        lam = forward.lam_bar
        def k0(s):
            arg2 = 1.0 - (1.0 - s) ** 2
            if arg2 <= 0:
                return lam / 2.0
            xi = math.sqrt(lam * arg2)
            return lam * (1.0 - s) * i1(xi) / xi
        exact, _ = quad(lambda s: k0(s) * (1 - s), 0, 1, epsabs=1e-13)
        assert forward.weighted[0] @ (1 - grid) == pytest.approx(exact, abs=1e-9)


def closed_loop_step_oracle(cfg, y0, dt, T, kernel, n_store):
    """The closed-loop Crank-Nicolson loop on its own operator and factors.

    The inlet u = d - integral k(0,s) y ds couples all unknowns through one
    dense row, solved with a Sherman-Morrison correction of the tridiagonal
    solve.  Returns the stored plant states and the inlet values u."""
    m = y0.resolution
    h = 1.0 / m
    w_feedback = kernel.weighted[0]
    u0 = float(cfg.d.value(np.asarray(0.0))) - float(w_feedback @ y0.values)
    n_steps = max(1, math.ceil(T / dt))
    dt = T / n_steps
    n_int = m - 1
    rho = cfg.D / (h * h)
    a_diag = np.full(n_int, -2.0 * rho + cfg.p)
    a_off = np.full(n_int - 1, rho)
    cn_off = -0.5 * dt * a_off
    *cn_lu, info = dgttrf(cn_off, 1.0 - 0.5 * dt * a_diag, cn_off)
    assert info == 0

    w0 = float(w_feedback[0])
    w_int = w_feedback[1:-1] / (1.0 + w0)
    e1 = np.zeros(n_int)
    e1[0] = 1.0
    x2 = dgttrs(*cn_lu, e1)[0]
    sm_denom = 1.0 + 0.5 * dt * rho * float(w_int @ x2)
    d_all = np.asarray(cfg.d.value(dt * np.arange(n_steps + 1)))
    store_at = _store_indices(n_steps, n_store)

    def apply_a(v):
        out = a_diag * v
        out[:-1] += a_off * v[1:]
        out[1:] += a_off * v[:-1]
        return out

    y_int = y0.values[1:-1].copy()
    u = u0
    y_rows = np.zeros((store_at.size, m + 1))
    uvals = np.empty(store_at.size)
    y_rows[0, 1:-1], uvals[0] = y_int, u
    for k in range(1, store_at.size):
        for step in range(store_at[k - 1], store_at[k]):
            d_next = d_all[step + 1] / (1.0 + w0)
            rhs = y_int + 0.5 * dt * apply_a(y_int)
            rhs[0] += 0.5 * dt * rho * (u + d_next)
            x1 = dgttrs(*cn_lu, rhs)[0]
            y_int = x1 - (0.5 * dt * rho * float(w_int @ x1) / sm_denom) * x2
            u = d_next - float(w_int @ y_int)
        y_rows[k, 1:-1], uvals[k] = y_int, u
    y_rows[:, 0] = uvals
    return y_rows, uvals


def compatible_y0(d, kernel, inverse):
    """The plant state of x0 = d(0)(1 - z) + sin(pi z)/2, with y0(0) solved from the
    feedback identity y0(0) = d(0) - integral k(0,s) y0(s) ds."""
    grid = kernel.grid
    d0 = float(d.value(np.asarray(0.0)))
    y0 = apply_transform(inverse, GridFunction(
        grid, d0 * (1.0 - grid) + 0.5 * np.sin(math.pi * grid))).values
    w = kernel.weighted[0]
    y0[0] = (d0 - w[1:] @ y0[1:]) / (1.0 + w[0])
    return GridFunction(grid, y0)


@pytest.fixture(scope="module")
def closed_loop_run():
    cfg = ClosedLoopConfig(D=1.0, p=3.0, c=1.0, d=DisturbanceSignal.sinusoid(1.0, 2.0))
    m = 128
    kernel = solve_kernel(cfg, m)
    inverse = solve_inverse_kernel(cfg, m)
    grid = uniform_grid(m)
    x0 = GridFunction(grid, 0.5 * np.sin(math.pi * grid))
    y0 = apply_transform(inverse, x0)
    result = simulate_closed_loop(cfg, y0, 5e-4, 1.5, kernel=kernel,
                                  inverse_kernel=inverse, n_store=50)
    return cfg, result


class TestClosedLoop:
    def test_transformed_boundary_values(self, closed_loop_run):
        _, result = closed_loop_run
        for i in range(result.x.times.size):
            assert result.x.values[i, 0] == pytest.approx(result.x.d_values[i], abs=1e-9)
            assert result.x.values[i, -1] == 0.0

    def test_norm_sandwich(self, closed_loop_run):
        _, result = closed_loop_run
        kn = result.kernel.norm
        ln = result.inverse_kernel.norm
        assert np.all(result.y.norms <= (1 + ln) * result.x.norms * (1 + 1e-9))
        assert np.all(result.x.norms <= (1 + kn) * result.y.norms * (1 + 1e-9))

    def test_envelope_holds(self, closed_loop_run):
        cfg, result = closed_loop_run
        env = closed_loop_bound(cfg, result.kernel.norm, result.inverse_kernel.norm)
        report = verify_iss(result.y, env, epsilons=(0.1, 1.0, 10.0), slack=1e-3)
        assert report.passed

    def test_homogeneous_decay_rate(self):
        cfg = ClosedLoopConfig(D=1.0, p=3.0, c=1.0, d=DisturbanceSignal.constant(0.0))
        m = 128
        kernel = solve_kernel(cfg, m)
        inverse = solve_inverse_kernel(cfg, m)
        grid = uniform_grid(m)
        y0 = apply_transform(inverse, GridFunction(grid, np.sin(math.pi * grid)))
        result = simulate_closed_loop(cfg, y0, 5e-4, 0.6, kernel=kernel,
                                      inverse_kernel=inverse, n_store=12)
        rate = cfg.c + cfg.D * math.pi ** 2
        bound = ((1 + inverse.norm) * (1 + kernel.norm)
                 * np.exp(-rate * result.y.times) * result.y.norms[0])
        assert np.all(result.y.norms <= bound * (1 + 1e-3))

    def test_zero_rate_loop_is_open_loop_heat(self):
        cfg = ClosedLoopConfig(D=1.0, p=0.0, c=0.0, d=DisturbanceSignal.constant(0.0))
        m = 64
        grid = uniform_grid(m)
        y0 = GridFunction(grid, np.sin(math.pi * grid))
        result = simulate_closed_loop(cfg, y0, 1e-3, 0.2, n_store=8)
        assert np.max(np.abs(result.y.extras["control"])) == 0.0
        expected = result.y.norms[0] * np.exp(-math.pi ** 2 * result.y.times)
        assert np.max(np.abs(result.y.norms - expected) / expected) < 5e-4

    def test_store_below_one_rejected(self):
        cfg = ClosedLoopConfig(D=1.0, p=0.0, c=0.0, d=DisturbanceSignal.constant(0.0))
        grid = uniform_grid(64)
        y0 = GridFunction(grid, np.sin(math.pi * grid))
        with pytest.raises(ValueError, match="n_store"):
            simulate_closed_loop(cfg, y0, 1e-3, 0.05, n_store=0)

    def test_target_equation_residual_second_order(self):
        # interior residual of x_t = D x_zz - c x on the transformed
        # trajectory shrinks ~4x under (dz, dt) halving; the last two nodes
        # are excluded because the final half-cell of the transform
        # quadrature is a two-point rule whose O(h^3) local error
        # differentiates to O(h) there
        cfg = ClosedLoopConfig(D=1.0, p=3.0, c=1.0, d=DisturbanceSignal.sinusoid(1.0, 2.0))

        def residual(m, dt):
            kernel = solve_kernel(cfg, m)
            inverse = solve_inverse_kernel(cfg, m)
            grid = uniform_grid(m)
            x0 = GridFunction(grid, 0.4 * np.sin(math.pi * grid))
            y0 = apply_transform(inverse, x0)
            n_steps = round(0.2 / dt)
            result = simulate_closed_loop(cfg, y0, dt, 0.2, kernel=kernel,
                                          inverse_kernel=inverse, n_store=n_steps)
            xs = result.x.values
            ts = result.x.times
            i = xs.shape[0] // 2
            xt = (xs[i + 1] - xs[i - 1]) / (ts[i + 1] - ts[i - 1])
            h = 1.0 / m
            xzz = (xs[i, :-2] - 2 * xs[i, 1:-1] + xs[i, 2:]) / (h * h)
            res = xt[1:-1] - cfg.D * xzz + cfg.c * xs[i, 1:-1]
            return np.max(np.abs(res[:-2]))

        r1 = residual(64, 5e-4)
        r2 = residual(128, 2.5e-4)
        assert 3.0 <= r1 / r2 <= 5.0

    def test_work_per_run(self, monkeypatch):
        # with both kernels given, the run transforms every stored state with
        # the kernel's own matrix: no quadrature rebuild per state
        cfg = ClosedLoopConfig(D=1.0, p=3.0, c=1.0, d=DisturbanceSignal.sinusoid(1.0, 2.0))
        kernel = solve_kernel(cfg, 64)
        inverse = solve_inverse_kernel(cfg, 64)
        y0 = apply_transform(inverse, GridFunction(kernel.grid, np.sin(math.pi * kernel.grid)))
        calls = {"tail_quadrature_matrix": 0, "apply_transform": 0}

        def counted(name):
            original = getattr(backstepping, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(backstepping, name, wrapper)

        counted("tail_quadrature_matrix")
        counted("apply_transform")
        result = simulate_closed_loop(cfg, y0, 1e-3, 0.1, kernel=kernel,
                                      inverse_kernel=inverse, n_store=50)
        assert calls["tail_quadrature_matrix"] <= 2
        assert calls["apply_transform"] == 0
        x_ref = [apply_transform(kernel, GridFunction(result.y.grid, row)).values
                 for row in result.y.values]
        assert np.max(np.abs(result.x.values - np.array(x_ref))) <= 1e-13

    @pytest.mark.parametrize("D, p, c, m, d", [
        (1.0, 3.0, 1.0, 256, DisturbanceSignal.sinusoid(1.0, 2.0, 0.7)),
        (1.0, 5.0, 2.0, 256, DisturbanceSignal.sinusoid(0.5, 6.0)),
        (0.7, 3.0, 1.0, 64, DisturbanceSignal.smoothed_step(1.0, 0.2)),
    ])
    def test_matches_standalone_step_loop(self, D, p, c, m, d):
        cfg = ClosedLoopConfig(D=D, p=p, c=c, d=d)
        kernel = solve_kernel(cfg, m)
        inverse = solve_inverse_kernel(cfg, m)
        y0 = compatible_y0(d, kernel, inverse)
        result = simulate_closed_loop(cfg, y0, 1e-3, 0.3, kernel=kernel,
                                      inverse_kernel=inverse, n_store=40)
        rows, uvals = closed_loop_step_oracle(cfg, y0, 1e-3, 0.3, kernel, 40)
        # the folded step 2 B^{-1} y - y rounds differently from the oracle's
        # B^{-1} (I + hA) y; both feed the same Sherman-Morrison correction
        assert np.max(np.abs(result.y.values - rows)) <= 1e-12 * np.max(np.abs(rows))
        assert np.max(np.abs(result.y.extras["control"] - uvals)) <= 1e-12 * np.max(np.abs(uvals))

    @pytest.mark.parametrize("n_steps", [1, CN_BLOCK - 1, CN_BLOCK, CN_BLOCK + 1, 3 * CN_BLOCK])
    @pytest.mark.parametrize("n_store", [1, 3, 1000])
    def test_block_boundaries_match_standalone_step_loop(self, n_steps, n_store):
        # the modal run's blocks end, and restart the feedback solve, between these
        # steps; three blocks stored three times are stored at each block's end
        d = DisturbanceSignal.sinusoid(1.0, 2.0, 0.7)
        cfg = ClosedLoopConfig(D=1.0, p=3.0, c=1.0, d=d)
        kernel = solve_kernel(cfg, 64)
        inverse = solve_inverse_kernel(cfg, 64)
        y0 = compatible_y0(d, kernel, inverse)
        dt = 2.0 ** -10                  # T/dt is the integer n_steps exactly
        result = simulate_closed_loop(cfg, y0, dt, n_steps * dt, kernel=kernel,
                                      inverse_kernel=inverse, n_store=n_store)
        rows, uvals = closed_loop_step_oracle(cfg, y0, dt, n_steps * dt, kernel, n_store)
        assert rows.shape[0] == min(n_store, n_steps) + 1
        assert np.max(np.abs(result.y.values - rows)) <= 1e-12 * np.max(np.abs(rows))
        assert np.max(np.abs(result.y.extras["control"] - uvals)) <= 1e-12 * np.max(np.abs(uvals))

    @pytest.mark.parametrize("n_store", [40, 1000])
    @pytest.mark.parametrize("p, dt, T", [(50.0, 1e-2, 1.0), (200.0, 1e-3, 0.3)])
    def test_unstable_plant_matches_standalone_step_loop(self, p, dt, T, n_store):
        # p > D pi^2: the plant's first modes grow, |rho| reaches 1.5 (p = 50) and 1.2
        # (p = 200) per step, and the feedback alone makes the loop decay; a block of
        # 48 such steps would leave each state the small difference of terms 1.5^48
        # times its size.  At n_store = 1000 every step, so every offset of the
        # shortened blocks, is stored
        d = DisturbanceSignal.sinusoid(1.0, 2.0, 0.7)
        cfg = ClosedLoopConfig(D=1.0, p=p, c=1.0, d=d)
        kernel = solve_kernel(cfg, 64)
        inverse = solve_inverse_kernel(cfg, 64)
        y0 = compatible_y0(d, kernel, inverse)
        result = simulate_closed_loop(cfg, y0, dt, T, kernel=kernel,
                                      inverse_kernel=inverse, n_store=n_store)
        rows, uvals = closed_loop_step_oracle(cfg, y0, dt, T, kernel, n_store)
        assert np.max(np.abs(result.y.values - rows)) <= 1e-12 * np.max(np.abs(rows))
        assert np.max(np.abs(result.y.extras["control"] - uvals)) <= 1e-12 * np.max(np.abs(uvals))

    def test_incompatible_initial_state(self):
        cfg = ClosedLoopConfig(D=1.0, p=3.0, c=1.0, d=DisturbanceSignal.constant(1.0))
        grid = uniform_grid(64)
        y0 = GridFunction(grid, np.sin(math.pi * grid))  # y0(0) = 0 != u(0)
        with pytest.raises(IncompatibleInitialCondition):
            simulate_closed_loop(cfg, y0, 1e-3, 0.1)

    def test_degenerate_bound_values(self):
        cfg = ClosedLoopConfig(D=1.0, p=0.0, c=0.0)
        env = closed_loop_bound(cfg, 0.0, 0.0)
        assert env.decay_rate == pytest.approx(math.pi ** 2)
        assert env.overshoot_base == 1.0
        assert env.gain_base == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    @pytest.mark.parametrize("c, D", [(0.7, 1.0), (1.3, 0.6), (1.9, 1.0)])
    def test_bound_scales_the_target_envelope(self, monkeypatch, c, D):
        # the target's closed form alone: no gain series is summed
        def no_series(*args):
            raise AssertionError("closed_loop_bound summed a gain series")
        monkeypatch.setattr(gains, "transport_series_terms", no_series)
        kernel_norm, inverse_norm = 0.8, 1.7
        env = closed_loop_bound(ClosedLoopConfig(D=D, p=3.0, c=c), kernel_norm, inverse_norm)
        target = IssEnvelope.from_case(TransportCase.from_target(c, D))
        assert env == IssEnvelope(decay_rate=target.decay_rate,
                                  gain_base=(1.0 + inverse_norm) * target.gain_base,
                                  overshoot_base=(1.0 + inverse_norm) * (1.0 + kernel_norm))


class TestPlantOperator:
    """The closed loop runs the plant SLProblem p = D, q = -p, r = 1 (Dirichlet):
    its finite-volume stiffness and mass are the reaction-diffusion stencil."""

    @pytest.mark.parametrize("D, p, m", [(1.0, 3.0, 256), (0.7, 5.0, 64), (2.0, -1.0, 128)])
    def test_plant_operator_is_the_reaction_diffusion_stencil(self, D, p, m):
        plant = transport_problem(D, 0.0, -p, math.inf, resolution=m)
        diag, off, mass, load, lo, hi = _assemble(plant, m)
        # m is a power of 2, so h = 1/m and every entry below is exact
        assert (lo, hi) == (1, m - 1)
        assert np.array_equal(off, np.full(m - 2, -D * m))
        assert np.array_equal(diag, np.full(m - 1, 2.0 * D * m - p / m))
        assert np.array_equal(mass, np.full(m - 1, 1.0 / m))
        assert load == D * m

    def test_resolution_below_64_rejected(self):
        cfg = ClosedLoopConfig(D=1.0, p=3.0, c=1.0, d=DisturbanceSignal.constant(0.0))
        kernel = solve_kernel(cfg, 32)                  # kernels alone accept M = 32
        grid = kernel.grid
        with pytest.raises(ValueError, match="resolution must be >= 64"):
            simulate_closed_loop(cfg, GridFunction(grid, np.zeros_like(grid)), 1e-3, 0.1,
                                 kernel=kernel)
