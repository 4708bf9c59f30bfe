"""Property-based checks of structural invariants."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from issgain import (
    GridFunction,
    TransportCase,
    advection_gain,
    backstepping_gain,
    lift_disturbance,
    mu_root,
    build_problem,
    transport_gain,
    transport_gain_closed,
    weighted_norm,
)

finite_a = st.floats(min_value=0.01, max_value=100.0)
zeta_range = st.floats(min_value=0.1, max_value=5.0)


@given(n=st.integers(min_value=1, max_value=60), a=finite_a)
@settings(max_examples=150, deadline=None)
def test_mu_root_bracket_and_residual(n, a):
    mu = mu_root(n, a)
    assert 0.0 < mu < 0.5
    res = math.tan(mu * math.pi) + mu * math.pi / a - n * math.pi / a
    # measurable precision degrades like (n/a)^2 ulps; stay generous
    assert abs(res) <= max(1e-10, 1e-13 * (n / a) ** 2)


@given(zeta=zeta_range, a=finite_a)
@settings(max_examples=60, deadline=None)
def test_transport_series_matches_closed(zeta, a):
    report = transport_gain(TransportCase.from_zeta(zeta, a), N=4000)
    assert report.discrepancy <= 1e-6


@given(zeta=zeta_range, d=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_gain_depends_only_on_zeta(zeta, d):
    # same zeta realized with different (v, D) pairs gives the same gain
    base = transport_gain_closed(zeta, math.inf)
    case = TransportCase(D=d, v=2.0 * d * zeta, k=0.0, a=math.inf)
    assert transport_gain(case, N=200).closed_value == pytest.approx(base, rel=1e-12)


@given(zeta=zeta_range)
@settings(max_examples=40, deadline=None)
def test_gain_monotone_in_exit_parameter(zeta):
    values = [transport_gain_closed(zeta, a) for a in (0.0, 0.5, 2.0, math.inf)]
    assert all(x > y for x, y in zip(values, values[1:]))


@given(c=st.floats(min_value=0.0, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_iss_gain_lower_bound(c):
    report = backstepping_gain(c, 1.0, N=500)
    assert report.iss_gain * report.boundary_norm >= report.gain_C


@given(v=st.floats(min_value=0.05, max_value=20.0),
       d=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_advection_gain_in_unit_interval(v, d):
    g = advection_gain(v, d, 0.0)
    assert 0.0 < g < 1.0


@given(a1=st.floats(-3, 3), a2=st.floats(-3, 3),
       b1=st.floats(-3, 3), b2=st.floats(-3, 3))
@settings(max_examples=80, deadline=None)
def test_lifting_cubic_boundary_identities(a1, a2, b1, b2):
    if abs(a1) + abs(a2) < 1e-3 or abs(b1) + abs(b2) < 1e-3:
        return
    prob = build_problem(1.0, 0.0, 1.0, a1, a2, b1, b2, 64)
    rec = lift_disturbance(prob)
    b1n, b2n, c1, c2 = rec.coeffs
    g0, gp0 = rec.g.values[0], b2n
    g1, gp1 = rec.g.values[-1], b2n + 2.0 * c1 + 3.0 * c2
    assert b1n * g0 + b2n * gp0 == pytest.approx(1.0, abs=1e-9)
    assert a1 * g1 + a2 * gp1 == pytest.approx(0.0, abs=1e-9)


@given(scale=st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_norm_homogeneity(scale):
    prob = build_problem(1.0, 0.0, 2.0, 1, 0, 1, 0, 64)
    grid = prob.grid
    f = GridFunction(grid, np.sin(2.3 * grid) + 0.5)
    scaled = GridFunction(grid, scale * f.values)
    assert weighted_norm(scaled, prob) == pytest.approx(
        abs(scale) * weighted_norm(f, prob), rel=1e-12, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_transform_norm_inflation(seed, kernels_lam5):
    forward, _ = kernels_lam5
    from issgain import apply_transform
    rng = np.random.default_rng(seed)
    grid = forward.grid
    f = GridFunction(grid, rng.standard_normal(grid.size))
    out = apply_transform(forward, f)
    h = grid[1] - grid[0]
    nf = math.sqrt(np.trapezoid(f.values ** 2, dx=h))
    no = math.sqrt(np.trapezoid(out.values ** 2, dx=h))
    assert no <= (1.0 + forward.norm) * nf * (1.0 + 1e-9)
