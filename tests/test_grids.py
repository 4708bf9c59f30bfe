import numpy as np
import pytest

from issgain.errors import GridMismatch
from issgain.grids import (
    GridFunction,
    derivative_at_left,
    require_same_grid,
    simpson_norms,
    simpson_weights,
    tail_quadrature_matrix,
    uniform_grid,
)


def test_uniform_grid_shape():
    g = uniform_grid(64)
    assert g.size == 65
    assert g[0] == 0.0 and g[-1] == 1.0
    with pytest.raises(ValueError):
        uniform_grid(65)


def test_simpson_exact_on_cubics():
    g = uniform_grid(16)
    vals = 3 * g**3 - g**2 + 2 * g - 5
    exact = 3 / 4 - 1 / 3 + 1 - 5
    assert simpson_weights(17) @ vals / 16 == pytest.approx(exact, abs=1e-14)


def test_simpson_norms_rows_and_weight():
    # each row's weighted integrand z * (c z)^2 is a cubic, so Simpson is exact
    g = uniform_grid(16)
    norms = simpson_norms(np.vstack([g, 2 * g]), 1 / 16, weight=g)
    assert norms == pytest.approx([0.5, 1.0], abs=1e-15)
    assert simpson_norms(g, 1 / 16) == pytest.approx(np.sqrt(1 / 3), abs=1e-15)


def test_simpson_needs_even_intervals():
    with pytest.raises(ValueError):
        simpson_weights(4)


def test_tail_matrix_exact_on_cubics():
    # all rows are fourth-order composites except the single-interval row
    # (second to last), which is a trapezoid by design
    m = 30
    g = uniform_grid(m)
    w = tail_quadrature_matrix(m)
    vals = g**3
    approx = w @ vals
    exact = (1 - g**4) / 4
    err = np.abs(approx - exact)
    assert np.max(err[:m - 1]) < 1e-13
    assert err[m - 1] < 1.0 / m**3


def test_one_sided_derivatives():
    g = uniform_grid(64)
    vals = np.sin(2 * g)
    assert derivative_at_left(vals, 1 / 64) == pytest.approx(2.0, abs=1e-6)


def test_gridfunction_validation():
    g = uniform_grid(8)
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(5))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 0.1, 0.5, 1.0]), np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(9, np.nan))


def test_grid_mismatch():
    f = GridFunction(uniform_grid(8), np.zeros(9))
    with pytest.raises(GridMismatch):
        require_same_grid(f, uniform_grid(10))


def test_tail_matrix_built_once_per_resolution_and_read_only():
    from issgain.backstepping import ClosedLoopConfig, solve_inverse_kernel, solve_kernel
    cfg = ClosedLoopConfig(D=1.0, p=3.0, c=1.0)
    tail_quadrature_matrix.cache_clear()
    kernel = solve_kernel(cfg, 64)
    inverse = solve_inverse_kernel(cfg, 64)
    assert tail_quadrature_matrix.cache_info().misses == 1
    w = tail_quadrature_matrix(64)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    # the kernels carry the same products as with a freshly built matrix
    fresh = tail_quadrature_matrix.__wrapped__(64)
    assert np.array_equal(fresh, w)
    for k in (kernel, inverse):
        assert np.array_equal(k.weighted, fresh * k.values)
