"""Uniform grids on [0,1], sampled functions and quadrature helpers.

Everything in the package works on uniform partitions of [0,1] with an even
number of intervals so that composite Simpson weights always apply.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch


def uniform_grid(resolution: int) -> np.ndarray:
    """Grid with ``resolution`` intervals (``resolution + 1`` nodes) on [0,1]."""
    if resolution < 2 or resolution % 2:
        raise ValueError("resolution must be an even integer >= 2")
    return np.linspace(0.0, 1.0, resolution + 1)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real function sampled on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or values.shape != grid.shape:
            raise ValueError("grid and values must be 1-D arrays of equal length")
        steps = np.diff(grid)
        if not np.allclose(steps, steps[0], rtol=0, atol=1e-12):
            raise ValueError("grid must be uniform")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def resolution(self) -> int:
        return self.grid.size - 1

    def value_at_left(self) -> float:
        return float(self.values[0])

    def derivative_at_left(self) -> float:
        return derivative_at_left(self.values, self.spacing)


def require_same_grid(f: GridFunction, g_or_grid) -> None:
    grid = g_or_grid.grid if isinstance(g_or_grid, GridFunction) else g_or_grid
    if f.grid.size != np.asarray(grid).size or not np.allclose(f.grid, grid, atol=1e-12, rtol=0):
        raise GridMismatch("operands are sampled on different grids")


def simpson_weights(n_nodes: int) -> np.ndarray:
    """Composite Simpson weights for ``n_nodes`` equally spaced nodes (odd count)."""
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count (even intervals)")
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def simpson_norms(values: np.ndarray, h: float, weight=1.0) -> np.ndarray:
    """Weighted L2 norm sqrt(integral weight f^2) of each row f of ``values``, by
    composite Simpson on spacing ``h``; ``weight`` is a scalar or node samples."""
    w = simpson_weights(values.shape[-1]) * weight
    return np.sqrt(np.maximum(h * np.sum(w * values * values, axis=-1), 0.0))


def derivative_at_left(values: np.ndarray, h: float) -> float:
    """Fourth-order one-sided first derivative at the first node."""
    v = np.asarray(values, dtype=float)
    if v.size < 5:
        return float((v[1] - v[0]) / h)
    return float((-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h))


@functools.cache
def tail_quadrature_matrix(resolution: int) -> np.ndarray:
    """Row ``i`` holds quadrature weights for ``integral from z_i to 1``.

    Fourth-order composite rules: Simpson for even interval counts, Simpson
    plus a trailing 3/8 block for odd counts >= 3.  The single-interval row
    keeps a trapezoid: only two in-triangle samples exist there, and its
    O(h^3) local error cancels between mutually inverse kernels.  Built once
    per resolution and returned read-only.
    """
    h = 1.0 / resolution
    n = resolution + 1
    w = np.zeros((n, n))
    for i in range(n):
        m = resolution - i
        if m == 0:
            continue
        if m == 1:
            w[i, i:] = 0.5 * h
        elif m % 2 == 0:
            w[i, i:] = h * simpson_weights(m + 1)
        else:
            if m > 3:
                w[i, i:n - 3] += h * simpson_weights(m - 2)
            w[i, n - 4:] += h * 3.0 / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    w.flags.writeable = False
    return w
