"""Coefficient handles for the operator: constant, exponential or tabulated.

The exponential kind covers the transport weights p(z) = D e^{-vz/D},
r(z) = e^{-vz/D}, q(z) = k e^{-vz/D}; tabulated coefficients are interpolated
with a cubic spline so that midpoint samples and derivatives stay smooth.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class Coefficient:
    kind: str                     # "constant" | "exp" | "table"
    value: float = 0.0            # constant value, or amplitude of the exponential
    rate: float = 0.0             # exponential rate: value * exp(rate * z)
    _spline: object = field(default=None, repr=False)

    @classmethod
    def constant(cls, value: float) -> "Coefficient":
        return cls("constant", value=float(value))

    @classmethod
    def exponential(cls, amplitude: float, rate: float) -> "Coefficient":
        return cls("exp", value=float(amplitude), rate=float(rate))

    @classmethod
    def table(cls, grid, values) -> "Coefficient":
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size != values.size or grid.size < 8:
            raise ValueError("table needs matching 1-D arrays with >= 8 samples")
        # imported here, not at the top: it adds ~250 ms to every start-up
        from scipy.interpolate import CubicSpline
        # an overflowing spline samples as inf or nan, which build_problem rejects
        with np.errstate(over="ignore", invalid="ignore"):
            spline = CubicSpline(grid, values)
        return cls("table", _spline=spline)

    @classmethod
    def coerce(cls, obj) -> "Coefficient":
        if isinstance(obj, Coefficient):
            return obj
        if np.isscalar(obj):
            return cls.constant(float(obj))
        raise TypeError(f"cannot interpret {obj!r} as a coefficient")

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "constant":
            return np.full_like(z, self.value, dtype=float)
        if self.kind == "exp":
            return self.value * np.exp(self.rate * z)
        return self._spline(z)

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(z, dtype=float)
        if self.kind == "exp":
            return self.rate * self.value * np.exp(self.rate * z)
        return self._spline(z, 1)
