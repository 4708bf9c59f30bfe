"""Plain-text run configuration: `key = value` lines with a schema version.

Example::

    schema = issgain/1
    kind = transport
    D = 1.0
    v = 1.0
    k = 0.0
    a = inf
    resolution = 256

Coefficient kinds: ``constant`` (keys p, q, r), ``transport`` (keys D, v, k,
a and form = x | y) and ``table`` (key table = CSV path with columns
z,p,q,r).  ``constant`` and ``table`` need explicit boundary constants
a1, a2, b1, b2.  A key that the config's kind does not read is an error.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .coefficients import Coefficient
from .errors import ConfigError
from .sturm_liouville import DEFAULT_RESOLUTION, SLProblem, build_problem

SCHEMA = "issgain/1"

_BOUNDARY_KEYS = ("a1", "a2", "b1", "b2")
_KEYS_BY_KIND = {      # the keys each kind reads, besides schema, kind and resolution
    "constant": {"p", "q", "r", *_BOUNDARY_KEYS},
    "transport": {"D", "v", "k", "a", "form"},
    "table": {"table", *_BOUNDARY_KEYS},
}


def parse_config_text(text: str) -> dict:
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = value
    if cfg.get("schema") != SCHEMA:
        raise ConfigError(f"missing or unsupported schema line (expected 'schema = {SCHEMA}')")
    return cfg


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config_text(fh.read())


def _get_float(cfg: dict, key: str, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        number = float(cfg[key])
    except ValueError:
        number = math.nan
    if math.isnan(number):
        raise ConfigError(f"key {key!r}: not a number: {cfg[key]!r}")
    return number


def problem_from_config(cfg: dict) -> SLProblem:
    kind = cfg.get("kind")
    if kind not in _KEYS_BY_KIND:
        raise ConfigError(f"unknown or missing kind: {kind!r}")
    unread = sorted(set(cfg) - {"schema", "kind", "resolution"} - _KEYS_BY_KIND[kind])
    if unread:        # a key the kind ignores is a mistake, not a setting
        raise ConfigError(f"kind {kind} does not read key {unread[0]!r}")
    resolution = _get_float(cfg, "resolution", DEFAULT_RESOLUTION)
    if not (math.isfinite(resolution) and resolution == int(resolution)):
        raise ConfigError(f"key 'resolution': not a finite integer: {cfg['resolution']!r}")
    resolution = int(resolution)
    if kind == "constant":
        return build_problem(
            _get_float(cfg, "p"), _get_float(cfg, "q"), _get_float(cfg, "r"),
            _get_float(cfg, "a1"), _get_float(cfg, "a2"),
            _get_float(cfg, "b1"), _get_float(cfg, "b2"), resolution)
    if kind == "transport":
        d_coef = _get_float(cfg, "D")
        v = _get_float(cfg, "v")
        k = _get_float(cfg, "k")
        a = _get_float(cfg, "a")
        form = cfg.get("form", "x")
        return transport_problem(d_coef, v, k, a, form=form, resolution=resolution)
    path = cfg.get("table")           # kind == "table"
    if not path or not os.path.exists(path):
        raise ConfigError(f"table file not found: {path!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 4:
        raise ConfigError("coefficient table must have columns z,p,q,r")
    z, p, q, r = data.T
    return build_problem(
        Coefficient.table(z, p), Coefficient.table(z, q), Coefficient.table(z, r),
        _get_float(cfg, "a1"), _get_float(cfg, "a2"),
        _get_float(cfg, "b1"), _get_float(cfg, "b2"), resolution)


def transport_problem(D: float, v: float, k: float, a: float,
                      form: str = "x", resolution: int = DEFAULT_RESOLUTION) -> SLProblem:
    """Transport tube as an operator problem.

    ``form='x'``: the cosh/sine-friendly constant-coefficient version
    (p = D, r = 1, q = k + v^2/4D) reached through y = e^{vz/2D} x; exit
    condition x'(1) = -a x(1), Dirichlet for a = inf.
    ``form='y'``: the original variables with exponential weights.
    """
    if D <= 0:
        raise ConfigError("D must be positive")
    if form == "x":
        q = k + v * v / (4.0 * D)
        if math.isinf(a):
            return build_problem(D, q, 1.0, 1.0, 0.0, 1.0, 0.0, resolution)
        return build_problem(D, q, 1.0, a, 1.0, 1.0, 0.0, resolution)
    if form == "y":
        rate = -v / D
        p = Coefficient.exponential(D, rate)
        r = Coefficient.exponential(1.0, rate)
        q = Coefficient.exponential(k, rate)
        if math.isinf(a):
            return build_problem(p, q, r, 1.0, 0.0, 1.0, 0.0, resolution)
        return build_problem(p, q, r, a - v / (2.0 * D), 1.0, 1.0, 0.0, resolution)
    raise ConfigError(f"unknown transport form {form!r}")
