"""The four workloads: how each draws its cases, the CLI commands of one op,
and the check of the op's output against the references in ``reference.py``.

A round is one pass over a run's case list; a run repeats whole rounds.  The
first case of every round sits at the end of the drawn ranges where the
methods' discretisation error is largest, so that ``max_rel_err`` measures
the same worst case in every run; the other cases are drawn from the seed.
"""
from __future__ import annotations

import csv
import math
import os
import random

import numpy as np

import reference as ref

INF = math.inf
ZETA_RANGE = (0.05, 4.0)          # the figure-1 range


def _num(x: float) -> str:
    """Six significant digits: the argument the CLI parses and the reference uses."""
    return "inf" if math.isinf(x) else f"{x:.6g}"


def _rounded(x: float) -> float:
    return float(_num(x))


def _read_columns(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def _rel_err(values, expected, scale=None) -> float:
    values, expected = np.asarray(values, float), np.asarray(expected, float)
    if values.shape != expected.shape:
        return math.inf
    scale = np.abs(expected) if scale is None else scale
    return float(np.max(np.abs(values - expected) / scale))


class Check:
    """Collects the relative errors of one op against their tolerances."""

    def __init__(self):
        self.errors = {}
        self.problems = []

    def error(self, name: str, err: float, tol: float):
        self.errors[name] = max(err, self.errors.get(name, 0.0))
        if not err <= tol:
            self.problems.append(f"{name}: relative error {err:.3e} > {tol:.0e}")

    def require(self, name: str, ok: bool):
        if not ok:
            self.problems.append(name)


class Workload:
    """A subclass defines ``anchor()`` and ``draw(rng, index)``, which give cases;
    ``commands(case, workdir)``, the argv lists of one op; ``reference(case)``;
    and ``check(case, reference, stdouts, workdir, chk)``."""

    name = ""
    n_cases = 0

    def cases(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.anchor()] + [self.draw(rng, i) for i in range(1, self.n_cases)]


def _exit_a(index: int) -> float:
    return (0.0, 1.0, INF)[index % 3]


class GainRoutes(Workload):
    """``spectrum --modes 32`` then ``gain`` on one transport tube or backstepping target."""

    name = "gain_routes"
    n_cases = 16
    modes = 32

    def anchor(self):
        return {"kind": "transport", "zeta": ZETA_RANGE[1], "a": INF}

    def draw(self, rng, index):
        zeta = _rounded(rng.uniform(*ZETA_RANGE))
        if index % 4 == 3:
            return {"kind": "backstepping", "c": _rounded(zeta * zeta)}
        return {"kind": "transport", "zeta": zeta, "a": _exit_a(index)}

    def _problem_args(self, case):
        if case["kind"] == "transport":
            return ["--case", "transport", "--zeta", _num(case["zeta"]), "--a", _num(case["a"])]
        return ["--case", "backstepping", "--c", _num(case["c"])]

    def commands(self, case, workdir):
        problem = self._problem_args(case)
        return [["spectrum", *problem, "--modes", str(self.modes),
                 "--output", os.path.join(workdir, "spectrum.csv")],
                ["gain", *problem]]

    def reference(self, case):
        if case["kind"] == "transport":
            zeta, a = case["zeta"], case["a"]
            lam = ref.eigenvalues(zeta, a, self.modes)
        else:
            zeta, a = math.sqrt(case["c"]), INF
            lam = case["c"] + math.pi ** 2 * np.arange(1, self.modes + 1) ** 2
        return lam, ref.steady_gain(zeta, a)

    def check(self, case, ref_data, outputs, workdir, chk):
        lam, gain = ref_data
        chk.require("spectrum certified", "certified = True" in outputs[0])
        spectrum = _read_columns(os.path.join(workdir, "spectrum.csv"))
        chk.error("eigenvalues", _rel_err(spectrum["lambda"], lam), 1e-4)
        routes = dict(line.split(",") for line in outputs[1].splitlines()[1:4])
        chk.require("three gain routes printed",
                    set(routes) == {"closed_form", "series", "bvp_integral"})
        for route, value in routes.items():
            chk.error(f"gain.{route}", abs(float(value) - gain) / gain, 1e-8)


class FdEnvelope(Workload):
    """``simulate --solver fd --verify-iss``: 3000 CN steps at M = 256."""

    name = "fd_envelope"
    n_cases = 9
    dt, T = 5e-4, 1.5

    def anchor(self):
        return {"zeta": ZETA_RANGE[1], "a": INF, "inlet": "sinusoid", "omega": 6.0,
                "amplitude": 1.0}

    def draw(self, rng, index):
        case = {"zeta": _rounded(rng.uniform(*ZETA_RANGE)), "a": _exit_a(index),
                "amplitude": _rounded(rng.uniform(0.5, 2.0))}
        if index % 3 == 2:
            case.update(inlet="constant", omega=0.0)
        else:
            case.update(inlet="sinusoid", omega=_rounded(rng.uniform(1.0, 6.0)))
        return case

    def commands(self, case, workdir):
        cmd = ["simulate", "--solver", "fd", "--case", "transport",
               "--zeta", _num(case["zeta"]), "--a", _num(case["a"]),
               "--disturbance", case["inlet"], "--amplitude", _num(case["amplitude"]),
               "--omega", _num(case["omega"]), "--dt", _num(self.dt), "--T", _num(self.T),
               "--output", os.path.join(workdir, "traj.csv"),
               "--verify-iss", "--iss-output", os.path.join(workdir, "iss.csv")]
        if case["inlet"] == "constant":
            cmd += ["--x0", "lift"]          # x0 = A g: compatible with the inlet
        return [cmd]

    def reference(self, case):
        amp = case["amplitude"]
        if case["inlet"] == "constant":
            g = ref.lift_cubic(case["a"])
            x0 = lambda z: amp * g(z)
        else:
            x0 = np.zeros_like
        return ref.TubeSolution(case["zeta"], case["a"], 1.0, amp, case["omega"], x0)

    def check(self, case, sol, outputs, workdir, chk):
        traj = _read_columns(os.path.join(workdir, "traj.csv"))
        iss = _read_columns(os.path.join(workdir, "iss.csv"))
        chk.require("every ISS envelope passes", bool(np.all(iss["pass"] == 1.0)))
        exact = np.array([sol.norm(t) for t in traj["t"]])
        chk.error("fd.norm_r", _rel_err(traj["norm_r"], exact, np.max(exact)), 5e-5)


class SpectralStep(Workload):
    """One smoothed-step case through ``--solver spectral`` and then ``--solver lifted``."""

    name = "spectral_step"
    n_cases = 4
    T, store, modes = 9.0, 40, 32
    tolerance = {"spectral": 5e-2, "lifted": 1e-4}

    def anchor(self):
        return {"zeta": ZETA_RANGE[1], "a": INF, "ramp": 1.0, "amplitude": 1.0}

    def draw(self, rng, index):
        return {"zeta": _rounded(rng.uniform(*ZETA_RANGE)), "a": _exit_a(index),
                "ramp": _rounded(rng.uniform(0.2, 1.0)),
                "amplitude": _rounded(rng.uniform(0.5, 2.0))}

    def commands(self, case, workdir):
        return [["simulate", "--solver", solver, "--case", "transport",
                 "--zeta", _num(case["zeta"]), "--a", _num(case["a"]),
                 "--disturbance", "smoothed-step", "--amplitude", _num(case["amplitude"]),
                 "--ramp", _num(case["ramp"]), "--T", _num(self.T),
                 "--store", str(self.store), "--modes", str(self.modes),
                 "--output", os.path.join(workdir, f"{solver}.csv"),
                 "--verify-iss", "--iss-output", os.path.join(workdir, f"{solver}-iss.csv")]
                for solver in self.tolerance]

    def reference(self, case):
        lam1 = ref.eigenvalues(case["zeta"], case["a"], 1)[0]
        return lam1, case["amplitude"] * ref.steady_gain(case["zeta"], case["a"])

    def check(self, case, ref_data, outputs, workdir, chk):
        lam1, limit = ref_data
        for solver, tol in self.tolerance.items():
            traj = _read_columns(os.path.join(workdir, f"{solver}.csv"))
            t = traj["t"]
            # after the ramp the state relaxes to the steady limit like e^{-lam1 (t - ramp)}
            late = (t >= case["ramp"]) & (np.exp(-lam1 * (t - case["ramp"])) < 0.1 * tol)
            chk.require(f"{solver}: late-time samples exist", bool(np.any(late)))
            chk.error(f"{solver}.steady_norm",
                      _rel_err(traj["norm_r"][late], np.full(late.sum(), limit)), tol)


class ClosedLoop(Workload):
    """``simulate --solver closed-loop --verify-iss`` under a sinusoidal actuator error."""

    name = "closed_loop"
    n_cases = 4
    dt, T, D = 1e-3, 1.5, 1.0

    def anchor(self):
        return {"p": 5.0, "c": 2.0, "omega": 6.0, "amplitude": 1.0}

    def draw(self, rng, index):
        return {"p": _rounded(rng.uniform(1.0, 5.0)), "c": _rounded(rng.uniform(0.5, 2.0)),
                "omega": _rounded(rng.uniform(1.0, 6.0)),
                "amplitude": _rounded(rng.uniform(0.5, 2.0))}

    def commands(self, case, workdir):
        return [["simulate", "--solver", "closed-loop", "--plant-p", _num(case["p"]),
                 "--c", _num(case["c"]), "--disturbance", "sinusoid",
                 "--omega", _num(case["omega"]), "--amplitude", _num(case["amplitude"]),
                 "--dt", _num(self.dt), "--T", _num(self.T),
                 "--output", os.path.join(workdir, "cl.csv"),
                 "--verify-iss", "--iss-output", os.path.join(workdir, "cl-iss.csv")]]

    def reference(self, case):
        amp = case["amplitude"]
        # the CLI starts the target state at 0.5 A sin(pi z) (d(0) = 0)
        sol = ref.TubeSolution(math.sqrt(case["c"] / self.D), INF, self.D, amp, case["omega"],
                               lambda z: 0.5 * amp * np.sin(math.pi * z))
        row = ref.inverse_kernel_row((case["p"] + case["c"]) / self.D, sol.nodes) * sol.weights
        return sol, row

    def check(self, case, ref_data, outputs, workdir, chk):
        sol, row = ref_data
        traj = _read_columns(os.path.join(workdir, "cl.csv"))
        iss = _read_columns(os.path.join(workdir, "cl-iss.csv"))
        chk.require("every ISS envelope passes", bool(np.all(iss["pass"] == 1.0)))
        t = traj["t"]
        d = case["amplitude"] * np.sin(case["omega"] * t)
        u = d + np.array([row @ sol.state(ti) for ti in t])
        chk.error("closed_loop.u", _rel_err(traj["u"], u, np.max(np.abs(u))), 1e-4)


WORKLOADS = {w.name: w for w in (GainRoutes(), FdEnvelope(), SpectralStep(), ClosedLoop())}
