#!/usr/bin/env python3
"""Transport tube under inlet disturbances: two solvers, one envelope.

Simulates the tube (D = 1, v = 1, k = 0, Dirichlet exit) under constant and
sinusoidal inlet signals with the Crank-Nicolson and the spectral solver,
checks the exponential-plus-gain envelope for several epsilon values and
writes trajectory/report CSVs.
"""
import math

import numpy as np

from issgain import (
    DisturbanceSignal,
    GridFunction,
    IssEnvelope,
    gain_bvp,
    simulate_fd,
    simulate_spectral,
    solve_spectrum,
    transport_problem,
    verify_iss,
)
from issgain.csvio import iss_table, trajectory_table, write_csv


def main():
    problem = transport_problem(1.0, 1.0, 0.0, math.inf, resolution=256)
    spectrum = solve_spectrum(problem, 32)
    report = gain_bvp(problem, spectrum=spectrum)
    envelope = IssEnvelope.from_gain_report(report)
    print(f"gain constant C = {report.gain_C:.10f}, decay rate = {report.iss_decay_rate:.6f}")

    grid = problem.grid
    cases = {
        "constant": (DisturbanceSignal.constant(1.0), 1 - grid),
        "sinusoid": (DisturbanceSignal.sinusoid(1.0, 2.0), np.zeros_like(grid)),
    }
    for name, (d, x0_vals) in cases.items():
        x0 = GridFunction(grid, x0_vals)
        fd = simulate_fd(problem, d, x0, 5e-4, 1.5, n_store=120)
        sp = simulate_spectral(problem, spectrum, d, x0, 1.5, N=32, n_store=120)
        for solver, traj in (("fd", fd), ("spectral", sp)):
            write_csv(*trajectory_table(traj), f"trajectory_{name}_{solver}.csv")
            check = verify_iss(traj, envelope, epsilons=(0.1, 1.0, 10.0), slack=1e-3)
            write_csv(*iss_table(check), f"iss_{name}_{solver}.csv")
            margins = ", ".join(f"eps={e}: {m:+.4f}" for e, m in
                                zip(check.epsilons, check.min_margins))
            print(f"{name}/{solver}: pass={check.passed}  min margins: {margins}")


if __name__ == "__main__":
    main()
