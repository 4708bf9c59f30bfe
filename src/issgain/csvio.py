"""Deterministic CSV output: 12 significant digits, period decimal, newline rows.
Each ``*_table`` builder returns a header and its columns for :func:`write_csv`."""
from __future__ import annotations

import dataclasses
import sys

import numpy as np


def fmt(x) -> str:
    """One printed value, as :func:`write_csv` prints it in a column."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (str, int)):
        return str(x)
    return format(float(x), ".12g")


def write_csv(header: str, columns, where=None) -> None:
    """Write ``header`` and the rows of equal-length 1-D ``columns`` to the path
    ``where`` (stdout for None or "-"): integer and bool columns as ``%d``, the
    rest as ``%.12g``.  The file is opened only once the text is built."""
    columns = [np.asarray(c) for c in columns]
    template = ",".join("%d" if c.dtype.kind in "biu" else "%.12g" for c in columns) + "\n"
    text = header + "\n" + "".join(map(template.__mod__,
                                       zip(*(c.tolist() for c in columns), strict=True)))
    if where is None or where == "-":
        sys.stdout.write(text)
    else:
        with open(where, "w", newline="\n") as fh:
            fh.write(text)


def kv_block(record) -> str:
    """One ``key = value`` line per dataclass field of ``record``, in declaration
    order, skipping fields that are None; floats print with 12 significant
    digits, str, int and bool values as ``str``."""
    lines = []
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if value is not None:
            text = str(value) if isinstance(value, (str, int)) else format(value, ".12g")
            lines.append(f"{f.name} = {text}")
    return "\n".join(lines)


def spectrum_table(spectrum):
    """One row per mode: n, lambda, phi(0), phi'(0) and the grid samples."""
    samples = "".join(f",phi[{j}]" for j in range(spectrum.grid.size))
    return ("n,lambda,phi_at_0,dphi_dz_at_0" + samples,
            [np.arange(1, spectrum.n_modes + 1), spectrum.eigenvalues, spectrum.values_at_0,
             spectrum.derivatives_at_0, *spectrum.eigenfunctions.T])


def trajectory_table(traj, wide: bool = False):
    """One row per stored time: t, the norm, d, the closed-loop control u if
    there is one and, if ``wide``, the grid samples."""
    head, columns = "t,norm_r,d", [traj.times, traj.norms, traj.d_values]
    if traj.extras.get("control") is not None:
        head, columns = head + ",u", columns + [traj.extras["control"]]
    if wide:
        head += "".join(f",x[{j}]" for j in range(traj.grid.size))
        columns += list(traj.values.T)
    return head, columns


def kernel_table(kernel):
    """The samples k(z, s) on the upper triangle z <= s, row by row."""
    i, j = np.triu_indices(kernel.grid.size)
    return "z,s,k", [kernel.grid[i], kernel.grid[j], kernel.values[i, j]]


def sweep_table(table):
    """One row per zeta of a figure-1 sweep: G per exit parameter, then advection."""
    return ("zeta,G_a0,G_a1,G_ainf,G_advection",
            [table.zetas, *(table.g_columns[a] for a in table.a_values), table.advection])


def iss_table(report):
    """One row per epsilon of an ISS check; ``pass`` prints as 0/1."""
    return ("epsilon,min_margin,argmin_t,pass",
            [report.epsilons, report.min_margins, report.argmin_times, report.per_epsilon_pass])
