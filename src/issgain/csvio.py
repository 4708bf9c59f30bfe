"""Deterministic CSV output: 12 significant digits, period decimal, newline rows."""
from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager


def fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (str, int)):
        return str(x)
    return format(float(x), ".12g")


@contextmanager
def _open_out(where):
    if where is None or where == "-":
        yield sys.stdout
    else:
        with open(where, "w", newline="\n") as fh:
            yield fh


def write_csv(header: str, rows, where=None) -> None:
    with _open_out(where) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


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


def spectrum_rows(spectrum):
    for i in range(spectrum.n_modes):
        yield (i + 1, spectrum.eigenvalues[i], spectrum.values_at_0[i],
               spectrum.derivatives_at_0[i], *spectrum.eigenfunctions[i])


def spectrum_header(spectrum) -> str:
    sample_cols = ",".join(f"phi[{j}]" for j in range(spectrum.grid.size))
    return "n,lambda,phi_at_0,dphi_dz_at_0," + sample_cols


def trajectory_rows(traj, wide: bool = False):
    control = traj.extras.get("control")
    for i in range(traj.times.size):
        base = [traj.times[i], traj.norms[i], traj.d_values[i]]
        if control is not None:
            base.append(control[i])
        if wide:
            yield (*base, *traj.values[i])
        else:
            yield tuple(base)


def trajectory_header(traj, wide: bool = False) -> str:
    head = "t,norm_r,d"
    if traj.extras.get("control") is not None:
        head += ",u"
    if wide:
        head += "," + ",".join(f"x[{j}]" for j in range(traj.grid.size))
    return head


ISS_HEADER = "epsilon,min_margin,argmin_t,pass"


def kernel_rows(kernel):
    m = kernel.resolution
    for i in range(m + 1):
        for j in range(i, m + 1):
            yield (kernel.grid[i], kernel.grid[j], kernel.values[i, j])


KERNEL_HEADER = "z,s,k"
