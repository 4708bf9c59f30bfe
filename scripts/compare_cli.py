#!/usr/bin/env python3
"""Run the same CLI commands on two checkouts and compare what they print and write.

    python3 scripts/compare_cli.py PARENT CHANGE

Each checkout gets a fresh temporary directory with the files of CONFIGS and one
subdirectory per command, where the command runs with PYTHONPATH=<checkout>/src.
Exit codes, stdout, stderr and written files are compared byte for byte; each
difference prints one line with the number of differing numeric tokens and their
largest relative difference.  Exits 1 if anything differs.  Standard library only.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TRANSPORT = {"kind": "transport", "D": "1", "v": "0", "k": "0", "a": "inf", "resolution": "256"}
CONSTANT = {"kind": "constant", "p": "1", "q": "-3", "r": "2", "a1": "1", "a2": "1",
            "b1": "1", "b2": "0"}


def _config(base: dict, **override) -> str:
    return "schema = issgain/1\n" + "".join(f"{k} = {v}\n" for k, v in {**base, **override}.items())


BAD = [("a", "nan"), ("D", "nan"), ("resolution", "nan"), ("resolution", "inf"),
       ("resolution", "1e400"), ("resolution", "256.5")]
CONFIGS = {"x.cfg": _config(TRANSPORT), "negq.cfg": _config(CONSTANT),
           "y.cfg": _config(TRANSPORT, v="2", k="0.3", a="1", form="y"),
           "robin.cfg": _config(CONSTANT, q="0.5", r="1", a2="0", b1="2", b2="1"),
           "robin-inlet.cfg": _config(CONSTANT, q="1", r="1", a2="0", b2="-1"),
           "robin-both.cfg": _config(CONSTANT, q="1", r="1", b2="-1"),
           "unread.cfg": _config(TRANSPORT, c="5"),
           **{f"bad_{k}_{i}.cfg": _config(TRANSPORT, **{k: v}) for i, (k, v) in enumerate(BAD)}}

ISS = "--verify-iss --iss-output iss.csv"
README = [
    "spectrum --case dirichlet-laplacian --modes 12 --output spectrum.csv",
    "gain --case transport --zeta 1 --a inf", "gain --case backstepping --c 1 --D 1",
    "sweep-fig1 --zeta-min 0.05 --zeta-max 4 --points 80 --output fig1.csv",
    f"simulate --solver fd --case transport --disturbance sinusoid --omega 2 --dt 5e-4 --T 1.5 "
    f"--output traj.csv {ISS}",
    "simulate --solver closed-loop --plant-p 3 --c 1 --dt 1e-3 --T 1.5 --disturbance sinusoid "
    "--output cl.csv --kernel-output kernel.csv"]
GAIN = ["", "--D 3", "--case transport --zeta 1 --a 1 --q 5", "--config ../x.cfg",
        "--config ../x.cfg --q 2", "--config ../negq.cfg", "--config ../robin.cfg",
        "--config ../y.cfg", "--case transport --a 1e14", "--case transport --a nan",
        "--case transport --D 0", "--case transport --v -1", "--case backstepping --c -1",
        "--case transport --zeta 1e6 --a 1", "--case transport --zeta 128 --a inf",
        "--config ../robin-inlet.cfg", "--config ../robin-both.cfg",
        "--case transport --k nan", "--case transport --v 1e200",
        "--case dirichlet-laplacian --v 5 --a 1", "--case transport --zeta 1 --v 7 --k 3",
        "--config ../x.cfg --zeta 3", "--case transport --config ../x.cfg",
        "--config ../x.cfg --resolution 1024", "--modes 8", "--config ../x.cfg --N 5",
        "--case transport --zeta 1 --q 2 --N 5"]
SPECTRUM = ["--case transport --zeta 1 --a 1e12", "--case transport --zeta 1 --a 1 --q 5",
            "--case backstepping --c 2 --D 0.5 --modes 16", "--modes 8",
            *[f"--config ../{name}" for name in CONFIGS if name != "x.cfg"],
            "--case transport --a -1", "--case transport --zeta nan", "--case transport --k -5",
            "--case transport --D -1", "--case backstepping --c inf",
            "--case backstepping --c 1 --zeta 9"]
SWEEP = ["--advection-form legacy --output fig1.csv", "--zeta-min 4 --zeta-max 0.05",
         "--zeta-min 4 --zeta-max 0.05 --advection-form legacy --output fig1.csv"]
SIMULATE = [f"fd --config ../robin.cfg --x0 steady {ISS}",
            f"fd --config ../robin-inlet.cfg --x0 steady {ISS}",
            f"fd --case transport --zeta 2 --a 1 --x0 steady {ISS}",
            "fd --case transport --q 2 --x0 sine --output traj.csv",
            f"spectral --case transport --zeta 1 --a 1 --disturbance smoothed-step {ISS}",
            f"lifted --case transport --zeta 0.5 --a 0 --disturbance sinusoid {ISS}",
            "lifted --case transport --zeta 4 --a inf --disturbance smoothed-step --ramp 1 "
            f"--T 9 --store 40 --modes 32 {ISS}",
            f"advection --disturbance sinusoid {ISS}",
            "closed-loop --resolution 32 --output cl.csv", f"closed-loop --resolution 64 {ISS}",
            "closed-loop --resolution 200 --disturbance smoothed-step --output cl.csv",
            "closed-loop --plant-p 50 --c 2 --output cl.csv",
            "fd --case transport --disturbance sinusoid --wide --output traj.csv",
            "closed-loop --resolution 64 --wide --output cl.csv",
            "spectral", "spectral --config ../robin.cfg", "spectral --config ../robin-inlet.cfg",
            f"fd --config ../y.cfg {ISS}", f"spectral --config ../y.cfg {ISS}",
            "spectral --modes 8", f"lifted --modes 8 {ISS}",
            f"fd --case transport --zeta 1 --a 1 --disturbance smoothed-step --ramp 0.3 {ISS}",
            "spectral --case transport --zeta 0.180771 --a 1 --disturbance smoothed-step "
            "--ramp 0.35 --T 2 --store 40 --modes 32",
            "spectral --disturbance smoothed-step --T 1e62",
            "fd --case transport --zeta nan", "fd --case transport --a -1",
            "fd --case transport --v inf", "fd --case backstepping --c -1",
            "closed-loop --c -1", "closed-loop --D 0", "closed-loop --c 1e308 --D 1e-300",
            "closed-loop --plant-p 1e300 --D 1e-300", f"closed-loop --c 1.3 --D 0.6 {ISS}",
            "closed-loop --plant-p 200 --output cl.csv", "advection --config ../x.cfg",
            "fd --dt 0.0078125 --T 1.125 --store 3 --output traj.csv",
            "closed-loop --plant-p 50 --c 2 --dt 0.01 --T 0.5 --store 1000 --output cl.csv",
            "closed-loop --zeta 3 --v 9 --T 0.01 --output cl.csv",
            "advection --c 5 --zeta 2 --T 0.01 --output traj.csv",
            *(f"{solver} --dt 0.01 --output traj.csv"
              for solver in ("spectral", "lifted", "advection")),
            *(f"{solver} --modes 8 --output traj.csv"
              for solver in ("fd", "advection", "closed-loop")),
            "advection --x0 steady --output traj.csv", "closed-loop --x0 sine --output cl.csv",
            *(f"{solver} --plant-p 2 --output traj.csv"
              for solver in ("fd", "spectral", "lifted", "advection")),
            "fd --eps 1 --output traj.csv", "spectral --slack 0.1 --output traj.csv",
            "closed-loop --iss-output iss.csv --output cl.csv",
            f"fd --T 0.2 --eps abc --output traj.csv {ISS}"]
COMMANDS = (README + [f"gain {a}".strip() for a in GAIN] + [f"spectrum {a}" for a in SPECTRUM]
            + [f"sweep-fig1 {a}" for a in SWEEP] + [f"simulate --solver {a}" for a in SIMULATE])

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)", re.I)


def numeric_diff(a: str, b: str) -> tuple[int, float]:
    """Differing numeric tokens, paired in order, and their largest relative
    difference; unpaired tokens count and make the difference inf."""
    ta, tb = NUMBER.findall(a), NUMBER.findall(b)
    count, worst = abs(len(ta) - len(tb)), 0.0 if len(ta) == len(tb) else math.inf
    for x, y in zip(ta, tb):
        if x != y:
            count += 1
            fx, fy = float(x), float(y)
            rel = abs(fx - fy) / max(abs(fx), abs(fy), 1e-300)
            worst = max(worst, rel if rel == rel else math.inf)      # nan from inf or nan
    return count, worst


def compare_trees(parent: Path, change: Path) -> list[str]:
    """One line per file that is missing on one side or differs in its bytes."""
    names = sorted({p.relative_to(root).as_posix() for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {'parent' if a.is_file() else 'change'}")
        elif a.read_bytes() != b.read_bytes():
            count, worst = numeric_diff(a.read_text(errors="replace"), b.read_text(errors="replace"))
            lines.append(f"{name}: {count} numeric tokens differ, "
                         f"largest relative difference {worst:.3g}")
    return lines


def run_all(checkout: Path, root: Path) -> None:
    for name, text in CONFIGS.items():
        (root / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    for i, command in enumerate(COMMANDS):
        cwd = root / f"{i:02d}-{command.split()[0]}"
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-m", "issgain.cli", *command.split()],
                              cwd=cwd, env=env, capture_output=True)
        (cwd / "command").write_text(command + "\n")
        (cwd / "exit").write_text(f"{proc.returncode}\n")
        (cwd / "stdout").write_bytes(proc.stdout)
        (cwd / "stderr").write_bytes(proc.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp, "parent"), Path(tmp, "change")]
        for root, checkout in zip(roots, (args.parent, args.change)):
            root.mkdir()
            run_all(checkout, root)
        lines = compare_trees(*roots)
    print("\n".join(lines + [f"{len(COMMANDS)} commands, {len(lines)} differing files"]))
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
