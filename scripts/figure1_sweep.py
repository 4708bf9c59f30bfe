#!/usr/bin/env python3
"""Gain-comparison sweep over zeta at k = 0 (the figure-1 experiment).

Writes one CSV per advection-gain convention and prints the qualitative
findings: ordering in the exit parameter, monotonicity, small-zeta limits
and crossings between the advection gain and the Dirichlet-exit gain.
"""
import argparse
import math

import numpy as np

from issgain import sweep_figure1
from issgain.csvio import sweep_table, write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--zeta-min", type=float, default=0.05)
    ap.add_argument("--zeta-max", type=float, default=4.0)
    ap.add_argument("--points", type=int, default=80)
    ap.add_argument("--prefix", default="figure1")
    args = ap.parse_args()

    zetas = np.linspace(args.zeta_min, args.zeta_max, args.points)
    for form in ("derivation", "legacy"):
        table = sweep_figure1(zetas, advection_form=form)
        path = f"{args.prefix}_{form}.csv"
        write_csv(*sweep_table(table), path)
        crossings = table.crossovers(math.inf)
        print(f"[{form}] wrote {path}")
        print(f"  ordering decreasing in exit parameter: {table.ordering_ok()}")
        print(f"  nonincreasing columns: {table.nonincreasing_columns()}")
        print(f"  advection vs Dirichlet crossings: {crossings or 'none'}")
    print("note: with the derivation-form gain the advection curve stays above")
    print("the Dirichlet-exit curve for every zeta; the single crossing appears")
    print("only under the (inconsistent) legacy variant.")


if __name__ == "__main__":
    main()
