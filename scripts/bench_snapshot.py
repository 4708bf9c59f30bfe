#!/usr/bin/env python3
"""Fold the benchmark records of two checkouts into one BENCH_<label>.json.

    python3 scripts/bench_snapshot.py PARENT CHANGE --label 9

PARENT and CHANGE are source checkouts in which ``perfbench/run.py`` has
been run; their records lie in ``perfbench/results/`` as
``<workload>-seed<seed>-trace<0|1>.json``.  Records are paired by
(workload, seed, trace), so each pair is one seed run on both sides.  Per
workload, the snapshot holds, for every end-to-end metric of CHANGE's
BENCHMARK.json (plus the warm-up, import time and module count each record
carries) over the untraced (``--trace 0``) pairs, and for every per-layer
metric over the traced (``--trace 1``) pairs under ``per_layer``, both
sides' median and quartiles, every run, and the number of pairs the change
wins by the metric's ``better`` direction; ties count for neither side.
Each side is named by its records' ``git_revision`` and by :func:`source_digest`.
Standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

# figures every record holds outside ``end_to_end``; lower is better for each
RECORD_FIELDS = {"warmup_ms": "ms", "import_s": "s", "module_count": "count"}


def _records(checkout: Path, trace: bool) -> dict:
    """(workload, seed) -> record for the traced or untraced runs of one checkout."""
    found = {}
    for path in sorted((checkout / "perfbench" / "results").glob(f"*-trace{int(trace)}.json")):
        record = json.loads(path.read_text())
        found[(record["workload"], record["seed"])] = record
    return found


def source_digest(checkout: Path) -> str:
    """sha256 over ``src/issgain/*.py`` and ``perfbench/*.py``, each path and its bytes."""
    digest = hashlib.sha256()
    files = [*checkout.glob("src/issgain/*.py"), *checkout.glob("perfbench/*.py")]
    for rel in sorted(path.relative_to(checkout).as_posix() for path in files):
        data = hashlib.sha256((checkout / rel).read_bytes()).hexdigest()
        digest.update(f"{rel}\0{data}\n".encode())
    return digest.hexdigest()


def _one(records, key: str):
    """The single value of ``key`` shared by all records; several is an error."""
    values = {json.dumps(r[key], sort_keys=True) for r in records}
    if len(values) != 1:
        raise ValueError(f"records disagree on {key}: {sorted(values)}")
    return json.loads(values.pop())


def _summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _compare(runs: dict, metrics: dict, value) -> dict:
    """Per metric: both sides' summary and runs, and the pairs the change wins."""
    compared = {}
    for name, (unit, better) in metrics.items():
        values = {side: [value(r, name) for r in rs] for side, rs in runs.items()}
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        compared[name] = {"unit": unit, "better": better,
                          **{side: {**_summary(v), "runs": v} for side, v in values.items()},
                          "change_wins": wins}
    return compared


def _paired(sides: dict, workload: str, pairs: list) -> tuple[list, dict]:
    seeds = [s for w, s in pairs if w == workload]
    return seeds, {side: [recs[(workload, s)] for s in seeds] for side, recs in sides.items()}


def snapshot(parent: Path, change: Path, label: str) -> dict:
    spec = json.loads((change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    metrics.update({name: (unit, "lower") for name, unit in RECORD_FIELDS.items()})
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec.get("per_layer", [])}
    sides = {"parent": _records(parent, False), "change": _records(change, False)}
    traced = {"parent": _records(parent, True), "change": _records(change, True)}
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    traced_pairs = sorted(set(traced["parent"]) & set(traced["change"]))
    if not pairs:
        raise ValueError("no (workload, seed) has a record in both checkouts")
    used = {side: [sides[side][k] for k in pairs] + [traced[side][k] for k in traced_pairs]
            for side in sides}

    workloads = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds, runs = _paired(sides, workload, pairs)
        entry = {"pairs": len(seeds), "seeds": seeds,
                 **{f"{side}_failed_of_attempted": [sum(r["failed"] for r in rs),
                                                    sum(r["attempted"] for r in rs)]
                    for side, rs in runs.items()},
                 "metrics": _compare(runs, metrics, lambda r, name: r[name] if name in
                                     RECORD_FIELDS else r["end_to_end"][name])}
        seeds, runs = _paired(traced, workload, traced_pairs)
        if seeds:
            measured = {name: kind for name, kind in layers.items()
                        if all(name in r["per_layer"] for rs in runs.values() for r in rs)}
            entry["per_layer"] = {"pairs": len(seeds), "seeds": seeds,
                                  "metrics": _compare(runs, measured,
                                                      lambda r, name: r["per_layer"][name])}
        workloads[workload] = entry

    return {"label": label,
            "git_revision": {side: _one(recs, "git_revision") for side, recs in used.items()},
            "source_digest": {"parent": source_digest(parent), "change": source_digest(change)},
            **{key: _one(used["parent"] + used["change"], key)
               for key in ("machine", "numpy", "scipy", "seconds")},
            "workloads": workloads}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--output", type=Path, help="default: BENCH_<label>.json")
    args = parser.parse_args()
    try:
        result = snapshot(args.parent, args.change, args.label)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_snapshot: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    output = args.output or Path(f"BENCH_{args.label}.json")
    output.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
