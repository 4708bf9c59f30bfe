"""Benchmark of issgain's CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload fd_envelope --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The run starts a few set-up probes
and then one measuring process, each a fresh single-threaded interpreter
(OpenBLAS and OpenMP pinned to one thread) that imports issgain from the
checkout's ``src``.  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A record of the run (machine, numpy and scipy versions, git
revision, warm-up cost, every op time) is written to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 4            # set-up samples per run: these plus the measuring process
TIME_LIMIT_S = 170.0        # the whole run, probes included
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(Exception):
    pass


def _environment() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in ONE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _worker(args: list, deadline: float) -> tuple[float, dict]:
    """Run worker.py; returns (monotonic start time, its JSON result)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a process")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=_environment(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded the time limit: {exc}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {proc.returncode}")
    return started, json.loads(lines[-1])


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared_metrics() -> dict:
    spec = _spec()
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "issgain" / "__init__.py").is_file():
        raise RunError(f"no issgain sources under {SRC}")
    declared = _declared_metrics()
    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = RESULTS / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    common = ["--workload", workload, "--seed", str(seed), "--src", str(SRC)]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            started, probe = _worker([*common, "--setup-only"], deadline)
            setups.append(probe["ready"] - started)
        started, res = _worker([*common, "--seconds", str(seconds), "--trace", str(int(trace)),
                                "--workdir", str(workdir),
                                "--spans", str(RESULTS / f"spans-{tag}.jsonl")], deadline)
        setups.append(res["ready"] - started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_times = res["op_times_s"]
    if not op_times or not res["errors"]:
        raise RunError("no op completed")
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(op_times) / sum(op_times),
        "op_p50_ms": 1e3 * statistics.median(op_times),
        "peak_rss_mb": res["peak_rss_mb"],
        "max_rel_err": max(res["errors"].values()),
    }
    values = res["per_layer"] if trace else end_to_end
    kind = "per_layer" if trace else "end_to_end"
    missing = set(declared[kind]) - set(values)
    if missing:
        raise RunError(f"metrics not measured: {sorted(missing)}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": {"platform": platform.platform(), "cpu": _cpu_model(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "numpy": res["numpy"], "scipy": res["scipy"], "git_revision": _git_revision(),
        "setup_samples_s": setups, "warmup_ms": 1e3 * res["warmup_s"],
        "end_to_end": end_to_end, "per_layer": res.get("per_layer"),
        "max_rel_err_by_check": res["errors"],
        **{k: res[k] for k in ("attempted", "failed", "correct", "rounds", "op_times_s",
                               "cases", "import_s", "module_count")},
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {RESULTS / tag}.json (warm-up op {record['warmup_ms']:.1f} ms)",
          file=sys.stderr)
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in declared[kind].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in _spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
