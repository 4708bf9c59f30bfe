"""One benchmark process: import issgain, draw the cases, run ops, check them.

Started by ``run.py`` with one BLAS thread; prints one JSON object as its
last line of output.  Only the standard library is imported before issgain,
so the measured import holds numpy and scipy as a user's first command does.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--workdir", help="directory for the ops' output files")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args()

    modules_before = len(sys.modules)
    start = time.perf_counter()
    import issgain
    import issgain.cli
    import_s = time.perf_counter() - start
    module_count = len(sys.modules) - modules_before
    if os.path.dirname(os.path.abspath(issgain.__file__)) != os.path.join(args.src, "issgain"):
        print(f"issgain imported from {issgain.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Check
    workload = WORKLOADS[args.workload]
    cases = workload.cases(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    cli = sys.modules["issgain.cli"]
    references = {}

    def run_op(index: int) -> tuple[float, bool, Check | None]:
        """Run the op on case ``index``; returns (seconds, exited 0, check)."""
        case = cases[index]
        commands = workload.commands(case, args.workdir)
        outputs, ok = [], True
        elapsed = 0.0
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a traceback is a failed op, not a stopped run
                    print(f"{type(exc).__name__}: {exc}", file=err)
                    code = -1
                elapsed += time.perf_counter() - t0
            outputs.append(out.getvalue())
            if code != 0:
                print(f"op failed (exit {code}): issgain {' '.join(argv)}\n{err.getvalue()}",
                      file=sys.stderr)
                ok = False
                break
        if not ok:
            return elapsed, False, None
        if index not in references:
            references[index] = workload.reference(case)
        chk = Check()
        try:
            workload.check(case, references[index], outputs, args.workdir, chk)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            chk.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        for problem in chk.problems:
            print(f"check failed: {problem}: "
                  + "; ".join("issgain " + " ".join(argv) for argv in commands), file=sys.stderr)
        return elapsed, True, chk

    # untimed warm-up: first-call costs (lazy imports, caches) stay out of the medians
    warmup_s, _, warm_chk = run_op(0)
    if tracer is not None:
        tracer.reset()

    op_times, errors = [], {}
    attempted = failed = 0
    correct = warm_chk is None or not warm_chk.problems
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        for index in range(len(cases)):
            if tracer is not None:
                tracer.op = attempted
            seconds, exited_ok, chk = run_op(index)
            attempted += 1
            if not exited_ok or chk.problems:
                failed += 1
            if chk is not None:
                correct = correct and not chk.problems
                for name, err in chk.errors.items():
                    errors[name] = max(err, errors.get(name, 0.0))
            if exited_ok:
                op_times.append(seconds)
        rounds += 1

    import numpy
    import scipy
    result = {
        "attempted": attempted, "failed": failed, "correct": bool(correct),
        "rounds": rounds, "op_times_s": op_times,
        "cases": [" ".join(argv) for case in cases
                  for argv in workload.commands(case, args.workdir)],
        "warmup_s": warmup_s, "import_s": import_s, "module_count": module_count,
        "errors": errors, "ready": ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    if tracer is not None:
        per_op = tracer.per_layer(max(len(op_times), 1))
        per_op["import.issgain_ms"] = 1e3 * import_s
        per_op["import.module_count"] = module_count
        result["per_layer"] = per_op
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
