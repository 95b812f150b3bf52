"""Benchmark entry point for walkrec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a walkrec checkout. The inputs are made from --seed;
with --trace 0 the last stdout line is a JSON object carrying the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run, whose
spans are also written to perfbench/out/. Workloads and metrics are listed
in BENCHMARK.json; --scale tiny shrinks the instances for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin every BLAS thread-count variable to one thread.

    A second thread buys no speed on these workloads (pp_graph epochs took
    1.85 s with two threads and 1.9 s with one on a 2-core machine) but makes
    every run depend on a second core's load. Must run before numpy is
    imported; the CLI processes inherit it."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "walkrec", "__init__.py")):
        print(f"perfbench: no walkrec sources under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = pin_blas_threads()
    sys.path[:0] = [src, HERE]
    import numpy
    import scipy
    import walkrec
    import workloads
    from tracing import Tracer
    if os.path.dirname(os.path.abspath(walkrec.__file__)) != os.path.join(src, "walkrec"):
        print(f"perfbench: walkrec imported from {walkrec.__file__}, not {src}",
              file=sys.stderr)
        return 2

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "scale": args.scale, "nproc": nproc,
           "blas_threads": blas_threads, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    ops = workloads.Ops()
    tiny = args.scale == "tiny"
    try:
        if args.trace:
            tracer = Tracer(args.workload)
            values = workloads.run_traced(args.workload, args.seed, args.seconds, work,
                                          tiny, ops, tracer)
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
            tracer.write(trace_path, env)
            print(f"spans {len(tracer.spans)} -> {os.path.relpath(trace_path, ROOT)}")
        else:
            values = workloads.run_library(args.workload, args.seed, args.seconds, work,
                                           tiny, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for problem in ops.problems:
        print("FAILED " + problem)
    result = {}
    for m in wanted:
        # end-to-end metrics arrive as samples and report their median
        samples = values[m["name"]]
        result[m["name"]] = {"value": float(statistics.median(samples))
                             if isinstance(samples, list) else float(samples),
                             "unit": m["unit"]}
        count = f"  n={len(samples)}" if isinstance(samples, list) else ""
        print(f"{m['name']:26s} {result[m['name']]['value']:>14.6g} {m['unit']}{count}")
    print(f"ops_total {ops.attempted} ops_failed {ops.failed}")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
