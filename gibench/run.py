#!/usr/bin/env python3
"""Run one gihelm benchmark workload and print its metrics as JSON.

Run from the root of a gihelm source tree:

    python3 gibench/run.py --workload gi-train --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the same workload
runs with span-recording wrappers around gihelm's layers and the metrics
are the per-layer ones.  The line before it records the environment.
Each run also writes ``gibench/results/<workload>-seed<n>-trace<t>.json``
with the environment, every check and, when traced, the spans.  The
exit code is 0 when every check passed, 1 when one failed and 2 when
the source tree is not there.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS and OpenMP threads are fixed before numpy loads: at most two, and
# no more than the processors this process may run on.
THREADS = str(min(2, len(os.sched_getaffinity(0))))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

WORKLOAD_NAMES = ("gi-train", "hybrid-train", "born-shots", "landweber-divergent")


def environment():
    import numpy
    import scipy

    import gihelm.special

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "special_backend": getattr(gihelm.special, "BACKEND", None),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gihelm" / "__init__.py").is_file():
        print(f"error: no gihelm source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import gihelm

    if not Path(gihelm.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gihelm from {gihelm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        for name in tracer.install():
            print(f"trace: wrap target {name} is missing", file=sys.stderr)
    import workloads

    out = HERE / "out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        ctx = workloads.Context(args.seed, args.seconds, out, T0,
                                stop_trace=None if tracer is None else tracer.uninstall)
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "checks": result.checks,
              "end_to_end": result.metrics}
    metrics = result.metrics
    if tracer is not None:
        metrics = tracer.layer_metrics()
        record.update(per_layer=metrics, missing_targets=tracer.missing,
                      metrics_missing_a_target=tracer.metrics_missing_a_target(),
                      spans=tracer.summary(), raw_spans=tracer.raw_spans())
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    for check in result.checks:
        if not check["ok"]:
            print(f"check failed: {check['check']}: {check['detail']}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
