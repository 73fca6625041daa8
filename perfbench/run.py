"""Run one benchmark workload against the ``repen`` sources of this checkout.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload dense-5k --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A fuller record (every sample, the environment) goes to
``perfbench/work/BENCH_<workload>-seed<seed>-trace<k>.json``.

The BLAS thread count is fixed to ``BLAS_THREADS`` through the environment
before numpy loads, and the run stops if the loaded OpenBLAS reports
another count.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import tempfile

BLAS_THREADS = 1
_THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if not found."""
    import ctypes

    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _import_repen():
    """Import ``repen`` from this checkout's ``src``; None if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "repen", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import repen

    if os.path.dirname(os.path.dirname(os.path.abspath(repen.__file__))) != SRC:
        return None
    return repen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    repen = _import_repen()
    if repen is None:
        print(f"error: no repen sources under {SRC}", file=sys.stderr)
        return 2
    threads = blas_threads()
    if threads not in (None, BLAS_THREADS):
        print(f"error: OpenBLAS runs {threads} threads, expected {BLAS_THREADS}", file=sys.stderr)
        return 2

    sys.path.insert(0, BENCH_DIR)
    import numpy
    import scipy

    import workloads

    work_root = os.path.join(BENCH_DIR, "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = sorted({m["name"] for m in declared} ^ set(result.metrics))
    if missing:
        print(f"error: metrics not both declared and measured: {missing}", file=sys.stderr)
        return 2
    metrics = {
        m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]} for m in declared
    }
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    record = dict(
        line,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        rounds=result.rounds,
        errors=result.errors,
        samples=result.samples,
        environment={
            "blas_threads": threads,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "repen": getattr(repen, "__version__", "unknown"),
        },
    )
    out = os.path.join(work_root, f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for error in result.errors:
        print(error, file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    for _var in _THREAD_ENV_VARS:
        os.environ[_var] = str(BLAS_THREADS)
    sys.exit(main())
