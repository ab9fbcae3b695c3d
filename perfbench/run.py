"""Benchmark command for g2coflow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for S seconds in this process against the checkout's own
src/ (nothing is installed), checks every output, and prints as its last
line one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 every public function of the package is wrapped in a span and the
metrics are the per-layer ones. Exits 2 without a result when the package
sources are not beside it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread per numeric library: the host has two shared cores, and a
# thread pool would make timings depend on whatever else runs there.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("verify-sweep", "flow-horizon", "soliton-geometry")


def process_age() -> float:
    """Seconds since this process started (Linux /proc; 0 elsewhere)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def main(argv=None) -> int:
    age_at_t0 = process_age() - (time.perf_counter() - _T0)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import tracer
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load g2coflow from this checkout: {exc}", file=sys.stderr)
        return 2

    workloads.SCRATCH.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workloads.SCRATCH)
    try:
        bench = workloads.make_workload(args.workload, args.seed, Path(workdir))
        tr = None
        if args.trace:
            tr = tracer.Tracer()
            tr.install()
        try:
            result = workloads.run(bench, args.seconds, tracer=tr)
        finally:
            if tr is not None:
                tr.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = age_at_t0 + (result.setup_end - _T0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = workloads.end_to_end(result, setup_s, peak_mb)
    print(workloads.raw_figures(result))
    if tr is None:
        metrics = e2e
    else:
        metrics, absent = tracer.per_layer_metrics(
            tr, result.counters, result.attempted, result.speed_scale()
        )
        if absent:
            print(f"absent from the program (reported as 0): {', '.join(absent)}", file=sys.stderr)
        spans = workloads.SCRATCH / f"spans-{args.workload}-seed{args.seed}.npz"
        tr.write(str(spans))
        print(f"traced ops_per_s {e2e['ops_per_s'][0]:.6g}; spans written to {spans}")
    print(
        f"{args.workload} seed {args.seed}: {result.attempted} operations, "
        f"{result.failed} failed, {len(result.wrong)} incorrect"
    )
    print(
        json.dumps(
            {
                "correct": not result.wrong,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
