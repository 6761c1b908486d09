"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload heat1d_large --seed 1 --seconds 24 --trace 0

The workload runs in a closed loop: one process, one integration or study at
a time, each started when the previous one has finished, for ``--seconds``
seconds (the solve in progress at the deadline completes).  Every solve's
answer is checked.  With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` the first half of the time runs untraced and the second
half traced, and the per-layer metrics are reported.  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a full record, with the environment, is written
under ``perfbench/results/``.  The solver is imported from ``src/`` of the
checkout that holds this file; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Fresh processes that each time import + input build + warm-up; setup_s is
# the median over them and the measuring process itself.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
# Calibration around each timed interval (see speed.py): at least this long,
# and at least this share of the solve it brackets.
CALIBRATE_MIN_S = 0.1
CALIBRATE_SHARE = 0.05


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs for the benchmark's own test")
    p.add_argument("--setup-probe", action="store_true",
                   help="only time set-up in this process and print it")
    return p.parse_args(argv)


def timed_solves(workload, deadline: float, tracer=None) -> dict:
    """Solve back to back until the ``perf_counter`` deadline (at least once).

    Returns each solve's time, the calibration-kernel time around it (the
    mean of the calibrations just before and just after), and its check."""
    out = {"walls": [], "kernels": [], "checks": []}
    before = speed.seconds_per_kernel(CALIBRATE_MIN_S)
    while True:
        if tracer is None:
            t0 = perf_counter()
            result = workload.solve()
            wall = perf_counter() - t0
        else:
            with tracer:
                t0 = perf_counter()
                result = workload.solve()
                wall = perf_counter() - t0
        after = speed.seconds_per_kernel(max(CALIBRATE_MIN_S, CALIBRATE_SHARE * wall))
        out["walls"].append(wall)
        out["kernels"].append(0.5 * (before + after))
        before = after
        answer, failures = workload.verify(result)
        out["checks"].append({"answer": answer, "failures": failures})
        if perf_counter() >= deadline:
            return out


def rescaled_median(solves: dict) -> float:
    return statistics.median(map(speed.rescale, solves["walls"], solves["kernels"]))


def measure(workload, seconds: float, setup_samples: list[float], tracer=None) -> dict:
    """Run the closed loop and build the result record; traced when a
    ``tracing.Tracer`` is given.  ``setup_samples`` are rescaled set-up times."""
    record = {"workload": workload.name, "config": workload.config}
    start = perf_counter()
    if tracer is not None:
        from tracing import metric_units

        untraced = timed_solves(workload, start + seconds / 2)
        solves = timed_solves(workload, start + seconds, tracer)
        checks = untraced["checks"] + solves["checks"]
        values = tracer.metrics(solves["walls"])
        values["trace.wall_s"] = rescaled_median(solves)
        values["trace.overhead_s"] = values["trace.wall_s"] - rescaled_median(untraced)
        units = metric_units(tracer.span_names)
        record["absent_spans"] = tracer.absent
        record["counts"] = dict(tracer.counts)
        record["untraced_wall_s_samples"] = untraced["walls"]
        record["untraced_kernel_s_samples"] = untraced["kernels"]
    else:
        solves = timed_solves(workload, start + seconds)
        checks = solves["checks"]
        values = {
            "wall_s": rescaled_median(solves),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    failed = sum(1 for c in checks if c["failures"])
    record.update({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "failed_frac": failed / len(checks),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "wall_s_samples": solves["walls"],
        "kernel_s_samples": solves["kernels"],
        "setup_s_samples": setup_samples,
        "checks": checks,
    })
    return record


def probe_setup(args) -> float:
    """Set-up time of a fresh process for the same workload, seed and size."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--size", args.size, "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def environment(args, units: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "repeats": units,
        "setup_samples": SETUP_PROBES + 1,
        "loop": "closed loop, one process, one solve at a time",
        "timer": "time.perf_counter",
    }


def report(record: dict) -> None:
    print(f"workload {record['workload']}: {record['attempted']} solves, "
          f"{record['failed']} failed, failed_frac {record['failed_frac']:g}")
    for check in record["checks"]:
        if check["failures"]:
            print("  check failed: " + "; ".join(check["failures"]))
    print(f"  answer of the last solve: {record['checks'][-1]['answer']}")
    if record.get("absent_spans"):
        print(f"  absent spans (reported as 0): {', '.join(record['absent_spans'])}")
    walls = record["wall_s_samples"]
    print(f"  solve time: median {statistics.median(walls):.4f} s, "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s over {len(walls)} solves")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the solver: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.size)
    workload.setup(args.seed)
    setup_s = speed.rescale(perf_counter() - t0, speed.seconds_per_kernel(CALIBRATE_MIN_S))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    record = measure(workload, args.seconds, setup_samples, tracer)
    record["environment"] = environment(args, record["attempted"])
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(RESULTS / f"{stem}.spans.npz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:  # before NumPy loads its BLAS
        os.environ[var] = "1"
    sys.exit(main())
