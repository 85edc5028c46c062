"""Benchmark of the hypertime package on three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload valued-evaluate --seed 1 \\
        --seconds 20 --trace 0

The workload runs in this one process with one client in a closed loop:
each operation starts when the previous one has returned.  BLAS runs on
one thread.  Set-up (input generation, CSV writing and reading back and,
for query-serve, model training) is repeated before and after the
measured loop, and its median reported.

Output: a ``header:`` line (versions, BLAS, nproc, seed), a ``report:``
line (every metric of the workload by its own name, with fingerprints),
and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` each operation runs once
untraced and once traced, and the metrics are the per-layer ones of the
traced operations (see README.md).

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with a non-zero code and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOADS = ("valued-evaluate", "event-evaluate", "query-serve")
# Set-up is timed before the measured loop and again after it, as (least
# repeats, least seconds).  The machine's speed drifts over tens of
# seconds; set-ups from one stretch of a few seconds moved the median by
# up to 60% from run to run.
SETUP_BEFORE = (3, 3.0)
SETUP_AFTER = (1, 2.0)
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the measured loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "small"), default="full",
                   help="input sizes; 'small' is for the self-test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import hypertime from this checkout's src/, or exit with an error."""
    package = SRC / "hypertime"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no program at {package}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import hypertime
    if Path(hypertime.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: hypertime imported from {hypertime.__file__}")


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_header(args):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale}


def time_setups(workload, work, setup_s, repeats, seconds):
    """Set up afresh until `repeats` and `seconds` are both reached.

    Appends each set-up's time to `setup_s` and keeps only the newest
    set-up's files, which the workload then uses.
    """
    first = len(setup_s)
    while len(setup_s) - first < repeats or sum(setup_s[first:]) < seconds:
        rep_dir = work / f"setup{len(setup_s)}"
        rep_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        workload.setup(str(rep_dir))
        setup_s.append(time.perf_counter() - t0)
        if len(setup_s) > 1:
            shutil.rmtree(work / f"setup{len(setup_s) - 2}")


def as_metrics(pairs):
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in pairs.items()}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads as wl

    header = run_header(args)
    print("header: " + json.dumps(header), flush=True)
    scale = wl.SMALL if args.scale == "small" else wl.FULL
    workload = wl.make(args.workload, args.seed, scale, str(SRC))
    work = RUN_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = []
        time_setups(workload, work, setup_s, *SETUP_BEFORE)
        prep = workload.prepare()
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = wl.measure(workload, args.seconds, tracer)
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
        time_setups(workload, work, setup_s, *SETUP_AFTER)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = plain + traced
    failures = prep.get("failures", []) + [f for r in ops for f in r.failures]
    failed = len(prep.get("failures", [])) + sum(r.failed for r in ops)
    if tracer is not None:
        # A wrapped name the program no longer has, or a layer the
        # workload no longer reaches, would read as a per-layer gain.
        broken = (wl.identity_failures(plain, traced)
                  + [f"traced name missing: {b}" for b in tracer.missing]
                  + [f"layer not reached: {layer}"
                     for layer in tracer.idle_layers(workload.layers)])
        failures += broken
        failed += len(broken)
    attempted = prep.get("attempted", 0) + sum(r.attempted for r in ops)
    op_s = wl.op_seconds(plain)
    named, info = workload.summarize(plain)
    setup_median = statistics.median(setup_s)
    named.update({"setup_s": (setup_median, "s"),
                  "peak_rss_mb": (peak_rss_mb, "MB"),
                  "error_rate": (failed / max(attempted, 1), "ratio")})
    report = {"metrics": as_metrics(named), "setup_samples": setup_s,
              **info, **prep.get("report", {}), "failures": failures[:20]}

    if tracer is None:
        metrics = {"setup_s": (setup_median, "s"), "op_s": (op_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead"] = (statistics.median(
            t.seconds - p.seconds for p, t in zip(plain, traced)), "s")
        metrics["cli.bytes_out"] = (statistics.fmean(
            t.detail.get("bytes_out", 0) for t in traced), "B")
        report["trace_missing_bindings"] = tracer.missing
        report["build_periods"] = tracer.fingerprint()
        spans_dir = RUN_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")

    print("report: " + json.dumps(report), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_metrics(metrics),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
