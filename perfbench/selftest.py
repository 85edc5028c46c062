"""Self-test of the benchmark on small inputs.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with small inputs and
a one-second loop, and asserts that each run exits 0, checks out correct
with no failed operation, and emits exactly the metrics BENCHMARK.json
names, each with its unit.  The `report:` line must give every
workload-specific metric with its unit.  A traced run must wrap every
name the tracer looks for and show self time in each layer the workload
is documented to use.  Last, the benchmark must refuse to run, with a
non-zero exit and no result, in a directory that holds only
BENCHMARK.json and this directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REPORTED = {
    "valued-evaluate": {"evaluate_s": "s", "hyt_fold_rmse": "reading"},
    "event-evaluate": {"evaluate_s": "s", "hyt_fold_rmse": "count"},
    "query-serve": {"predict_s": "s", "cell_predict_s": "s",
                    "mean_query_p50_us": "us", "mean_query_p99_us": "us",
                    "cell_query_p50_us": "us", "cell_query_p99_us": "us"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
# Layers whose self time must be above 0 in a traced run of each workload.
ALL_LAYERS = ("dataset", "projection", "clustering", "spectral", "model",
              "evaluation", "baselines", "cli")
LAYERS = {"valued-evaluate": ALL_LAYERS, "event-evaluate": ALL_LAYERS,
          "query-serve": ("dataset", "clustering", "model", "cli")}


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_workload(spec, workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        out = run(ROOT, "--workload", workload, "--seed", "3",
                  "--seconds", "1", "--trace", trace, "--scale", "small")
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, lines
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (workload, trace, set(got) ^ set(want))
        report = json.loads(lines[-2].removeprefix("report: "))
        named = {k: v["unit"] for k, v in report["metrics"].items()}
        assert named == {**REPORTED[workload], **COMMON}, (workload, named)
        assert report["metrics"]["error_rate"]["value"] == 0.0
        if trace == "1":
            assert report["trace_missing_bindings"] == [], report
            for layer in LAYERS[workload]:
                value = result["metrics"][f"{layer}.self_s"]["value"]
                assert value > 0, (workload, layer)
        header = json.loads(lines[0].removeprefix("header: "))
        assert header["seed"] == 3 and header["blas_threads"] <= header["nproc"]
        print(f"ok {workload} trace={trace}", flush=True)


def check_bare_directory(spec):
    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, "--workload", "query-serve", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
        assert out.returncode != 0
        assert '"correct"' not in out.stdout, out.stdout
    finally:
        shutil.rmtree(bare)
    print("ok refuses to run without the program", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in REPORTED:
        check_workload(spec, workload)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
