"""Seeded inputs, operations and output checks of the three workloads.

Every input is generated from the run's seed and written as a CSV; the
program sees only those files and the models trained from them.  One
operation is timed from the call into `hypertime.cli.main` (or into a
library function) to its return; checks run after the clock stops.

- ``valued-evaluate``: ``hypertime evaluate`` with default flags on 28 d of
  1,200 s readings (daily, weekly and 8 h cosines plus N(0, 0.05) noise)
  with three later 7-day folds.  A run holds twelve such series drawn from
  its seed and cycles over them, because the EM sweep's cost moves with
  the data; the mean over all of them keeps one draw from setting the
  run's number.
- ``event-evaluate``: ``hypertime evaluate --clusters 2 --max-h 2`` with
  the FreMEn sweep over m in {1, 2, 3}, on 14 d of two-hot-spot detections
  with two held-out folds drawn from other seeds.  A run holds two such
  sets and cycles over them.
- ``query-serve``: models trained during set-up (valued EM k=1, event EM
  k=2) answer a round of reads: a 100,000-row ``predict``, a 1,000-row
  gridded event ``predict``, and back-to-back single-row `predict_mean`
  and `predict_cell_count` calls.  Training runs in a child process, so
  the serving process's peak memory is that of serving.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import hypertime.cli as cli
import hypertime.dataset as dataset_mod
import hypertime.evaluation as evaluation
import hypertime.model as model_mod

DAY = 86400.0
WEEK = 7 * DAY
REL_TOL = 1e-12
MASS_TOL = 0.02           # acceptance criterion 08's bound on event mass
GRID_SPATIAL = 0.5
GRID_TEMPORAL = 1800.0
# Event builds stop at h = 2.  After the daily period, the default build
# (max_h 5) keeps between 0 and 4 further periods fitted to noise,
# depending on the draw, so its cost varies 3x from seed to seed.  With
# max_h 2 every build makes exactly three fits and two spectrum scans,
# and the period it adds at h = 2 still shows in the fingerprints.
EVENT_FLAGS = ["--clusters", "2", "--max-h", "2"]
# The FreMEn sweep of event `evaluate` leaves out m = 0 (the default range
# is 0-3).  The per-cell FreMEn baselines of every fold run at the chosen
# m, and at m = 0 they skip the spectrum: the operation then costs about
# 20% less, so the cost depended on which m won for the draw.
EVENT_CONFIG = "fremen_range = 1,2,3\n"


@dataclass(frozen=True)
class Scale:
    """Input sizes; `FULL` is the benchmark, `SMALL` the self-test."""

    valued_days: int = 28
    valued_step: float = 1200.0
    fold_days: int = 7
    valued_folds: int = 3
    valued_inputs: int = 12
    event_days: int = 14
    event_raw: int = 4000
    event_folds: int = 2
    event_inputs: int = 2
    predict_rows: int = 100_000
    cell_rows: int = 1_000
    single_calls: int = 1_000


FULL = Scale()
SMALL = Scale(valued_days=7, fold_days=2, valued_folds=2, valued_inputs=1,
              event_days=3, event_raw=600, event_inputs=1,
              predict_rows=2_000, cell_rows=20, single_calls=20)


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# input generation


def valued_series(rng, t0, days, step):
    """Daily, weekly and 8 h cosines plus N(0, 0.05) noise."""
    t = np.arange(t0, t0 + days * DAY, step)
    a = (0.6 + 0.25 * np.cos(2 * np.pi * t / DAY)
         + 0.15 * np.cos(2 * np.pi * t / WEEK)
         + 0.1 * np.cos(2 * np.pi * t / (8 * 3600.0)))
    return t, a + rng.normal(0.0, 0.05, t.size)


def pedestrian_events(rng, n_days, n_raw):
    """Two spatial hot spots with a shared daily visit rhythm.

    The test suite's event fixture generator, with positions clipped to
    2.5 standard deviations around each spot.  The grids `evaluate`
    builds span the training data's bounding box, so unclipped normal
    tails would make the grid size, and with it the cost, a property of
    the draw.
    """
    t = np.sort(rng.uniform(0.0, n_days * DAY, n_raw))
    rate = 0.5 * (1.0 + np.cos(2 * np.pi * t / DAY)) / 1.6 + 0.05
    t = t[rng.uniform(0.0, 1.0, n_raw) < rate]
    spot = rng.integers(0, 2, t.size)

    def around(mean, sd):
        return np.clip(rng.normal(mean, sd, t.size), mean - 2.5 * sd,
                       mean + 2.5 * sd)

    x = np.where(spot == 0, around(2.0, 0.5), around(6.0, 0.8))
    y = np.where(spot == 0, around(1.0, 0.4), around(3.0, 0.6))
    return t, x, y


def write_csv(path, header, *columns):
    """Write columns as repr floats and read them back with the program.

    The program's own CSV reader must return exactly the values written;
    set-up fails otherwise.
    """
    columns = [np.asarray(c, float) for c in columns]
    lines = [",".join(header)]
    lines += [",".join(map(repr, row))
              for row in zip(*(c.tolist() for c in columns))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    data = dataset_mod.load_csv(path)
    read = [data.times, *data.coords.T]
    if data.values is not None:
        read.append(data.values)
    if not np.array_equal(np.column_stack(read), np.column_stack(columns)):
        raise CheckFailed(f"{path}: the program reads other values back")


def write_valued_inputs(work, seed, scale, index):
    """Training series and later folds of valued input `index`."""
    rng = np.random.default_rng([seed, index])
    days, step = scale.valued_days, scale.valued_step
    paths = [os.path.join(work, f"valued{index}.csv")]
    write_csv(paths[0], ["t", "a"], *valued_series(rng, 0.0, days, step))
    for f in range(scale.valued_folds):
        t0 = (days + f * scale.fold_days) * DAY
        paths.append(os.path.join(work, f"valued{index}_fold{f}.csv"))
        write_csv(paths[-1], ["t", "a"],
                  *valued_series(rng, t0, scale.fold_days, step))
    return paths


def write_event_inputs(work, seed, scale, index):
    """Training set and folds of event input `index`, each its own draw."""
    paths = []
    for i in range(scale.event_folds + 1):
        name = (f"events{index}.csv" if i == 0
                else f"events{index}_fold{i - 1}.csv")
        paths.append(os.path.join(work, name))
        rng = np.random.default_rng([seed, 1000 * (index + 1) + i])
        write_csv(paths[-1], ["t", "x1", "x2"],
                  *pedestrian_events(rng, scale.event_days, scale.event_raw))
    return paths


# ---------------------------------------------------------------------------
# operations


@dataclass
class OpResult:
    """One timed operation: wall time, outputs and check outcome."""

    seconds: float
    outputs: dict                 # compared byte for byte, trace on vs off
    attempted: int = 1
    failed: int = 0
    failures: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


class Clock:
    """Times a block and, when tracing, wraps it in the operation's span."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        self._span = self.tracer.begin_op() if self.tracer else None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        if self.tracer:
            self.tracer.end(self._span)


def call_cli(argv, tracer):
    """`hypertime.cli.main(argv)` in-process with stdout captured."""
    buf = io.StringIO()
    span = tracer.begin("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        if tracer:
            tracer.end(span)
    return rc, buf.getvalue()


def read_evaluation(out_dir, n_folds):
    """Check an `evaluate` report; return its files and per-method errors."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    lines = files["errors.csv"].decode().splitlines()
    if lines[0] != "method,fold,error":
        raise CheckFailed("errors.csv header")
    errors = {}
    for line in lines[1:]:
        method, fold, err = line.split(",")
        errors.setdefault(method, []).append((int(fold), float(err)))
    for method, rows in errors.items():
        if [f for f, _ in rows] != list(range(n_folds)):
            raise CheckFailed(f"errors.csv: folds of {method}")
        if not all(math.isfinite(e) for _, e in rows):
            raise CheckFailed(f"errors.csv: non-finite error of {method}")
    if "Mean" not in errors or not any(m.startswith("HyT-") for m in errors):
        raise CheckFailed("errors.csv lacks the Mean or a HyT-* method")
    report = json.loads(files["ttests.json"])
    if report["methods"] != list(errors):
        raise CheckFailed("ttests.json names other methods than errors.csv")
    per_method = {m: [e for _, e in rows] for m, rows in errors.items()}
    if report["fold_errors"] != per_method:
        raise CheckFailed("ttests.json fold errors differ from errors.csv")
    return files, per_method, report["parameters"]


def bytes_written(stdout, files=()):
    return len(stdout.encode()) + sum(len(b) for b in files)


class EvaluateWorkload:
    """`hypertime evaluate` on a set of seeded inputs, one at a time."""

    # Layers a traced operation must pass through; see tracing.py.
    layers = ("dataset", "projection", "clustering", "spectral", "model",
              "evaluation", "baselines", "cli")

    def __init__(self, name, seed, scale):
        self.name, self.seed, self.scale = name, seed, scale
        self.count = 0

    def setup(self, work):
        self.work = work
        s = self.scale
        if self.name == "valued-evaluate":
            self.inputs = [write_valued_inputs(work, self.seed, s, i)
                           for i in range(s.valued_inputs)]
            self.flags = []
        else:
            self.inputs = [write_event_inputs(work, self.seed, s, i)
                           for i in range(s.event_inputs)]
            config = os.path.join(work, "event.conf")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(EVENT_CONFIG)
            self.flags = EVENT_FLAGS + ["--config", config]

    def prepare(self):
        return {}

    @property
    def n_ops(self):
        return len(self.inputs)

    def run(self, index, tracer):
        train, *folds = self.inputs[index]
        self.count += 1
        out_dir = os.path.join(self.work, f"out{self.count}")
        argv = ["evaluate", "--input", train, "--out-dir", out_dir]
        for fold in folds:
            argv += ["--test", fold]
        with Clock(tracer) as clock:
            rc, stdout = call_cli(argv + self.flags, tracer)
        result = OpResult(clock.seconds, {}, detail={"input": index})
        try:
            if rc != 0:
                raise CheckFailed(f"evaluate exited with {rc}")
            files, errors, parameters = read_evaluation(out_dir, len(folds))
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            result.failed = 1
            result.failures.append(f"{self.name}[{index}]: {exc!r}")
            return result
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        result.outputs = {name: hashlib.sha256(data).hexdigest()
                          for name, data in files.items()}
        hyt = [e for m, errs in errors.items() if m.startswith("HyT-")
               for e in errs]
        result.detail.update({
            "hyt_fold_rmse": sum(hyt) / len(hyt),
            "parameters": parameters,
            "fold_errors": errors,
            "bytes_out": bytes_written(stdout, files.values()),
        })
        return result

    def summarize(self, results):
        """(named metrics as name -> (value, unit), fingerprints)."""
        per_input = {}
        for r in results:
            per_input.setdefault(r.detail["input"], []).append(r.seconds)
        evaluate_s = statistics.median(r.seconds for r in results)
        named = {"evaluate_s": (evaluate_s, "s")}
        info = {"evaluate_samples": {str(k): v for k, v in per_input.items()}}
        seen = {}
        for r in results:
            if "parameters" in r.detail and r.detail["input"] not in seen:
                seen[r.detail["input"]] = r.detail
        if seen:
            unit = "reading" if self.name == "valued-evaluate" else "count"
            named["hyt_fold_rmse"] = (statistics.fmean(
                d["hyt_fold_rmse"] for d in seen.values()), unit)
            info["fingerprints"] = [
                {"input": i, "parameters": d["parameters"],
                 "fold_errors": d["fold_errors"],
                 "hyt_em_vs_mean": _hyt_em_vs_mean(d["fold_errors"])}
                for i, d in sorted(seen.items())]
        return named, info


def _hyt_em_vs_mean(errors):
    """Largest relative gap between HyT-EM's and Mean's fold errors.

    An EM build that keeps no period predicts the calibrated training
    mean, so the gap is then at rounding level.
    """
    em = next((v for m, v in errors.items() if m.startswith("HyT-EM")), None)
    if em is None:
        return None
    return max(abs(a - b) / abs(b) for a, b in zip(em, errors["Mean"]))


# Set-up training runs `hypertime train` in a child process: the serving
# process then holds only what serving needs, so its peak memory is the
# read path's.
_TRAIN_CHILD = (
    "import json, sys\n"
    "src, jobs = sys.argv[1], json.loads(sys.argv[2])\n"
    "sys.path.insert(0, src)\n"
    "from hypertime.cli import main\n"
    "sys.exit(max(main(argv) for argv in jobs))\n"
)


class QueryServeWorkload:
    """Reads against two trained models; one operation is one round."""

    name = "query-serve"
    n_ops = 1
    layers = ("dataset", "clustering", "model", "cli")

    def __init__(self, seed, scale, src):
        self.seed, self.scale, self.src = seed, scale, src

    def setup(self, work):
        s = self.scale
        self.work = work
        valued_train = write_valued_inputs(work, self.seed, s, 0)[0]
        events_train = write_event_inputs(work, self.seed, s, 0)[0]
        self.events_train = events_train
        rng = np.random.default_rng([self.seed, 2000])
        horizon = (s.valued_days + s.valued_folds * s.fold_days) * DAY
        self.times = np.sort(rng.uniform(0.0, horizon, s.predict_rows))
        self.valued_queries = os.path.join(work, "valued_queries.csv")
        write_csv(self.valued_queries, ["t"], self.times)
        ct = rng.uniform(0.0, s.event_days * DAY, s.cell_rows)
        order = np.argsort(ct, kind="stable")
        self.cells = np.column_stack([
            ct, rng.uniform(0.0, 8.0, s.cell_rows),
            rng.uniform(-0.5, 5.0, s.cell_rows)])[order]
        self.cell_queries = os.path.join(work, "cell_queries.csv")
        write_csv(self.cell_queries, ["t", "x1", "x2"], *self.cells.T)
        self.valued_model = os.path.join(work, "valued.json")
        self.event_model = os.path.join(work, "events.json")
        jobs = [["train", "--input", valued_train, "--clusters", "1",
                 "--model", self.valued_model],
                ["train", "--input", events_train, *EVENT_FLAGS,
                 "--model", self.event_model]]
        subprocess.run([sys.executable, "-c", _TRAIN_CHILD, self.src,
                        json.dumps(jobs)], check=True, timeout=170,
                       stdout=subprocess.DEVNULL)

    @staticmethod
    def _cell(row):
        t, x1, x2 = (float(v) for v in row)
        h = GRID_SPATIAL / 2
        return ([(x1 - h, x1 + h), (x2 - h, x2 + h)],
                (t - GRID_TEMPORAL / 2, t + GRID_TEMPORAL / 2))

    def prepare(self):
        """Load the models and compute reference answers, untimed."""
        s = self.scale
        self.vm = model_mod.load_model(self.valued_model)
        self.em = model_mod.load_model(self.event_model)
        w = self.em.window
        spec = evaluation.GridSpec.from_cell_size(
            w.spatial_lo, w.spatial_hi, w.t_lo, w.t_hi,
            GRID_SPATIAL, GRID_TEMPORAL, expand=False)
        with open(self.events_train) as fh:
            n_events = sum(1 for _ in fh) - 1
        total = float(model_mod.predict_counts(self.em, spec).sum())
        mass_error = abs(total - n_events) / n_events
        self.ref_mean = model_mod.predict_mean(self.vm, None, self.times)
        self.ref_cells = np.array([model_mod.predict_cell_count(
            self.em, *self._cell(row)) for row in self.cells])
        self.single_times = [float(t) for t in self.times[:s.single_calls]]
        self.single_cells = [self._cell(row)
                             for row in self.cells[:s.single_calls]]
        fails = []
        if not mass_error < MASS_TOL:
            fails.append(f"event model mass off by {mass_error:.4f}")
        return {"attempted": 1, "failures": fails,
                "report": {"models": {"valued_periods": list(self.vm.periods),
                                      "event_periods": list(self.em.periods),
                                      "event_mass_error": mass_error}}}

    def run(self, index, tracer):
        # The library functions are looked up on their module at call
        # time, so the traced run sees its wrappers.
        mean_lat, cell_lat, means, counts = [], [], [], []
        now = time.perf_counter
        with Clock(tracer) as clock:
            t0 = now()
            rc1, out1 = call_cli(["predict", "--model", self.valued_model,
                                  "--input", self.valued_queries], tracer)
            t1 = now()
            rc2, out2 = call_cli(["predict", "--model", self.event_model,
                                  "--input", self.cell_queries,
                                  "--grid-spatial", str(GRID_SPATIAL),
                                  "--grid-temporal", str(GRID_TEMPORAL)],
                                 tracer)
            t2 = now()
            for t in self.single_times:
                a = now()
                means.append(model_mod.predict_mean(self.vm, None, t))
                mean_lat.append(now() - a)
            t3 = now()
            for bounds, tb in self.single_cells:
                a = now()
                counts.append(model_mod.predict_cell_count(self.em, bounds, tb))
                cell_lat.append(now() - a)
            t4 = now()
        n = self.scale.single_calls
        result = OpResult(clock.seconds, {}, attempted=2 + 2 * n,
                          detail={"input": index})
        # A batch predict is one operation; each single-row call is one.
        batches = [
            self._check_predict("predict", rc1, out1,
                                self.times.reshape(-1, 1), self.ref_mean),
            self._check_predict("cell predict", rc2, out2, self.cells,
                                self.ref_cells)]
        singles = [
            _mismatches("predict_mean", means, self.ref_mean[:n]),
            _mismatches("predict_cell_count", counts, self.ref_cells[:n])]
        result.failed = (sum(min(bad, 1) for bad, _ in batches)
                         + sum(bad for bad, _ in singles))
        result.failures = [m for _, msgs in batches + singles for m in msgs]
        result.outputs = {
            "predict": hashlib.sha256(out1.encode()).hexdigest(),
            "cell_predict": hashlib.sha256(out2.encode()).hexdigest(),
            "singles": hashlib.sha256(
                np.array(means + counts).tobytes()).hexdigest()}
        result.detail.update({
            "predict_s": t1 - t0, "cell_predict_s": t2 - t1,
            "mean_lat": mean_lat, "cell_lat": cell_lat,
            "parts": {"predict": t1 - t0, "cell_predict": t2 - t1,
                      "mean_queries": t3 - t2, "cell_queries": t4 - t3},
            "bytes_out": bytes_written(out1 + out2)})
        return result

    @staticmethod
    def _check_predict(what, rc, out, inputs, ref):
        if rc != 0:
            return 1, [f"{what} exited with {rc}"]
        try:
            rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1,
                              ndmin=2)
        except ValueError as exc:
            return 1, [f"{what}: unparsable output: {exc}"]
        if rows.shape != (len(ref), inputs.shape[1] + 1):
            return 1, [f"{what}: output has shape {rows.shape}"]
        if not np.array_equal(rows[:, :-1], inputs):
            return 1, [f"{what}: echoed query columns differ from the input"]
        return _mismatches(what, rows[:, -1], ref)

    def summarize(self, results):
        """(named metrics as name -> (value, unit), samples)."""
        info = {"round_samples": [r.seconds for r in results]}
        done = [r for r in results if "mean_lat" in r.detail]
        if not done:
            return {}, info
        info["round_parts"] = {name: [r.detail["parts"][name] for r in done]
                               for name in done[0].detail["parts"]}
        named = {
            "predict_s": (statistics.median(
                r.detail["predict_s"] for r in done), "s"),
            "cell_predict_s": (statistics.median(
                r.detail["cell_predict_s"] for r in done), "s"),
        }
        for kind in ("mean", "cell"):
            lat = [v for r in done for v in r.detail[f"{kind}_lat"]]
            for q in (50, 99):
                named[f"{kind}_query_p{q}_us"] = (
                    float(np.percentile(lat, q)) * 1e6, "us")
            info[f"{kind}_query_samples"] = len(lat)
        return named, info


def _mismatches(what, got, ref):
    """(rows off by more than REL_TOL relative, messages)."""
    got = np.asarray(got, dtype=float)
    bad = ~np.isclose(got, ref, rtol=REL_TOL, atol=0.0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return int(bad.sum()), [
            f"{what}: {int(bad.sum())} rows differ from the library, "
            f"first row {i}: {got[i]!r} vs {ref[i]!r}"]
    return 0, []


# ---------------------------------------------------------------------------
# the measured loop


def run_op(workload, index, tracer):
    """One operation; an exception counts as a failed operation."""
    t0 = time.perf_counter()
    try:
        return workload.run(index, tracer)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted, reported
        traceback.print_exc(file=sys.stderr)
        return OpResult(time.perf_counter() - t0, {}, failed=1,
                        failures=[f"{workload.name}[{index}]: {exc!r}"],
                        detail={"input": index})


def measure(workload, seconds, tracer):
    """Cycle over the workload's operations until `seconds` would pass.

    Every operation runs at least once.  A further one starts only if the
    mean step so far still fits, so a run ends close to `seconds`.  In a
    traced run each step is one untraced and one traced operation on the
    same input.
    """
    plain, traced, steps = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        index = i % workload.n_ops
        t0 = time.perf_counter()
        plain.append(run_op(workload, index, None))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_op(workload, index, tracer))
            finally:
                tracer.uninstall()
        steps.append(time.perf_counter() - t0)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= workload.n_ops and elapsed + statistics.fmean(steps) > seconds:
            return plain, traced


def op_seconds(results):
    """Mean over the run's inputs of each input's fastest operation.

    Other load on a shared machine only ever adds time, and it comes in
    stretches of several seconds.  The fastest repeat of an input is the
    one least disturbed by it; the mean over inputs keeps one input's
    cost from setting the number.  An operation timed in parts (a
    query-serve round) takes each part's fastest repeat and adds them.
    """
    fastest = {}
    for r in results:
        best = fastest.setdefault(r.detail["input"], {})
        for part, seconds in r.detail.get("parts", {"": r.seconds}).items():
            best[part] = min(best.get(part, math.inf), seconds)
    return statistics.fmean(sum(best.values()) for best in fastest.values())


def identity_failures(plain, traced):
    """Outputs of the same input must be byte-identical, trace on or off."""
    out = []
    for p, t in zip(plain, traced):
        if p.outputs and t.outputs and p.outputs != t.outputs:
            out.append(f"input {p.detail.get('input')}: outputs differ with "
                       "tracing on")
    return out


def make(name, seed, scale, src):
    if name == "query-serve":
        return QueryServeWorkload(seed, scale, src)
    return EvaluateWorkload(name, seed, scale)
