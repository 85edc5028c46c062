"""Command line interface: train, predict, evaluate, spectrum.

Every command reads measurement CSVs (header ``t[,a][,x1..xd]``), runs
deterministically for a fixed seed, and writes outputs atomically
(write-then-rename), refusing to overwrite existing files unless
``--force`` is given.  A ``--config`` file of ``key=value`` lines fills
in any flag not given on the command line; explicit flags win.
"""

import argparse
import contextlib
import itertools
import json
import os
import pickle
import signal
import sys
import warnings
from subprocess import PIPE, Popen

import numpy as np

from .baselines import BaselineConfig, fremen_predictor, hist_predictor, \
    mean_predictor
from .clustering import FitConfig
from .dataset import EVENT, VALUED, load_csv, split_by_time
from .evaluation import _default_scorer, grid_count, pairwise_ttests, rmse, \
    sweep, per_cell_baseline
from .model import BuildConfig, build, build_event, load_model, \
    predict_cell_count, predict_counts, predict_mean, density, save_model, \
    training_grid
from .spectral import ResidualSeries, default_candidates, spectrum
from . import writer

# `predict` hands half its rows to the writer helper past this many output
# fields; below it the helper costs more than it saves (BENCH_21.json).
_HELPER_FIELDS = 65_536
_MODES, _BACKENDS = (VALUED, EVENT), ("em", "km")


class CliError(Exception):
    pass


def _parse_clusters(text):
    if text == "auto":
        return text
    try:
        n = int(text)
    except ValueError:
        raise CliError(f"--clusters expects an integer or 'auto', got {text!r}") from None
    if n < 1:
        raise CliError("--clusters must be >= 1")
    return n


def _parse_clamp(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError("--clamp expects lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise CliError("--clamp expects numeric lo:hi") from None
    if hi <= lo:
        raise CliError("--clamp upper bound must exceed the lower bound")
    return lo, hi


def _choice(choices):
    """Parser of one of `choices`, the list its flag's argparse shares."""
    def parse(text):
        if text not in choices:
            raise ValueError(text)
        return text
    return parse


def _split(cast):
    """Parser of a comma-separated list of `cast` values, blanks dropped."""
    return lambda text: [cast(v.strip()) for v in text.split(",")
                         if v.strip() != ""]


_BUILD, _FIT = BuildConfig(), FitConfig()

# Every key that a flag or a --config line can set: its default and the
# parser of its text.  Text is a config line's value or a string-typed
# flag's; argparse has already typed the other flags.
_OPTIONS = {
    "input": (None, str),
    "model": (None, str),
    "test": ((), _split(str)),
    "out_dir": (None, str),
    "schema": (None, lambda text: [s.strip() for s in text.split(",")]),
    "mode": (None, _choice(_MODES)),
    "backend": (_FIT.backend, _choice(_BACKENDS)),
    "clusters": (None, _parse_clusters),
    "max_h": (_BUILD.max_h, int),
    "longest_period": (_BUILD.longest_period, float),
    "candidates": (_BUILD.n_candidates, int),
    "seed": (_FIT.seed, int),
    "grid_spatial": (_BUILD.event_spatial_bin, float),
    "grid_temporal": (_BUILD.event_temporal_bin, float),
    "clamp": (None, _parse_clamp),
    "subsample": (1, int),
    "alpha": (0.05, float),
    "hist_range": ((1, 2, 4, 8, 24, 48), _split(int)),
    "fremen_range": ((0, 1, 2, 3), _split(int)),
    "clusters_range": ((2, 3, 5, 8), _split(int)),
    "spatial_edges": (None, _split(float)),
    "temporal_edges": (None, _split(float)),
}


def _read_config(path) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{i}: expected key=value")
                key, value = (s.strip() for s in line.split("=", 1))
                if key not in _OPTIONS:
                    raise CliError(f"{path}:{i}: unknown config key {key!r}")
                out[key] = value
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    return out


def _options(args) -> argparse.Namespace:
    """Every `_OPTIONS` key: the flag, else the config line, else default."""
    config = _read_config(args.config) if args.config else {}
    opts = argparse.Namespace()
    for key, (default, parse) in _OPTIONS.items():
        value = getattr(args, key, None)
        if value is None and key in config:
            try:
                value = parse(config[key])
            except ValueError:
                raise CliError(f"config key {key!r}: bad value "
                               f"{config[key]!r}") from None
        elif isinstance(value, str):
            value = parse(value)
        setattr(opts, key, default if value is None else value)
    return opts


def _load(path, names):
    if path is None:
        raise CliError("--input is required")
    try:
        return load_csv(path, schema=names)
    except (OSError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _check_mode(data, wanted, path):
    if wanted is not None and data.mode != wanted:
        raise CliError(f"{path}: contains {data.mode} data, --mode {wanted} given")


def _fmt(x) -> str:
    return repr(float(x))


def _build_config(opts, mode, **override) -> BuildConfig:
    """The `BuildConfig` of `opts`, with the keys in `override` replaced."""
    opts = argparse.Namespace(**{**vars(opts), **override})
    fixed = isinstance(opts.clusters, int)
    if opts.clusters is None and opts.backend == "em":
        raise CliError("the em backend needs --clusters (an integer)")
    if mode == EVENT and not fixed:
        raise CliError("event data needs --clusters (an integer)")
    grid = dict(event_spatial_bin=opts.grid_spatial,
                event_temporal_bin=opts.grid_temporal) if mode == EVENT else {}
    return BuildConfig(
        fit=FitConfig(n_clusters=opts.clusters if fixed else _FIT.n_clusters,
                      seed=opts.seed, backend=opts.backend),
        max_h=opts.max_h,
        longest_period=opts.longest_period,
        n_candidates=opts.candidates,
        # None leaves the km backend to pick the count.
        auto_clusters=None if opts.clusters is None else not fixed,
        **grid)


# ---------------------------------------------------------------------------
# train


def cmd_train(args, opts) -> int:
    data = _load(opts.input, opts.schema)
    _check_mode(data, opts.mode, opts.input)
    _check_grid_flags(args, data.mode)
    if opts.model is None:
        raise CliError("--model is required")
    if os.path.exists(opts.model) and not args.force:
        raise CliError(f"{opts.model} exists; pass --force to overwrite")
    cfg = _build_config(opts, data.mode)
    model = build(data, cfg) if data.mode == VALUED else build_event(data, cfg)
    save_model(model, opts.model)
    print(f"mode: {model.mode}")
    print(f"gamma: {_fmt(model.gamma)}"
          + (" (fallback)" if model.gamma_fallback else ""))
    print("h  error            period     kept")
    for step in model.build_log:
        period = "-" if step.period is None else f"{step.period:.1f}"
        print(f"{step.h}  {step.error:<15.9g}  {period:<9}  "
              f"{'yes' if step.kept else 'no'}")
    print(f"model written to {opts.model}")
    return 0


# ---------------------------------------------------------------------------
# predict


def cmd_predict(args, opts) -> int:
    if opts.model is None:
        raise CliError("--model is required")
    try:
        model = load_model(opts.model)
    except (OSError, ValueError) as exc:
        raise CliError(f"{opts.model}: {exc}") from None
    queries = _load(opts.input, opts.schema)
    if opts.mode is not None and opts.mode != model.mode:
        raise CliError(f"model is {model.mode}, --mode {opts.mode} given")
    if queries.spatial_dim != model.layout.spatial_dim:
        raise CliError(
            f"queries have {queries.spatial_dim} spatial dims, "
            f"model expects {model.layout.spatial_dim}")
    clamp = _valued_clamp(opts, model.mode)
    _check_grid_flags(args, model.mode)
    coords = queries.coords if queries.spatial_dim else None
    # Started here, the helper's start-up hides behind the predictions.
    fields = len(queries) * (queries.spatial_dim + 2)
    with _helper(fields > _HELPER_FIELDS) as helper:
        if model.mode == VALUED:
            preds = _clamped(predict_mean(model, coords, queries.times), clamp)
        elif args.grid_spatial is not None or args.grid_temporal is not None:
            se, te = opts.grid_spatial, opts.grid_temporal
            c, t = queries.coords, queries.times
            preds = predict_cell_count(
                model, np.stack([c - se / 2, c + se / 2], axis=2),
                np.column_stack([t - te / 2, t + te / 2]),
                subsample=opts.subsample)
        else:
            preds = np.atleast_1d(density(model, x=coords, t=queries.times))
        header = ["t"] + [f"x{d + 1}" for d in range(queries.spatial_dim)]
        columns = [queries.times, *queries.coords.T, preds]
        mine = len(preds) if helper is None else (len(preds) + 1) // 2
        if helper is not None:
            with contextlib.suppress(BrokenPipeError):  # its exit says why
                writer.send_rows(helper.stdin, np.array(
                    [c[mine:] for c in columns], dtype=float))
        sys.stdout.write(",".join(header + ["prediction"]) + "\n")
        sys.stdout.writelines(writer.csv_rows([c[:mine] for c in columns]))
        if helper is not None:
            sys.stdout.write(_helper_output(helper).decode())
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _validation_split(train):
    boundary = train.times.min() + 0.75 * (train.times.max() - train.times.min())
    try:
        return split_by_time(train, boundary)
    except ValueError:
        return train, train


def _valued_clamp(opts, mode):
    """The --clamp bounds; only valued predictions can be clamped."""
    if opts.clamp is not None and mode != VALUED:
        raise CliError(f"--clamp applies to valued data only, not {mode} data")
    return opts.clamp


def _check_grid_flags(args, mode):
    """Grid flags apply to event data only; config values are not checked."""
    for key in ("grid_spatial", "grid_temporal"):
        if mode == VALUED and getattr(args, key) is not None:
            raise CliError(f"--{key.replace('_', '-')} applies to event "
                           f"data only, not {mode} data")


def _clamped(preds, clamp):
    preds = np.atleast_1d(preds)
    return preds if clamp is None else np.clip(preds, *clamp)


def _evaluate_valued(opts, train, folds, clamp):
    head, tail = _validation_split(train)
    candidates = default_candidates(train.duration, opts.longest_period,
                                    opts.candidates)
    best_hist = sweep(head, tail, lambda tr, n: hist_predictor(tr, n),
                      opts.hist_range).best
    best_fremen = sweep(head, tail, lambda tr, m: fremen_predictor(
        tr, m, candidates), opts.fremen_range).best

    # HyT-EM and HyT-KM both run, whatever --backend says.
    def em_cfg(k):
        return _build_config(opts, VALUED, backend="em", clusters=k)

    # With two CPUs a child runs the last half of the tasks (HyT-KM and, by
    # default, k = 8) while this process runs the rest and the final EM.
    fixed = isinstance(opts.clusters, int)
    tasks = [lambda: build(train, em_cfg(opts.clusters))] if fixed else [
        lambda k=k: _default_scorer(build(head, em_cfg(k)), tail)
        for k in opts.clusters_range]
    tasks.append(lambda: build(train, _build_config(
        opts, VALUED, backend="km", clusters="auto")))
    with _forked(tasks) as outcomes:
        em_k = opts.clusters if fixed else sweep(
            head, tail, lambda tr, k: next(outcomes)(), opts.clusters_range,
            scorer=lambda score, _validation: score).best
        em_model = next(outcomes)() if fixed else build(train, em_cfg(em_k))
        km_model = next(outcomes)()
    predictors = {
        "Mean": mean_predictor(train),
        f"Hist_{best_hist}": hist_predictor(train, best_hist),
        f"FreMEn_{best_fremen}": fremen_predictor(train, best_fremen, candidates),
        f"HyT-EM_{em_k}": em_model,
        "HyT-KM": km_model,
    }
    per_fold = {name: [] for name in predictors}
    for fold in folds:
        coords = fold.coords if fold.spatial_dim else None
        for name, predictor in predictors.items():
            preds = _clamped(predictor.predict(coords, fold.times), clamp)
            per_fold[name].append(rmse(preds, fold.values))
    parameters = {
        "hist_n": best_hist,
        "fremen_m": best_fremen,
        "em_clusters": em_k,
        "km_clusters": km_model.mixture.n,
    }
    return per_fold, parameters, []


def _evaluate_event(opts, train, folds):
    spatial_edge, temporal_edge = opts.grid_spatial, opts.grid_temporal
    cfg = _build_config(opts, EVENT)
    model = build_event(train, cfg)
    candidates = default_candidates(train.duration, cfg.longest_period,
                                    cfg.n_candidates)

    head, tail = _validation_split(train)
    val_spec = training_grid(model.window, float(tail.times.min()),
                             float(tail.times.max()), spatial_edge,
                             temporal_edge)
    val_counts = grid_count(tail, val_spec)

    def baseline_factory(kind):
        def make(tr, p):
            bc = BaselineConfig(kind=kind, n_intervals=max(p, 1),
                                m_components=max(p, 0))
            return per_cell_baseline(tr, val_spec, bc, candidates)
        return make

    def grid_scorer(predicted, _validation):
        return rmse(predicted.reshape(-1), val_counts.reshape(-1))

    best_hist = sweep(head, tail, baseline_factory("hist"), opts.hist_range,
                      scorer=grid_scorer).best
    best_fremen = sweep(head, tail, baseline_factory("fremen"),
                        opts.fremen_range, scorer=grid_scorer).best

    hyt_name = f"HyT-{cfg.fit.backend.upper()}"
    methods = {
        hyt_name: None,
        "Mean": BaselineConfig(kind="mean"),
        f"Hist_{best_hist}": BaselineConfig(kind="hist", n_intervals=best_hist),
        f"FreMEn_{best_fremen}": BaselineConfig(kind="fremen",
                                                m_components=best_fremen),
    }
    per_fold = {name: [] for name in methods}
    heatmaps = []
    edge_pairs = _edge_pairs(opts)
    for fi, fold in enumerate(folds):
        span = float(fold.times.min()), float(fold.times.max())
        grids = {}  # (spec, observed, HyT counts) per edge pair
        for pair in [(spatial_edge, temporal_edge)] + edge_pairs:
            if pair not in grids:
                spec = training_grid(model.window, *span, *pair)
                grids[pair] = (spec, grid_count(fold, spec),
                               predict_counts(model, spec))
        spec, observed, hyt = grids[spatial_edge, temporal_edge]
        predictions = {hyt_name: hyt}
        for name, bc in methods.items():
            if bc is None:
                continue
            predictions[name] = per_cell_baseline(train, spec, bc,
                                                  candidates)
        for name in methods:
            per_fold[name].append(
                rmse(predictions[name].reshape(-1), observed.reshape(-1)))
        heatmaps += [(fi, se, te, *grids[se, te]) for se, te in edge_pairs]
    parameters = {
        "hist_n": best_hist,
        "fremen_m": best_fremen,
        "clusters": model.mixture.n,
    }
    return per_fold, parameters, heatmaps


def _edge_pairs(opts):
    """The (spatial, temporal) cell edges of the event heatmaps."""
    if None in (opts.spatial_edges, opts.temporal_edges):
        return [(opts.grid_spatial, opts.grid_temporal)]
    return list(itertools.product(opts.spatial_edges, opts.temporal_edges))


def _heatmap_name(fold, spatial_edge, temporal_edge):
    return f"heatmap_fold{fold}_s{spatial_edge:g}_t{temporal_edge:g}.dat"


def _two_cpus():
    """Whether this process may run on two or more CPUs."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) >= 2


@contextlib.contextmanager
def _forked(tasks):
    """An iterator of a callable per task: `task()`, or its exception raised.
    With `os.fork` and two CPUs, a child runs the last half of the tasks,
    pickles each result and its recorded warnings into a pipe, writes
    nothing else and leaves by `os._exit`; such a task's callable reads its
    result and issues its warnings as `warnings.warn` did.  The child is
    killed and reaped on leaving."""
    theirs = len(tasks) // 2
    if not (theirs and hasattr(os, "fork") and _two_cpus()):
        yield iter(tasks)
        return
    read, write = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            os.close(read)
            with open(write, "wb") as out:
                for task in tasks[-theirs:]:
                    with warnings.catch_warnings(record=True) as seen:
                        warnings.simplefilter("always")
                        try:
                            result = task(), None
                        except Exception as exc:  # noqa: BLE001 - re-raised
                            result = None, exc
                    pickle.dump((*result, [(w.message, w.category, w.filename,
                                            w.lineno) for w in seen]), out)
                    out.flush()
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)

    def received():
        try:
            value, exc, seen = pickle.load(results)
        except (EOFError, pickle.UnpicklingError):
            raise CliError("the build process ended before its results")
        for warning in seen:  # message, category, filename, line number
            module = next((vars(m) for m in list(sys.modules.values())
                           if getattr(m, "__file__", None) == warning[2]), {})
            warnings.warn_explicit(*warning, module.get("__name__"),
                                   module.setdefault("__warningregistry__", {}))
        if exc is not None:
            raise exc
        return value

    with open(read, "rb") as results:
        try:
            yield iter(tasks[:-theirs] + [received] * theirs)
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@contextlib.contextmanager
def _helper(wanted):
    """`writer` run as a script for `evaluate` and `predict`, if `wanted`
    and two CPUs and the interpreter's files are there, else None; reaped
    on leaving, also on an error, as closing its pipes ends it."""
    if not wanted or not _two_cpus() or not all(
            map(os.path.isfile, (sys.executable, writer.__file__))):
        yield None
        return
    proc = Popen([sys.executable, "-I", "-S", writer.__file__],
                 stdin=PIPE, stdout=PIPE, stderr=PIPE)
    try:
        yield proc
    finally:
        with contextlib.suppress(OSError):
            proc.stdin.close()
        proc.stdout.close()
        proc.stderr.close()
        proc.wait()


def _helper_output(helper):
    """The bytes the helper wrote to stdout, once it exited with status 0;
    else its stderr as a `CliError`."""
    with contextlib.suppress(OSError):
        helper.stdin.close()
    out, err = helper.stdout.read(), helper.stderr.read()
    if helper.wait() != 0:
        raise CliError(err.decode(errors="replace").strip()
                       or "the writer helper failed")
    return out


def _dump_heatmaps(heatmaps, out_dir, force, helper=None):
    """Write the heatmaps; a `helper` writes the second half by cells."""
    files = [(os.path.join(out_dir, _heatmap_name(fi, se, te)),
              [spec.spatial_centers(d).tolist()
               for d in range(spec.spatial_dim)],
              spec.temporal_centers.tolist(),
              np.ascontiguousarray(obs, dtype=float).reshape(-1),
              np.ascontiguousarray(pred, dtype=float).reshape(-1))
             for fi, se, te, spec, obs, pred in heatmaps]
    mine = len(files)
    if helper is not None and mine >= 2:
        cells = list(itertools.accumulate(f[-1].size for f in files))
        mine = min(range(1, len(files)),
                   key=lambda k: abs(2 * cells[k - 1] - cells[-1]))
        with contextlib.suppress(BrokenPipeError):  # its exit says why
            writer.send(helper.stdin, files[mine:], force)
    for path, *grid in files[:mine]:
        writer.write_text(path, writer.heatmap_blocks(*grid), force)
    if mine < len(files):
        _helper_output(helper)


def cmd_evaluate(args, opts) -> int:
    train = _load(opts.input, opts.schema)
    _check_mode(train, opts.mode, opts.input)
    if not opts.test:
        raise CliError("evaluate needs at least one --test fold")
    folds = []
    for path in opts.test:
        fold = _load(path, opts.schema)
        if fold.mode != train.mode:
            raise CliError(f"{path}: fold mode {fold.mode} differs from training")
        folds.append(fold)
    clamp = _valued_clamp(opts, train.mode)
    _check_grid_flags(args, train.mode)
    run_ttests = len(folds) >= 2
    if not run_ttests:
        print("warning: a single test fold cannot support t-tests; "
              "writing errors only", file=sys.stderr)
    out_dir = opts.out_dir
    if out_dir is None:
        raise CliError("--out-dir is required")
    os.makedirs(out_dir, exist_ok=True)
    force = args.force
    errors_path = os.path.join(out_dir, "errors.csv")
    report_path = os.path.join(out_dir, "ttests.json")
    maps = [] if train.mode != EVENT else [
        os.path.join(out_dir, _heatmap_name(fi, se, te))
        for fi in range(len(folds)) for se, te in _edge_pairs(opts)]
    planned = [errors_path] + ([report_path] if run_ttests else []) + maps
    if len(set(planned)) < len(planned):
        raise CliError("spatial_edges and temporal_edges name one heatmap "
                       "file twice")
    for path in planned:
        if os.path.exists(path) and not force:
            raise CliError(f"{path} exists; pass --force to overwrite")

    # Started this early, the helper's start-up hides behind the model work.
    with _helper(len(maps) >= 2) as helper:
        per_fold, parameters, heatmaps = _evaluate_valued(
            opts, train, folds, clamp) if train.mode == VALUED \
            else _evaluate_event(opts, train, folds)

        lines = ["method,fold,error"] + [
            f"{name},{fi},{_fmt(err)}"
            for name, errs in per_fold.items() for fi, err in enumerate(errs)]
        writer.write_text(errors_path, "\n".join(lines) + "\n", force)
        if run_ttests:
            report = pairwise_ttests(per_fold, alpha=opts.alpha)
            payload = {**report.to_dict(), "alpha": opts.alpha,
                       "parameters": parameters}
            writer.write_text(report_path, json.dumps(
                payload, indent=2, sort_keys=True) + "\n", force)
        _dump_heatmaps(heatmaps, out_dir, force, helper)
    print(f"evaluation written to {out_dir}")
    if run_ttests:
        for a, b in report.edges:
            print(f"dominance: {a} -> {b}")
    return 0


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args, opts) -> int:
    data = _load(opts.input, opts.schema)
    if data.mode != VALUED:
        raise CliError("spectrum needs a valued CSV")
    candidates = default_candidates(data.duration, opts.longest_period,
                                    opts.candidates)
    result = spectrum(ResidualSeries(data.times, data.values), candidates)
    print("period,amplitude")
    for period, amp in result.entries:
        print(f"{_fmt(period)},{_fmt(amp)}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_data_flags(sp):
    sp.add_argument("--input", help="measurement CSV")
    sp.add_argument("--schema",
                    help="comma-separated column names for headerless CSVs")
    sp.add_argument("--config", help="key=value file merged under the flags")
    sp.add_argument("--mode", choices=_MODES,
                    help="expected data mode (validated against the CSV)")


def _add_build_flags(sp):
    sp.add_argument("--backend", choices=_BACKENDS)
    sp.add_argument("--clusters", help="cluster count or 'auto'")
    sp.add_argument("--max-h", dest="max_h", type=int)
    sp.add_argument("--longest-period", dest="longest_period", type=float)
    sp.add_argument("--candidates", type=int,
                    help="number of harmonic candidate periods")
    sp.add_argument("--seed", type=int)


def _add_grid_flags(sp):
    sp.add_argument("--grid-spatial", dest="grid_spatial", type=float,
                    help="spatial cell edge")
    sp.add_argument("--grid-temporal", dest="grid_temporal", type=float,
                    help="temporal cell length in seconds")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertime",
        description="Spatio-temporal models over circular time projections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="fit a model and write it as JSON")
    _add_data_flags(tr)
    _add_build_flags(tr)
    _add_grid_flags(tr)
    tr.add_argument("--model", help="output model path")
    tr.add_argument("--force", action="store_true")

    pr = sub.add_parser("predict", help="predict at query points")
    _add_data_flags(pr)
    _add_grid_flags(pr)
    pr.add_argument("--model", help="trained model path")
    pr.add_argument("--clamp", help="clamp valued predictions to lo:hi")

    ev = sub.add_parser("evaluate",
                        help="compare against baselines on held-out folds")
    _add_data_flags(ev)
    _add_build_flags(ev)
    _add_grid_flags(ev)
    ev.add_argument("--test", action="append", help="held-out fold CSV")
    ev.add_argument("--clamp", help="clamp valued predictions to lo:hi")
    ev.add_argument("--out-dir", dest="out_dir")
    ev.add_argument("--force", action="store_true")

    spp = sub.add_parser("spectrum", help="amplitudes of candidate periods")
    _add_data_flags(spp)
    spp.add_argument("--longest-period", dest="longest_period", type=float)
    spp.add_argument("--candidates", type=int)
    return parser


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "spectrum": cmd_spectrum,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        rc = _COMMANDS[args.command](args, _options(args))
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return rc
    except BrokenPipeError:
        # Stdout's reader stopped: exit quietly, and let what stdout still
        # holds go to devnull at exit (the Python docs' SIGPIPE note).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
