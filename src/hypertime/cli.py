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
import sys
from subprocess import DEVNULL, PIPE, Popen

import numpy as np

from .baselines import BaselineConfig, fremen_predictor, hist_predictor, \
    mean_predictor
from .clustering import FitConfig
from .dataset import EVENT, VALUED, load_csv, split_by_time
from .evaluation import grid_count, pairwise_ttests, rmse, sweep, \
    per_cell_baseline
from .model import BuildConfig, build, build_event, load_model, \
    predict_cell_count, predict_counts, predict_mean, density, save_model, \
    training_grid
from .spectral import ResidualSeries, default_candidates, spectrum
from . import writer

_DEFAULTS = {
    "mode": None,
    "backend": "em",
    "clusters": None,
    "max_h": 5,
    "longest_period": 604800.0,
    "candidates": 168,
    "seed": 42,
    "grid_spatial": 0.5,
    "grid_temporal": 1800.0,
    "clamp": None,
    "schema": None,
    "subsample": 1,
    "alpha": 0.05,
    "hist_range": "1,2,4,8,24,48",
    "fremen_range": "0,1,2,3",
    "clusters_range": "2,3,5,8",
    "spatial_edges": None,
    "temporal_edges": None,
}

_CONFIG_KEYS = set(_DEFAULTS) | {"input", "test", "model", "out_dir", "force"}

# Rows of `predict` output formatted and written at a time.
_PREDICT_BLOCK = 8192


class CliError(Exception):
    pass


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
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise CliError(f"{path}:{i}: unknown config key {key!r}")
                out[key] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    return out


def _resolve(args, config, key, cast=str):
    """Flag value if given, else config file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        raw = config[key]
        try:
            return cast(raw)
        except ValueError:
            raise CliError(f"config key {key!r}: bad value {raw!r}") from None
    return _DEFAULTS.get(key)


def _parse_clusters(text):
    if text is None or text == "auto":
        return text
    try:
        n = int(text)
    except ValueError:
        raise CliError(f"--clusters expects an integer or 'auto', got {text!r}") from None
    if n < 1:
        raise CliError("--clusters must be >= 1")
    return n


def _resolve_list(args, config, key, cast=int):
    """`_resolve` of a comma-separated list of `cast` values."""
    text = str(_resolve(args, config, key))
    try:
        return [cast(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        kind = "integers" if cast is int else "numbers"
        raise CliError(f"{key}: expected comma-separated {kind}") from None


def _load(path, schema):
    if path is None:
        raise CliError("--input is required")
    names = None if schema is None else [s.strip() for s in schema.split(",")]
    try:
        return load_csv(path, schema=names)
    except (OSError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _check_mode(data, wanted, path):
    if wanted is not None and data.mode != wanted:
        raise CliError(f"{path}: contains {data.mode} data, --mode {wanted} given")


def _fmt(x) -> str:
    return repr(float(x))


def _build_config(args, config, mode) -> BuildConfig:
    backend = _resolve(args, config, "backend")
    if backend not in ("em", "km"):
        raise CliError(f"unknown backend {backend!r}")
    clusters = _parse_clusters(_resolve(args, config, "clusters"))
    seed = _resolve(args, config, "seed", int)
    fit = FitConfig(seed=seed, backend=backend)
    auto = None
    if clusters == "auto":
        auto = True
    elif clusters is not None:
        fit = FitConfig(n_clusters=clusters, seed=seed, backend=backend)
        auto = False
    elif backend == "em":
        raise CliError("the em backend needs --clusters (an integer)")
    cfg = BuildConfig(
        fit=fit,
        max_h=_resolve(args, config, "max_h", int),
        longest_period=_resolve(args, config, "longest_period", float),
        n_candidates=_resolve(args, config, "candidates", int),
        auto_clusters=auto,
    )
    if mode == EVENT:
        cfg.event_spatial_bin = _resolve(args, config, "grid_spatial", float)
        cfg.event_temporal_bin = _resolve(args, config, "grid_temporal", float)
    return cfg


# ---------------------------------------------------------------------------
# train


def cmd_train(args, config) -> int:
    data = _load(args.input, _resolve(args, config, "schema"))
    wanted = _resolve(args, config, "mode")
    _check_mode(data, wanted, args.input)
    _check_grid_flags(args, data.mode)
    if args.model is None:
        raise CliError("--model is required")
    if os.path.exists(args.model) and not args.force:
        raise CliError(f"{args.model} exists; pass --force to overwrite")
    cfg = _build_config(args, config, data.mode)
    model = build(data, cfg) if data.mode == VALUED else build_event(data, cfg)
    save_model(model, args.model)
    print(f"mode: {model.mode}")
    print(f"gamma: {_fmt(model.gamma)}"
          + (" (fallback)" if model.gamma_fallback else ""))
    print("h  error            period     kept")
    for step in model.build_log:
        period = "-" if step.period is None else f"{step.period:.1f}"
        print(f"{step.h}  {step.error:<15.9g}  {period:<9}  "
              f"{'yes' if step.kept else 'no'}")
    print(f"model written to {args.model}")
    return 0


# ---------------------------------------------------------------------------
# predict


def cmd_predict(args, config) -> int:
    if args.model is None:
        raise CliError("--model is required")
    try:
        model = load_model(args.model)
    except (OSError, ValueError) as exc:
        raise CliError(f"{args.model}: {exc}") from None
    queries = _load(args.input, _resolve(args, config, "schema"))
    wanted = _resolve(args, config, "mode")
    if wanted is not None and wanted != model.mode:
        raise CliError(f"model is {model.mode}, --mode {wanted} given")
    if queries.spatial_dim != model.layout.spatial_dim:
        raise CliError(
            f"queries have {queries.spatial_dim} spatial dims, "
            f"model expects {model.layout.spatial_dim}")
    clamp = _valued_clamp(args, config, model.mode)
    _check_grid_flags(args, model.mode)
    coords = queries.coords if queries.spatial_dim else None
    if model.mode == VALUED:
        preds = _clamped(predict_mean(model, coords, queries.times), clamp)
    else:
        if args.grid_spatial is not None or args.grid_temporal is not None:
            se = _resolve(args, config, "grid_spatial", float)
            te = _resolve(args, config, "grid_temporal", float)
            sub = _resolve(args, config, "subsample", int)
            c, t = queries.coords, queries.times
            preds = predict_cell_count(
                model, np.stack([c - se / 2, c + se / 2], axis=2),
                np.column_stack([t - te / 2, t + te / 2]), subsample=sub)
        else:
            preds = np.atleast_1d(
                density(model, x=coords, t=queries.times))
    header = ["t"] + [f"x{d + 1}" for d in range(queries.spatial_dim)]
    columns = [queries.times, *queries.coords.T, preds]
    sys.stdout.write(",".join(header + ["prediction"]) + "\n")
    # Only one block's strings are alive at a time.
    for r0 in range(0, len(preds), _PREDICT_BLOCK):
        fields = [list(map(repr, c[r0:r0 + _PREDICT_BLOCK].tolist()))
                  for c in columns]
        sys.stdout.write("\n".join(map(",".join, zip(*fields))) + "\n")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _validation_split(train):
    boundary = train.times.min() + 0.75 * (train.times.max() - train.times.min())
    try:
        return split_by_time(train, boundary)
    except ValueError:
        return train, train


def _valued_clamp(args, config, mode):
    """The --clamp bounds; only valued predictions can be clamped."""
    text = _resolve(args, config, "clamp")
    if text is None:
        return None
    if mode != VALUED:
        raise CliError(f"--clamp applies to valued data only, not {mode} data")
    parts = str(text).split(":")
    if len(parts) != 2:
        raise CliError("--clamp expects lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise CliError("--clamp expects numeric lo:hi") from None
    if hi <= lo:
        raise CliError("--clamp upper bound must exceed the lower bound")
    return lo, hi


def _check_grid_flags(args, mode):
    """Grid flags apply to event data only; config values are not checked."""
    for key in ("grid_spatial", "grid_temporal"):
        if mode == VALUED and getattr(args, key) is not None:
            raise CliError(f"--{key.replace('_', '-')} applies to event "
                           f"data only, not {mode} data")


def _clamped(preds, clamp):
    preds = np.atleast_1d(preds)
    if clamp is None:
        return preds
    return np.clip(preds, clamp[0], clamp[1])


def _evaluate_valued(args, config, train, folds, clamp):
    seed = _resolve(args, config, "seed", int)
    head, tail = _validation_split(train)
    candidates = default_candidates(
        train.duration,
        _resolve(args, config, "longest_period", float),
        _resolve(args, config, "candidates", int),
    )

    hist_range = _resolve_list(args, config, "hist_range")
    fremen_range = _resolve_list(args, config, "fremen_range")
    best_hist = sweep(head, tail, lambda tr, n: hist_predictor(tr, n),
                      hist_range).best
    best_fremen = sweep(
        head, tail,
        lambda tr, m: fremen_predictor(tr, m, candidates),
        fremen_range).best

    clusters = _parse_clusters(_resolve(args, config, "clusters"))
    shared = dict(
        max_h=_resolve(args, config, "max_h", int),
        longest_period=_resolve(args, config, "longest_period", float),
        n_candidates=_resolve(args, config, "candidates", int))

    def em_cfg(k):
        return BuildConfig(fit=FitConfig(n_clusters=k, seed=seed,
                                         backend="em"),
                           auto_clusters=False, **shared)

    if isinstance(clusters, int):
        em_k = clusters
    else:
        em_k = sweep(head, tail, lambda tr, k: build(tr, em_cfg(k)),
                     _resolve_list(args, config, "clusters_range")).best

    em_model = build(train, em_cfg(em_k))
    km_model = build(train, BuildConfig(
        fit=FitConfig(seed=seed, backend="km"), auto_clusters=True, **shared))
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


def _evaluate_event(args, config, train, folds):
    spatial_edge = _resolve(args, config, "grid_spatial", float)
    temporal_edge = _resolve(args, config, "grid_temporal", float)
    cfg = _build_config(args, config, EVENT)
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

    hist_range = _resolve_list(args, config, "hist_range")
    fremen_range = _resolve_list(args, config, "fremen_range")
    best_hist = sweep(head, tail, baseline_factory("hist"), hist_range,
                      scorer=grid_scorer).best
    best_fremen = sweep(head, tail, baseline_factory("fremen"), fremen_range,
                        scorer=grid_scorer).best

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
    edge_pairs = _edge_pairs(args, config)
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


def _edge_pairs(args, config):
    """The (spatial, temporal) cell edges of the event heatmaps."""
    if None in (_resolve(args, config, "spatial_edges"),
                _resolve(args, config, "temporal_edges")):
        return [(_resolve(args, config, "grid_spatial", float),
                 _resolve(args, config, "grid_temporal", float))]
    return list(itertools.product(
        _resolve_list(args, config, "spatial_edges", float),
        _resolve_list(args, config, "temporal_edges", float)))


def _heatmap_name(fold, spatial_edge, temporal_edge):
    return f"heatmap_fold{fold}_s{spatial_edge:g}_t{temporal_edge:g}.dat"


@contextlib.contextmanager
def _heatmap_helper(n_files):
    """`writer` run as a script, for part of `n_files` heatmaps (None with
    one heatmap, one CPU or no interpreter file); reaped on leaving, also
    on an error, as closing its stdin ends a helper with no request."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    if n_files < 2 or cpus < 2 or not all(
            map(os.path.isfile, (sys.executable, writer.__file__))):
        yield None
        return
    proc = Popen([sys.executable, "-I", "-S", writer.__file__],
                 stdin=PIPE, stdout=DEVNULL, stderr=PIPE)
    try:
        yield proc
    finally:
        with contextlib.suppress(OSError):
            proc.stdin.close()
        proc.stderr.close()
        proc.wait()


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
            helper.stdin.close()
    for path, *grid in files[:mine]:
        writer.write_text(path, writer.heatmap_blocks(*grid), force)
    if mine < len(files):
        err = helper.stderr.read().decode(errors="replace").strip()
        if helper.wait() != 0:
            raise CliError(err or "the heatmap writer failed")


def cmd_evaluate(args, config) -> int:
    schema = _resolve(args, config, "schema")
    train = _load(args.input, schema)
    wanted = _resolve(args, config, "mode")
    _check_mode(train, wanted, args.input)
    test_paths = args.test or [
        p.strip() for p in config.get("test", "").split(",") if p.strip()]
    if not test_paths:
        raise CliError("evaluate needs at least one --test fold")
    folds = []
    for path in test_paths:
        fold = _load(path, schema)
        if fold.mode != train.mode:
            raise CliError(f"{path}: fold mode {fold.mode} differs from training")
        folds.append(fold)
    clamp = _valued_clamp(args, config, train.mode)
    _check_grid_flags(args, train.mode)
    run_ttests = len(folds) >= 2
    if not run_ttests:
        print("warning: a single test fold cannot support t-tests; "
              "writing errors only", file=sys.stderr)
    out_dir = args.out_dir or config.get("out_dir")
    if out_dir is None:
        raise CliError("--out-dir is required")
    os.makedirs(out_dir, exist_ok=True)
    force = args.force
    errors_path = os.path.join(out_dir, "errors.csv")
    report_path = os.path.join(out_dir, "ttests.json")
    maps = [] if train.mode != EVENT else [
        os.path.join(out_dir, _heatmap_name(fi, se, te))
        for fi in range(len(folds)) for se, te in _edge_pairs(args, config)]
    planned = [errors_path] + ([report_path] if run_ttests else []) + maps
    if len(set(planned)) < len(planned):
        raise CliError("spatial_edges and temporal_edges name one heatmap "
                       "file twice")
    for path in planned:
        if os.path.exists(path) and not force:
            raise CliError(f"{path} exists; pass --force to overwrite")

    # Started this early, the helper's start-up hides behind the model work.
    with _heatmap_helper(len(maps)) as helper:
        if train.mode == VALUED:
            per_fold, parameters, heatmaps = _evaluate_valued(
                args, config, train, folds, clamp)
        else:
            per_fold, parameters, heatmaps = _evaluate_event(
                args, config, train, folds)

        alpha = _resolve(args, config, "alpha", float)
        lines = ["method,fold,error"]
        for name in per_fold:
            for fi, err in enumerate(per_fold[name]):
                lines.append(f"{name},{fi},{_fmt(err)}")
        writer.write_text(errors_path, "\n".join(lines) + "\n", force)
        if run_ttests:
            report = pairwise_ttests(per_fold, alpha=alpha)
            payload = report.to_dict()
            payload["alpha"] = alpha
            payload["parameters"] = parameters
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


def cmd_spectrum(args, config) -> int:
    data = _load(args.input, _resolve(args, config, "schema"))
    if data.mode != VALUED:
        raise CliError("spectrum needs a valued CSV")
    candidates = default_candidates(
        data.duration,
        _resolve(args, config, "longest_period", float),
        _resolve(args, config, "candidates", int),
    )
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
    sp.add_argument("--mode", choices=[VALUED, EVENT],
                    help="expected data mode (validated against the CSV)")


def _add_build_flags(sp):
    sp.add_argument("--backend", choices=["em", "km"])
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
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config) if getattr(args, "config", None) \
            else {}
        return _COMMANDS[args.command](args, config)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
