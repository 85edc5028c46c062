"""Command line surface: train, predict, evaluate, spectrum.

Commands are exercised through ``main(argv)`` so exit codes, stdout
CSVs, and written files are all checked exactly as a shell user would
see them.  Builds here use tiny data and one or two clusters to keep
the suite fast; statistical quality is covered elsewhere.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import hypertime
import hypertime.cli as cli
from hypertime import (Dataset, GridSpec, density, load_model,
                       predict_cell_count, predict_mean)
from hypertime.cli import _HELPER_FIELDS, _dump_heatmaps, _fmt, main
from hypertime.writer import ROW_BLOCK
from conftest import daily_series, pedestrian_events

DAY = 86400.0


def write_valued(path, ds):
    lines = ["t,a"]
    for t, a in zip(ds.times, ds.values):
        lines.append(f"{float(t)!r},{float(a)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_event(path, ds):
    cols = ["t"] + [f"x{i + 1}" for i in range(ds.spatial_dim)]
    lines = [",".join(cols)]
    for i in range(len(ds)):
        row = [repr(float(ds.times[i]))]
        row += [repr(float(c)) for c in ds.coords[i]]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After every test, this process has no child left, running or not
    reaped (the writer helper of `evaluate` and `predict` included)."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_valued(root / "train.csv", daily_series(7, 1200.0, 0.1, 7))
    write_valued(root / "fold1.csv", daily_series(2, 1200.0, 0.1, 8))
    write_valued(root / "fold2.csv", daily_series(2, 1200.0, 0.1, 9))
    write_event(root / "events.csv", pedestrian_events(3, 900, 3))
    write_event(root / "efold1.csv", pedestrian_events(1, 300, 4))
    write_event(root / "efold2.csv", pedestrian_events(1, 300, 5))
    return root


@pytest.fixture(scope="module")
def trained_model(workdir):
    path = workdir / "model.json"
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--clusters", "1", "--max-h", "1", "--model", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def trained_event_model(workdir):
    path = workdir / "event_model.json"
    rc = main(["train", "--input", str(workdir / "events.csv"),
               "--clusters", "2", "--max-h", "0",
               "--grid-spatial", "1.0", "--grid-temporal", "21600",
               "--model", str(path)])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# train


def test_train_writes_model_and_log(workdir, trained_model, capsys):
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--clusters", "1", "--max-h", "1",
               "--model", str(workdir / "m2.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gamma:" in out
    assert "h  error" in out
    assert "86400" in out
    assert "model written to" in out
    model = load_model(workdir / "m2.json")
    assert model.mode == "valued"
    assert model.projection.periods == (DAY,)


def test_train_refuses_overwrite_without_force(workdir, trained_model,
                                               capsys):
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--clusters", "1", "--max-h", "0",
               "--model", str(trained_model)])
    assert rc == 1
    assert "exists" in capsys.readouterr().err
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--clusters", "1", "--max-h", "1",
               "--model", str(trained_model), "--force"])
    assert rc == 0


def test_train_em_needs_clusters(workdir, capsys):
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--model", str(workdir / "never.json")])
    assert rc == 1
    assert "--clusters" in capsys.readouterr().err
    assert not (workdir / "never.json").exists()


def test_train_missing_input_names_path(workdir, capsys):
    rc = main(["train", "--input", str(workdir / "absent.csv"),
               "--clusters", "1", "--model", str(workdir / "never.json")])
    assert rc == 1
    assert "absent.csv" in capsys.readouterr().err


def test_train_max_h_zero_has_no_periods(workdir, tmp_path):
    path = tmp_path / "flat.json"
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--clusters", "1", "--max-h", "0", "--model", str(path)])
    assert rc == 0
    assert load_model(path).projection.periods == ()


def test_train_byte_identical_reruns(workdir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["train", "--input", str(workdir / "train.csv"),
            "--clusters", "1", "--max-h", "1"]
    assert main(argv + ["--model", str(a)]) == 0
    assert main(argv + ["--model", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_km_auto_clusters(workdir, tmp_path):
    path = tmp_path / "km.json"
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--backend", "km", "--clusters", "auto", "--max-h", "1",
               "--model", str(path)])
    assert rc == 0
    assert load_model(path).mixture.n >= 1


def test_train_collapsed_event_axis_fails_loudly(tmp_path, capsys):
    ev = pedestrian_events(4, 1200, 3)
    path = tmp_path / "flat.csv"
    write_event(path, Dataset(ev.times, np.column_stack(
        [ev.coords[:, 0], np.full(len(ev), 1.0)]), None))
    model = tmp_path / "flat.json"
    rc = main(["train", "--input", str(path), "--clusters", "2",
               "--max-h", "1", "--model", str(model)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: every training event has "
                                   "x2 = 1.0")
    assert not model.exists()


def test_train_mode_mismatch(workdir, capsys):
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--mode", "event", "--clusters", "1",
               "--model", str(workdir / "never.json")])
    assert rc == 1
    assert "valued" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--grid-spatial", "--grid-temporal"])
@pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
def test_grid_flags_on_valued_data_fail_loudly(workdir, trained_model,
                                               eval_config, tmp_path, capsys,
                                               command, flag):
    out = tmp_path / "out"
    argv = {"train": ["--clusters", "1", "--model", str(out)],
            "predict": ["--model", str(trained_model)],
            "evaluate": ["--test", str(workdir / "fold1.csv"),
                         "--config", str(eval_config), "--clusters", "1",
                         "--out-dir", str(out)]}[command]
    rc = main([command, "--input", str(workdir / "train.csv"), *argv,
               flag, "2"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == (f"error: {flag} applies to event data only, "
                            "not valued data\n")
    assert not out.exists()


def test_grid_keys_in_a_config_file_stay_allowed_on_valued_data(
        workdir, tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text("grid_spatial = 2\ngrid_temporal = 600\n",
                      encoding="utf-8")
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--clusters", "1", "--max-h", "0", "--config", str(config),
               "--model", str(tmp_path / "m.json")])
    assert rc == 0
    assert "model written" in capsys.readouterr().out


def test_train_config_file_supplies_flags(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("clusters = 1\nmax_h = 1\n# comment\n", encoding="utf-8")
    path = tmp_path / "cfg.json"
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--config", str(cfg), "--model", str(path)])
    assert rc == 0
    assert load_model(path).projection.periods == (DAY,)
    # An explicit flag beats the config file.
    path2 = tmp_path / "cfg2.json"
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--config", str(cfg), "--max-h", "0", "--model", str(path2)])
    assert rc == 0
    assert load_model(path2).projection.periods == ()


def test_unknown_config_key_is_rejected(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n", encoding="utf-8")
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--config", str(cfg), "--model", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bogus" in err
    assert f"{cfg}:1" in err


# Keys that only a config line can set; every other `_OPTIONS` key is in
# FLAG_CASES.
CONFIG_ONLY = {"subsample", "alpha", "hist_range", "fremen_range",
               "clusters_range", "spatial_edges", "temporal_edges"}

_TRAIN = ["train", "--input", "{train}", "--model", "m.json"]
_EVENTS = ["train", "--input", "{events}", "--clusters", "2", "--max-h", "1",
           "--model", "m.json"]
_EVALUATE = ["evaluate", "--input", "{train}", "--clusters", "1",
             "--max-h", "0"]
_FOLDS = ["--test", "{fold1}", "--test", "{fold2}"]

# key: (argv without the key, the key as flags, the same as a config
# value, another config value that changes the outcome)
FLAG_CASES = {
    "input": (["train", "--clusters", "1", "--max-h", "0", "--model",
               "m.json"], ["--input", "{train}"], "{train}", "{fold1}"),
    "model": (["train", "--input", "{train}", "--clusters", "1",
               "--max-h", "0"], ["--model", "m.json"], "m.json", "n.json"),
    "test": (_EVALUATE + ["--out-dir", "out"], _FOLDS, "{fold1}, {fold2}",
             "{fold1}"),
    "out_dir": (_EVALUATE + _FOLDS, ["--out-dir", "out"], "out", "other"),
    "schema": (["train", "--input", "{plain}", "--clusters", "1",
                "--max-h", "0", "--model", "m.json"],
               ["--schema", "t,a"], "t,a", "t,x1"),
    "mode": (_TRAIN + ["--clusters", "1", "--max-h", "0"],
             ["--mode", "valued"], "valued", "event"),
    "backend": (_TRAIN + ["--clusters", "2", "--max-h", "0"],
                ["--backend", "km"], "km", "em"),
    "clusters": (_TRAIN + ["--max-h", "0"], ["--clusters", "2"], "2", "1"),
    "max_h": (_TRAIN + ["--clusters", "1"], ["--max-h", "1"], "1", "0"),
    "longest_period": (["spectrum", "--input", "{train}"],
                       ["--longest-period", "172800"], "172800", "345600"),
    "candidates": (["spectrum", "--input", "{train}"],
                   ["--candidates", "20"], "20", "40"),
    "seed": (_TRAIN + ["--clusters", "2", "--max-h", "0"],
             ["--seed", "3"], "3", "5"),
    "grid_spatial": (_EVENTS, ["--grid-spatial", "1.0"], "1.0", "2.0"),
    "grid_temporal": (_EVENTS, ["--grid-temporal", "21600"], "21600",
                      "7200"),
    "clamp": (["predict", "--model", "{model}", "--input", "{queries}"],
              ["--clamp", "0.45:0.55"], "0.45:0.55", "0.5:0.6"),
}


@pytest.fixture
def paths(workdir, trained_model, tmp_path):
    queries = tmp_path / "queries.csv"
    queries.write_text("t\n" + "".join(
        f"{t!r}\n" for t in np.linspace(0.0, 2 * DAY, 9).tolist()),
        encoding="utf-8")
    plain = tmp_path / "plain.csv"
    plain.write_text((workdir / "train.csv").read_text().split("\n", 1)[1],
                     encoding="utf-8")
    names = ("train", "fold1", "fold2", "events")
    return dict({n: str(workdir / f"{n}.csv") for n in names},
                model=str(trained_model), queries=str(queries),
                plain=str(plain))


def _run_in(directory, monkeypatch, capsys, argv, config):
    """`main(argv + --config)` run in a new `directory`: the exit code,
    stdout, stderr and every file it wrote there."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    (directory / "run.cfg").write_text(config, encoding="utf-8")
    rc = main([*argv, "--config", "run.cfg"])
    out, err = capsys.readouterr()
    files = {str(p.relative_to(directory)): p.read_bytes()
             for p in sorted(directory.rglob("*"))
             if p.is_file() and p.name != "run.cfg"}
    return rc, out, err, files


def test_flag_cases_cover_every_key_with_a_flag():
    assert set(FLAG_CASES) == set(cli._OPTIONS) - CONFIG_ONLY


@pytest.mark.parametrize("key", sorted(FLAG_CASES))
def test_config_line_gives_the_flags_outputs_and_the_flag_wins(
        key, paths, tmp_path, monkeypatch, capsys):
    argv, flags, value, other = FLAG_CASES[key]
    argv, flags = ([a.format(**paths) for a in x] for x in (argv, flags))
    value, other = value.format(**paths), other.format(**paths)
    base = "hist_range = 1\nfremen_range = 0\n" if argv[0] == "evaluate" \
        else ""

    def run(name, extra, line=""):
        return _run_in(tmp_path / name, monkeypatch, capsys, argv + extra,
                       base + line)

    by_flag = run("flag", flags)
    assert by_flag[0] == 0, by_flag[2]
    assert run("config", [], f"{key} = {value}\n") == by_flag
    assert run("both", flags, f"{key} = {other}\n") == by_flag
    # The other value matters, so the flag did win.
    assert run("other", [], f"{key} = {other}\n") != by_flag


@pytest.mark.parametrize("key, value, message", [
    *[(k, "x", None) for k in ("max_h", "longest_period", "seed",
                               "grid_spatial", "grid_temporal", "subsample",
                               "alpha", "fremen_range", "spatial_edges",
                               "temporal_edges")],
    ("candidates", "1.5", None),
    ("hist_range", "1,x", None),
    ("clusters_range", "2;3", None),
    ("clusters", "few", "--clusters expects an integer or 'auto', got 'few'"),
    ("clusters", "0", "--clusters must be >= 1"),
    ("clamp", "1", "--clamp expects lo:hi"),
    ("clamp", "a:b", "--clamp expects numeric lo:hi"),
    ("backend", "foo", None),
    ("mode", "foo", None),
])
def test_bad_config_value_fails_naming_key_and_value(
        key, value, message, workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    model = tmp_path / "m.json"
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--config", str(cfg), "--model", str(model)])
    captured = capsys.readouterr()
    message = message or f"config key {key!r}: bad value {value!r}"
    assert (rc, captured.out, captured.err) == (1, "", f"error: {message}\n")
    assert not model.exists()


def test_input_and_model_come_from_the_config_file(
        workdir, tmp_path, capsys):
    model = tmp_path / "m.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {workdir / 'train.csv'}\nmodel = {model}\n"
                   "clusters = 1\nmax_h = 1\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 0
    assert load_model(model).projection.periods == (DAY,)
    cfg.write_text(f"input = {workdir / 'fold1.csv'}\nmodel = {model}\n",
                   encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["t", "prediction"] and len(rows) > 0


def test_force_is_a_flag_only(workdir, trained_model, tmp_path, capsys):
    cfg = tmp_path / "force.cfg"
    cfg.write_text("force = true\n", encoding="utf-8")
    before = trained_model.read_bytes()
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--clusters", "1", "--max-h", "0", "--config", str(cfg),
               "--model", str(trained_model)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:1: unknown config key 'force'\n")
    assert trained_model.read_bytes() == before


def test_predict_with_grid_keys_only_in_config_writes_densities(
        workdir, trained_event_model, tmp_path, capsys):
    queries = tmp_path / "q.csv"
    queries.write_text("t,x1,x2\n3600.0,2.0,1.0\n7200.0,6.0,3.0\n",
                       encoding="utf-8")
    argv = ["predict", "--model", str(trained_event_model),
            "--input", str(queries)]
    assert main(argv) == 0
    densities = capsys.readouterr().out
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid_spatial = 0.5\ngrid_temporal = 1800\n",
                   encoding="utf-8")
    assert main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == densities
    assert main(argv + ["--grid-spatial", "0.5"]) == 0
    assert capsys.readouterr().out != densities


@pytest.mark.parametrize("flags, message", [
    (["--clusters", "auto"], "event data needs --clusters (an integer)"),
    (["--backend", "km"], "event data needs --clusters (an integer)"),
    (["--backend", "km", "--clusters", "auto"],
     "event data needs --clusters (an integer)"),
    ([], "the em backend needs --clusters (an integer)"),
])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_event_data_needs_an_integer_cluster_count(
        command, flags, message, workdir, eval_config, tmp_path, capsys):
    out = tmp_path / "out"
    argv = {"train": ["--model", str(out)],
            "evaluate": ["--test", str(workdir / "efold1.csv"),
                         "--config", str(eval_config),
                         "--out-dir", str(out)]}[command]
    rc = main([command, "--input", str(workdir / "events.csv"), "--max-h",
               "0", *argv, *flags])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.endswith(f"error: {message}\n")
    assert not out.exists() or list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# predict


def test_predict_matches_library_and_clamps(workdir, trained_model, capsys):
    queries = workdir / "queries.csv"
    tq = np.linspace(0.0, 2 * DAY, 9)
    queries.write_text("t\n" + "\n".join(repr(float(t)) for t in tq) + "\n",
                       encoding="utf-8")
    rc = main(["predict", "--model", str(trained_model),
               "--input", str(queries)])
    header, rows = parse_csv(capsys.readouterr().out)
    assert rc == 0
    assert header == ["t", "prediction"]
    model = load_model(trained_model)
    expected = predict_mean(model, None, tq)
    np.testing.assert_allclose([r[1] for r in rows], expected, rtol=1e-12)

    rc = main(["predict", "--model", str(trained_model),
               "--input", str(queries), "--clamp", "0.45:0.55"])
    _, rows = parse_csv(capsys.readouterr().out)
    assert rc == 0
    assert all(0.45 <= r[1] <= 0.55 for r in rows)


def test_predict_repeats_after_one_period(workdir, trained_model, capsys):
    tq = np.linspace(0.0, DAY, 5)
    q1, q2 = workdir / "q1.csv", workdir / "q2.csv"
    q1.write_text("t\n" + "\n".join(repr(float(t)) for t in tq) + "\n",
                  encoding="utf-8")
    q2.write_text("t\n" + "\n".join(repr(float(t + DAY)) for t in tq) + "\n",
                  encoding="utf-8")
    main(["predict", "--model", str(trained_model), "--input", str(q1)])
    _, rows1 = parse_csv(capsys.readouterr().out)
    main(["predict", "--model", str(trained_model), "--input", str(q2)])
    _, rows2 = parse_csv(capsys.readouterr().out)
    np.testing.assert_allclose([r[1] for r in rows1],
                               [r[1] for r in rows2], atol=1e-9)


def test_predict_dimension_mismatch(workdir, trained_model, capsys):
    queries = workdir / "qdim.csv"
    queries.write_text("t,x1\n0.0,1.0\n", encoding="utf-8")
    rc = main(["predict", "--model", str(trained_model),
               "--input", str(queries)])
    assert rc == 1
    assert "spatial dims" in capsys.readouterr().err


def test_predict_requires_model_flag(workdir, capsys):
    rc = main(["predict", "--input", str(workdir / "train.csv")])
    assert rc == 1
    assert "--model" in capsys.readouterr().err


def test_predict_event_density_and_cell_counts(workdir, trained_event_model,
                                               capsys):
    queries = workdir / "equeries.csv"
    queries.write_text(
        "t,x1,x2\n3600.0,2.0,1.0\n7200.0,6.0,3.0\n43200.0,2.0,1.0\n",
        encoding="utf-8")
    rc = main(["predict", "--model", str(trained_event_model),
               "--input", str(queries)])
    header, dens = parse_csv(capsys.readouterr().out)
    assert rc == 0
    assert header == ["t", "x1", "x2", "prediction"]
    assert all(r[3] >= 0 for r in dens)

    rc = main(["predict", "--model", str(trained_event_model),
               "--input", str(queries),
               "--grid-spatial", "0.5", "--grid-temporal", "1800"])
    _, cells = parse_csv(capsys.readouterr().out)
    assert rc == 0
    assert all(r[3] >= 0 for r in cells)
    # Counts integrate density over a cell, so the scales differ.
    assert not np.allclose([r[3] for r in dens], [r[3] for r in cells])


def test_predict_output_matches_per_row_rendering(workdir, trained_model,
                                                   trained_event_model,
                                                   capsys):
    # The column-wise writer prints exactly what one `_fmt` per field and
    # one line per row printed.
    tq = np.linspace(0.0, 2 * DAY, 41) + 0.1
    queries = workdir / "render.csv"
    queries.write_text("t\n" + "\n".join(map(repr, tq.tolist())) + "\n",
                       encoding="utf-8")
    rc = main(["predict", "--model", str(trained_model),
               "--input", str(queries)])
    assert rc == 0
    preds = predict_mean(load_model(trained_model), None, tq)
    expect = "t,prediction\n" + "".join(
        f"{_fmt(t)},{_fmt(p)}\n" for t, p in zip(tq, preds))
    assert capsys.readouterr().out == expect

    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 8.0, (23, 2))
    ts = np.sort(rng.uniform(0.0, 3 * DAY, 23))
    equeries = workdir / "erender.csv"
    equeries.write_text("t,x1,x2\n" + "".join(
        f"{t!r},{a!r},{b!r}\n" for t, (a, b) in zip(ts.tolist(), xs.tolist())),
        encoding="utf-8")
    rc = main(["predict", "--model", str(trained_event_model),
               "--input", str(equeries)])
    assert rc == 0
    dens = density(load_model(trained_event_model), x=xs, t=ts)
    expect = "t,x1,x2,prediction\n" + "".join(
        f"{_fmt(t)},{_fmt(x[0])},{_fmt(x[1])},{_fmt(p)}\n"
        for t, x, p in zip(ts, xs, dens))
    assert capsys.readouterr().out == expect


def test_predict_gridded_rows_equal_one_batch_call(workdir,
                                                   trained_event_model,
                                                   capsys):
    rng = np.random.default_rng(6)
    xs = rng.uniform(0.0, 8.0, (50, 2))
    ts = np.sort(rng.uniform(0.0, 3 * DAY, 50))
    queries = workdir / "gridded.csv"
    queries.write_text("t,x1,x2\n" + "".join(
        f"{t!r},{a!r},{b!r}\n" for t, (a, b) in zip(ts.tolist(), xs.tolist())),
        encoding="utf-8")
    rc = main(["predict", "--model", str(trained_event_model),
               "--input", str(queries),
               "--grid-spatial", "0.5", "--grid-temporal", "1800"])
    _, rows = parse_csv(capsys.readouterr().out)
    assert rc == 0
    model = load_model(trained_event_model)
    bounds = np.stack([xs - 0.25, xs + 0.25], axis=2)
    tb = np.column_stack([ts - 900.0, ts + 900.0])
    batch = predict_cell_count(model, bounds, tb)
    # Bit for bit the batch: with one point per cell, a call per row
    # solves one column at a time and rounds some rows differently.
    np.testing.assert_array_equal([r[3] for r in rows], batch)
    loop = [predict_cell_count(model, bounds[i], tb[i]) for i in range(50)]
    np.testing.assert_allclose(batch, loop, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n", sorted({
    1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1,
    # Just under and just over the helper threshold with the 4 output
    # columns of the event queries and the 2 of the valued ones.
    _HELPER_FIELDS // 4, _HELPER_FIELDS // 4 + 1,
    _HELPER_FIELDS // 2, _HELPER_FIELDS // 2 + 1}))
def test_predict_blocks_write_the_one_string_output(
        n, workdir, trained_model, trained_event_model, tmp_path, monkeypatch,
        capsys):
    # Rows are formatted `ROW_BLOCK` at a time, the second half by the
    # writer helper past the threshold with two CPUs; the bytes are those
    # of one string holding every row, for valued, density and cell
    # queries, with one CPU and with two.
    rng = np.random.default_rng(n)
    ts = rng.uniform(0.0, 3 * DAY, n)
    # -0.0 and both sides of repr's switches to exponent notation, in the
    # first rows and the last (the CSV is read sorted by time).
    ts[:6] = [-0.0, 1e-4, 9.999999999999999e-05, 1.5e-310, 1e16,
              9999999999999998.0][:n]
    ts.sort()
    xs = rng.uniform(0.0, 8.0, (n, 2))
    vq, eq = tmp_path / "v.csv", tmp_path / "e.csv"
    vq.write_text("t\n" + "".join(f"{t!r}\n" for t in ts.tolist()),
                  encoding="utf-8")
    eq.write_text("t,x1,x2\n" + "".join(
        f"{t!r},{a!r},{b!r}\n" for t, (a, b) in zip(ts.tolist(), xs.tolist())),
        encoding="utf-8")
    event = load_model(trained_event_model)
    cells = predict_cell_count(event, np.stack([xs - 0.25, xs + 0.25], axis=2),
                               np.column_stack([ts - 900.0, ts + 900.0]))
    runs = [
        (["--model", str(trained_model), "--input", str(vq)],
         np.column_stack([ts, predict_mean(load_model(trained_model), None,
                                           ts)])),
        (["--model", str(trained_event_model), "--input", str(eq)],
         np.column_stack([ts, xs, density(event, x=xs, t=ts)])),
        (["--model", str(trained_event_model), "--input", str(eq),
          "--grid-spatial", "0.5", "--grid-temporal", "1800"],
         np.column_stack([ts, xs, cells])),
    ]
    started, real_popen = [], cli.Popen

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    for flags, table in runs:
        header = ["t", "x1", "x2"][:table.shape[1] - 1] + ["prediction"]
        lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in table]
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            helped = cpus == 2 and table.size > _HELPER_FIELDS
            # Without a helper due, starting one would fail.
            monkeypatch.setattr(cli, "Popen", popen if helped else None)
            assert main(["predict", *flags]) == 0
            assert capsys.readouterr() == ("\n".join(lines) + "\n", "")
    assert [p.returncode for p in started] == [0] * sum(
        table.size > _HELPER_FIELDS for _, table in runs)


@pytest.mark.parametrize("script", [
    "import sys; sys.stdin.buffer.read(); sys.exit('out of memory')",
    "import sys; sys.exit('out of memory')"])  # before its request
def test_predict_reports_a_failing_helper(trained_model, tmp_path,
                                          monkeypatch, capsys, script):
    queries = tmp_path / "v.csv"
    queries.write_text("t\n" + "".join(
        f"{t!r}\n" for t in range(_HELPER_FIELDS // 2 + 1)), encoding="utf-8")
    real_popen = cli.Popen
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "Popen", lambda argv, **kwargs: real_popen(
        [argv[0], "-c", script], **kwargs))
    rc = main(["predict", "--model", str(trained_model),
               "--input", str(queries)])
    assert (rc, capsys.readouterr().err) == (1, "error: out of memory\n")


_HEAD_PROBE = """
import os, sys
from hypertime.cli import main
os.sched_getaffinity = lambda pid: {0, 1}  # a helper, also on one CPU
rc = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(rc)
sys.exit(3)  # a child left behind
"""


def test_predict_into_a_pipe_closed_early_exits_quietly(trained_model,
                                                        tmp_path):
    queries = tmp_path / "v.csv"
    queries.write_text("t\n" + "".join(
        f"{t!r}\n" for t in range(_HELPER_FIELDS)), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(hypertime.__file__))
    with subprocess.Popen(
            [sys.executable, "-c", _HEAD_PROBE, "predict", "--model",
             str(trained_model), "--input", str(queries)],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()  # as `head -1` does
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), first, err) == (
            1, b"t,prediction\n", b"")


def test_predict_over_long_field_fails_cleanly(workdir, trained_model,
                                              tmp_path, capsys):
    queries = tmp_path / "long.csv"
    queries.write_text("t\n1.0\n2" + "0" * 140_000 + "\n")
    rc = main(["predict", "--model", str(trained_model),
               "--input", str(queries)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "line 3: field longer than" in captured.err
    assert "Traceback" not in captured.err


def test_predict_rejects_bad_model_file(workdir, trained_model, tmp_path,
                                        capsys):
    payload = json.loads(trained_model.read_text(encoding="utf-8"))
    payload["components"][0]["weight"] = 5.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["predict", "--model", str(bad),
               "--input", str(workdir / "train.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (f"error: {bad}: component weights sum to 5.0, "
                            "not 1\n")


def test_predict_rejects_clamp_for_event_model(workdir, trained_event_model,
                                               tmp_path, capsys):
    queries = workdir / "equeries_clamp.csv"
    queries.write_text("t,x1,x2\n3600.0,2.0,1.0\n", encoding="utf-8")
    config = tmp_path / "clamp.cfg"
    config.write_text("clamp = 0:0.0001\n", encoding="utf-8")
    for extra in (["--clamp", "0:0.0001"], ["--config", str(config)]):
        rc = main(["predict", "--model", str(trained_event_model),
                   "--input", str(queries), *extra])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--clamp" in captured.err
        assert captured.out == ""


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_emits_sorted_csv(workdir, capsys):
    rc = main(["spectrum", "--input", str(workdir / "train.csv")])
    out = capsys.readouterr().out
    header, rows = parse_csv(out)
    assert rc == 0
    assert header == ["period", "amplitude"]
    amps = [r[1] for r in rows]
    assert amps == sorted(amps, reverse=True)
    assert rows[0][0] == DAY


def test_spectrum_rejects_event_csv(workdir, capsys):
    rc = main(["spectrum", "--input", str(workdir / "events.csv")])
    assert rc == 1
    assert "valued" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate


@pytest.fixture(scope="module")
def eval_config(workdir):
    cfg = workdir / "eval.cfg"
    cfg.write_text("hist_range = 1,2\nfremen_range = 0,1\n",
                   encoding="utf-8")
    return cfg


def run_evaluate(workdir, eval_config, out_dir, extra=()):
    return main(["evaluate", "--input", str(workdir / "train.csv"),
                 "--test", str(workdir / "fold1.csv"),
                 "--test", str(workdir / "fold2.csv"),
                 "--config", str(eval_config),
                 "--clusters", "1", "--max-h", "1",
                 "--out-dir", str(out_dir), *extra])


def test_evaluate_writes_errors_and_ttests(workdir, eval_config, tmp_path,
                                           capsys):
    out = tmp_path / "report"
    rc = run_evaluate(workdir, eval_config, out)
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "evaluation written" in stdout

    lines = (out / "errors.csv").read_text().strip().splitlines()
    assert lines[0] == "method,fold,error"
    methods = {ln.split(",")[0] for ln in lines[1:]}
    assert len(lines) == 1 + 2 * len(methods)
    assert "Mean" in methods
    assert "HyT-KM" in methods
    assert any(m.startswith("HyT-EM_") for m in methods)
    assert any(m.startswith("Hist_") for m in methods)
    assert any(m.startswith("FreMEn_") for m in methods)

    payload = json.loads((out / "ttests.json").read_text())
    assert payload["alpha"] == 0.05
    assert set(payload["methods"]) == methods
    assert set(payload["fold_errors"]) == methods
    assert "matrix" in payload and "dominance_edges" in payload
    assert payload["parameters"]["em_clusters"] == 1


def test_evaluate_byte_identical_reruns(workdir, eval_config, tmp_path):
    out = tmp_path / "report"
    assert run_evaluate(workdir, eval_config, out) == 0
    first = ((out / "errors.csv").read_bytes(),
             (out / "ttests.json").read_bytes())
    assert run_evaluate(workdir, eval_config, out, ("--force",)) == 0
    second = ((out / "errors.csv").read_bytes(),
              (out / "ttests.json").read_bytes())
    assert first == second


def test_evaluate_refuses_overwrite(workdir, eval_config, tmp_path, capsys):
    out = tmp_path / "report"
    assert run_evaluate(workdir, eval_config, out) == 0
    rc = run_evaluate(workdir, eval_config, out)
    assert rc == 1
    assert "exists" in capsys.readouterr().err


def test_evaluate_refuses_an_existing_heatmap_before_any_work(
        workdir, eval_config, tmp_path, capsys):
    out = tmp_path / "report"
    out.mkdir()
    (out / "heatmap_fold1_s1_t21600.dat").write_text("kept\n")
    rc = main(["evaluate", "--input", str(workdir / "events.csv"),
               "--test", str(workdir / "efold1.csv"),
               "--test", str(workdir / "efold2.csv"),
               "--config", str(eval_config),
               "--clusters", "2", "--max-h", "0",
               "--grid-spatial", "1.0", "--grid-temporal", "21600",
               "--out-dir", str(out)])
    assert rc == 1
    assert "heatmap_fold1_s1_t21600.dat exists" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["heatmap_fold1_s1_t21600.dat"]
    assert (out / "heatmap_fold1_s1_t21600.dat").read_text() == "kept\n"
    # Edge lists that name one file twice are refused up front too.
    config = tmp_path / "twice.cfg"
    config.write_text(eval_config.read_text() + "spatial_edges = 1.0,1\n"
                      "temporal_edges = 21600\n", encoding="utf-8")
    fresh = tmp_path / "fresh"
    rc = main(["evaluate", "--input", str(workdir / "events.csv"),
               "--test", str(workdir / "efold1.csv"),
               "--test", str(workdir / "efold2.csv"),
               "--config", str(config), "--clusters", "2", "--max-h", "0",
               "--out-dir", str(fresh)])
    assert rc == 1
    assert "twice" in capsys.readouterr().err
    assert list(fresh.iterdir()) == []


def test_evaluate_reads_test_folds_from_config(workdir, eval_config, tmp_path,
                                               capsys):
    config = tmp_path / "folds.cfg"
    config.write_text(eval_config.read_text() + f"test = {workdir / 'fold1.csv'}"
                      f", {workdir / 'fold2.csv'} ,\n", encoding="utf-8")
    out = tmp_path / "report"
    rc = main(["evaluate", "--input", str(workdir / "train.csv"),
               "--config", str(config), "--clusters", "1", "--max-h", "1",
               "--out-dir", str(out)])
    assert rc == 0, capsys.readouterr().err
    lines = (out / "errors.csv").read_text().splitlines()
    assert {ln.split(",")[1] for ln in lines[1:]} == {"0", "1"}
    assert (out / "ttests.json").exists()


def test_evaluate_single_fold_skips_ttests(workdir, eval_config, tmp_path,
                                           capsys):
    out = tmp_path / "single"
    rc = main(["evaluate", "--input", str(workdir / "train.csv"),
               "--test", str(workdir / "fold1.csv"),
               "--config", str(eval_config),
               "--clusters", "1", "--max-h", "1", "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "t-tests" in captured.err
    assert (out / "errors.csv").exists()
    assert not (out / "ttests.json").exists()


def test_evaluate_requires_folds_and_out_dir(workdir, capsys):
    rc = main(["evaluate", "--input", str(workdir / "train.csv"),
               "--out-dir", "nowhere"])
    assert rc == 1
    assert "--test" in capsys.readouterr().err
    rc = main(["evaluate", "--input", str(workdir / "train.csv"),
               "--test", str(workdir / "fold1.csv"),
               "--test", str(workdir / "fold2.csv")])
    assert rc == 1
    assert "--out-dir" in capsys.readouterr().err


def test_evaluate_fold_mode_mismatch(workdir, capsys):
    rc = main(["evaluate", "--input", str(workdir / "train.csv"),
               "--test", str(workdir / "efold1.csv"),
               "--test", str(workdir / "fold2.csv"),
               "--clusters", "1", "--out-dir", "nowhere"])
    assert rc == 1
    assert "mode" in capsys.readouterr().err


def test_evaluate_event_mode_writes_heatmaps(workdir, eval_config, tmp_path,
                                             capsys):
    out = tmp_path / "ereport"
    rc = main(["evaluate", "--input", str(workdir / "events.csv"),
               "--test", str(workdir / "efold1.csv"),
               "--test", str(workdir / "efold2.csv"),
               "--config", str(eval_config),
               "--clusters", "2", "--max-h", "0",
               "--grid-spatial", "1.0", "--grid-temporal", "21600",
               "--out-dir", str(out)])
    assert rc == 0
    capsys.readouterr()

    lines = (out / "errors.csv").read_text().strip().splitlines()
    methods = {ln.split(",")[0] for ln in lines[1:]}
    assert "HyT-EM" in methods
    assert "Mean" in methods
    assert len(lines) == 1 + 2 * len(methods)

    heatmaps = sorted(out.glob("heatmap_fold*_s1_t21600.dat"))
    assert len(heatmaps) == 2
    body = heatmaps[0].read_text().strip().splitlines()
    assert body[0].startswith("# x1 x2 t observed predicted")
    assert all(len(ln.split()) == 5 for ln in body[1:])
    # The body is the grid rendered element by element, cells in C order.
    cols = np.array([[float(v) for v in ln.split()] for ln in body[1:]])
    axes = [np.unique(cols[:, d]) for d in range(3)]
    shape = tuple(len(a) for a in axes)
    obs, pred = cols[:, 3].reshape(shape), cols[:, 4].reshape(shape)
    assert body[1:] == [
        " ".join(repr(float(v)) for v in (axes[0][i], axes[1][j], axes[2][k],
                                          obs[i, j, k], pred[i, j, k]))
        for i, j, k in np.ndindex(shape)]


def test_evaluate_writes_one_heatmap_per_fold_and_edge_pair(
        workdir, tmp_path, capsys):
    config = tmp_path / "edges.cfg"
    config.write_text("hist_range = 1\nfremen_range = 0\n"
                      "spatial_edges = 1.0,2.0\ntemporal_edges = 21600\n",
                      encoding="utf-8")
    out = tmp_path / "edges"
    rc = main(["evaluate", "--input", str(workdir / "events.csv"),
               "--test", str(workdir / "efold1.csv"),
               "--test", str(workdir / "efold2.csv"),
               "--config", str(config), "--clusters", "2", "--max-h", "0",
               "--grid-spatial", "1.0", "--grid-temporal", "21600",
               "--out-dir", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.glob("heatmap_*.dat")) == [
        f"heatmap_fold{f}_s{se}_t21600.dat" for f in (0, 1) for se in (1, 2)]
    # The pair equal to the grid flags is the grid the default run writes.
    config.write_text("hist_range = 1\nfremen_range = 0\n", encoding="utf-8")
    plain = tmp_path / "plain"
    rc = main(["evaluate", "--input", str(workdir / "events.csv"),
               "--test", str(workdir / "efold1.csv"),
               "--test", str(workdir / "efold2.csv"),
               "--config", str(config), "--clusters", "2", "--max-h", "0",
               "--grid-spatial", "1.0", "--grid-temporal", "21600",
               "--out-dir", str(plain)])
    assert rc == 0
    capsys.readouterr()
    for f in (0, 1):
        name = f"heatmap_fold{f}_s1_t21600.dat"
        assert (out / name).read_bytes() == (plain / name).read_bytes()


def _cpus(monkeypatch, n):
    """Let the CLI see `n` CPUs: 2 turns its writer helper and its forked
    children on, 1 off."""
    monkeypatch.setattr(cli, "_two_cpus", lambda: n >= 2)


def _count_forks(monkeypatch):
    """The pids of the children that `os.fork` makes from now on."""
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("n_spatial", [(3, 2), (4,), ()])
def test_heatmap_writer_matches_per_element_repr(tmp_path, monkeypatch,
                                                 n_spatial):
    d = len(n_spatial)
    spec = GridSpec(np.full(d, -0.3), np.full(d, 1.1), n_spatial,
                    1000.0, 1000.0 + 7 * 1800.0, 7)
    rng = np.random.default_rng(0)
    maps = []
    for fold in range(3):
        obs = rng.poisson(2.0, spec.shape)  # integer counts print as floats
        pred = rng.normal(0, 1e-3, spec.shape)
        # -0.0 and both sides of repr's switches to exponent notation.
        edges = [-0.0, 1e-4, 9.999999999999999e-05, 1e16,
                 9999999999999998.0, -1e16, 1.5e-310]
        pred.flat[fold:fold + len(edges)] = edges[:pred.size - fold]
        maps.append((fold, 0.5, 1800.0, spec, obs, pred))
    centers = [spec.spatial_centers(k) for k in range(d)]
    forks = _count_forks(monkeypatch)
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        _dump_heatmaps(maps, str(out), False)
        for fold, _, _, _, obs, pred in maps:
            text = (out / f"heatmap_fold{fold}_s0.5_t1800.dat").read_text()
            expect = ["# " + " ".join([f"x{k + 1}" for k in range(d)]
                                      + ["t", "observed", "predicted"])]
            for idx in np.ndindex(spec.shape):
                row = [centers[k][idx[k]] for k in range(d)]
                row += [spec.temporal_centers[idx[-1]], obs[idx], pred[idx]]
                expect.append(" ".join(repr(float(v)) for v in row))
            assert text == "\n".join(expect) + "\n"
    assert len(forks) == 1  # the two-CPU dump's child
    assert sorted(os.listdir(tmp_path / "cpus1")) == sorted(
        os.listdir(tmp_path / "cpus2"))


def _event_evaluate(workdir, eval_config, out, *extra, folds=2):
    return main(["evaluate", "--input", str(workdir / "events.csv"),
                 *[f"--test={workdir / f'efold{f + 1}.csv'}"
                   for f in range(folds)],
                 "--config", str(eval_config),
                 "--clusters", "2", "--max-h", "0",
                 "--grid-spatial", "1.0", "--grid-temporal", "21600",
                 "--out-dir", str(out), *extra])


@pytest.mark.parametrize("config, folds", [
    ("", 2),
    # Three heatmaps per fold: the two parts differ in cells and files.
    ("spatial_edges = 1,2,4\ntemporal_edges = 21600\n", 2),
    ("fremen_range = 1,2,500\n", 2),  # m = 500 fails in the child's sweep
    ("", 1),  # one heatmap: no child writes
], ids=["defaults", "three-maps-a-fold", "failing-m", "one-fold"])
def test_event_evaluate_bytes_do_not_depend_on_the_cpus(
        workdir, eval_config, tmp_path, monkeypatch, capsys, config, folds):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(eval_config.read_text() + config, encoding="utf-8")
    forks = _count_forks(monkeypatch)
    runs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out = tmp_path / "out"
        before = len(forks)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert _event_evaluate(workdir, cfg, out, folds=folds) == 0
        runs.append((capsys.readouterr(),
                     [(str(w.message), w.category, w.filename, w.lineno)
                      for w in seen],
                     {p.name: p.read_bytes() for p in out.iterdir()},
                     len(forks) - before))
        out.rename(tmp_path / f"cpus{cpus}")
    std, seen, files, n_forks = runs[0]
    maps = folds * (3 if "edges" in config else 1)
    # One CPU forks nothing; two fork for the swept baselines, and for
    # the second part of two or more heatmaps.
    assert n_forks == 0 and runs[1][3] == 1 + (maps >= 2)
    assert runs[1][:3] == (std, seen, files)
    assert std.out.startswith("evaluation written to")
    assert len(files) == 1 + (folds >= 2) + maps  # errors, t-tests, maps
    methods = [ln.split(",")[0] for ln in
               files["errors.csv"].decode().splitlines()[1::folds]]
    assert [m.split("_")[0] for m in methods] == [
        "HyT-EM", "Mean", "Hist", "FreMEn"]
    assert [m for m, *_ in seen] == (
        ["sweep: parameter 500 failed: m exceeds the number of candidate "
         "periods"] if "500" in config else [])


def test_valued_evaluate_forks_once(workdir, eval_config, tmp_path,
                                    monkeypatch):
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    assert run_evaluate(workdir, eval_config, tmp_path / "valued") == 0
    assert len(forks) == 1  # its builds; it writes no heatmap


def test_evaluate_reports_a_failing_heatmap_child(
        workdir, eval_config, tmp_path, monkeypatch, capsys):
    # The second heatmap, the child's, cannot replace a directory.
    errors = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        (out / "heatmap_fold1_s1_t21600.dat").mkdir(parents=True)
        assert _event_evaluate(workdir, eval_config, out, "--force") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        errors.append(err.replace(str(out), "OUT"))
        assert sorted(p.name for p in out.iterdir()) == [
            "errors.csv", "heatmap_fold0_s1_t21600.dat",
            "heatmap_fold1_s1_t21600.dat", "ttests.json"]
    assert errors[0] == errors[1]


def test_evaluate_collects_the_heatmap_child_when_its_own_part_fails(
        workdir, eval_config, tmp_path, monkeypatch, capsys):
    # The first heatmap, this process's, cannot replace a directory; the
    # child still writes the second, and nothing temporary is left.
    errors = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        (out / "heatmap_fold0_s1_t21600.dat").mkdir(parents=True)
        assert _event_evaluate(workdir, eval_config, out, "--force") == 1
        err = capsys.readouterr().err
        assert "Is a directory" in err and "heatmap_fold0" in err
        errors.append(err.replace(str(out), "OUT"))
        assert sorted(p.name for p in out.iterdir()) == [
            "errors.csv", "heatmap_fold0_s1_t21600.dat",
            "heatmap_fold1_s1_t21600.dat", "ttests.json"]
        assert (out / "heatmap_fold1_s1_t21600.dat").is_file()
    assert errors[0] == errors[1]


@pytest.mark.parametrize("stage", ["build", "dump"])
@pytest.mark.parametrize("raised", [
    cli.CliError("stopped"), ValueError("stopped"), KeyboardInterrupt()])
def test_event_evaluate_kills_the_child_when_stopped(
        workdir, eval_config, tmp_path, monkeypatch, capsys, raised, stage):
    me, waited, real_waitpid = os.getpid(), [], os.waitpid
    interrupted = isinstance(raised, KeyboardInterrupt)
    out = tmp_path / "out"
    child_tmp = out / "heatmap_fold1_s1_t21600.dat.tmp"

    def waitpid(pid, options):
        waited.append(real_waitpid(pid, options)[1])
        return pid, waited[-1]

    def stop(*args):
        raise raised

    def stalled_sweep(*args, **kwargs):
        time.sleep(60)

    def heatmap_blocks(*grid, real=cli.writer.heatmap_blocks):
        blocks = real(*grid)
        if os.getpid() == me:
            # An interrupt finds the child's temporary file half written.
            deadline = time.monotonic() + 60
            while interrupted and not child_tmp.exists():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            stop()
        yield next(blocks)
        if interrupted:
            time.sleep(60)
        yield from blocks

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "waitpid", waitpid)
    if stage == "build":
        monkeypatch.setattr(cli, "build_event", stop)
        monkeypatch.setattr(cli, "sweep", stalled_sweep)
    else:
        monkeypatch.setattr(cli.writer, "heatmap_blocks", heatmap_blocks)
    if interrupted:
        with pytest.raises(KeyboardInterrupt):
            _event_evaluate(workdir, eval_config, out)
    else:
        assert _event_evaluate(workdir, eval_config, out) == 1
        assert capsys.readouterr().err == "error: stopped\n"
    assert len(waited) == (1 if stage == "build" else 2)
    if stage == "build" or interrupted:  # killed, not left to finish
        assert os.WIFSIGNALED(waited[-1])
        assert os.WTERMSIG(waited[-1]) == signal.SIGKILL
    written = sorted(p.name for p in out.iterdir())
    assert written == ([] if stage == "build" else [
        "errors.csv", *(["heatmap_fold1_s1_t21600.dat"] * (not interrupted)),
        "ttests.json"])


def test_event_evaluate_reports_a_killed_baseline_child(
        workdir, eval_config, tmp_path, monkeypatch, capsys):
    me, real_sweep = os.getpid(), cli.sweep

    def sweep(*args, **kwargs):
        if os.getpid() != me:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_sweep(*args, **kwargs)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "sweep", sweep)
    assert _event_evaluate(workdir, eval_config, tmp_path / "out") == 1
    assert capsys.readouterr() == (
        "", "error: the child process ended before its results\n")
    assert not list((tmp_path / "out").iterdir())


def test_heatmap_helper_without_a_request_exits_quietly():
    done = subprocess.run([sys.executable, "-I", "-S", cli.writer.__file__],
                          input=b"", capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")


@pytest.mark.parametrize("header", [b"12\n", b"2 x\n", b"1 2 3\n",
                                    b'{"rows": 1, "columns": 2}\n'])
def test_writer_helper_rejects_a_bad_request_header(header):
    done = subprocess.run([sys.executable, "-I", "-S", cli.writer.__file__],
                          input=header + bytes(16), capture_output=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == b"bad request header %a\n" % header


def test_evaluate_rejects_clamp_for_event_data(workdir, eval_config, tmp_path,
                                               capsys):
    config = tmp_path / "clamp.cfg"
    config.write_text(eval_config.read_text() + "clamp = 0:0.0001\n",
                      encoding="utf-8")
    for extra in (["--config", str(eval_config), "--clamp", "0:0.0001"],
                  ["--config", str(config)]):
        out = tmp_path / f"clamped{len(extra)}"
        rc = main(["evaluate", "--input", str(workdir / "events.csv"),
                   "--test", str(workdir / "efold1.csv"),
                   "--test", str(workdir / "efold2.csv"),
                   "--clusters", "2", "--max-h", "0",
                   "--grid-spatial", "1.0", "--grid-temporal", "21600",
                   "--out-dir", str(out), *extra])
        assert rc == 1
        assert "--clamp" in capsys.readouterr().err
        assert not (out / "errors.csv").exists()


# ---------------------------------------------------------------------------
# valued evaluate's builds in a forked child

_CPUS_PROBE = """
import sys
import hypertime.cli as cli
cli._two_cpus = lambda: sys.argv[1] == "2"
sys.exit(cli.main(sys.argv[2:]))
"""

# The child's task ends while this process sleeps in its own.
_UNFLUSHED_PROBE = """
import sys, time
import hypertime.cli as cli
cli._two_cpus = lambda: True
sys.stdout.write("unflushed out;")
sys.stderr.write("unflushed err;")
with cli._forked([lambda: time.sleep(0.5), lambda: 1]) as outcomes:
    print([outcome() for outcome in outcomes])
"""


def _probe(script, flags, *argv):
    """`script` run with the interpreter `flags` and `argv`, its standard
    streams buffered as they are into pipes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hypertime.__file__))
    done = subprocess.run([sys.executable, *flags, "-c", script, *argv],
                          env=env, capture_output=True, timeout=300)
    return done.returncode, done.stdout, done.stderr


def test_forked_child_leaves_the_streams_alone():
    assert _probe(_UNFLUSHED_PROBE, ["-W", "error"]) == (
        0, b"unflushed out;[None, 1]\n", b"unflushed err;")


def test_forked_tasks_give_what_the_tasks_give(monkeypatch):
    def warns():
        warnings.warn("twice")
        warnings.warn("twice")
        return os.getpid()

    def fails():
        raise ValueError("no fit")

    tasks = [os.getpid, fails, warns, fails, warns]
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        got = []
        with cli._forked(tasks) as outcomes:
            for outcome in outcomes:
                with warnings.catch_warnings(record=True) as seen:
                    warnings.simplefilter("always")
                    try:
                        got.append(outcome())
                    except ValueError as exc:
                        got.append(str(exc))
                got.append([str(w.message) for w in seen])
        me, last = os.getpid(), got.pop(-2)
        assert got == [me, [], "no fit", [], me, ["twice"] * 2, "no fit", [],
                       ["twice"] * 2]
        # With two CPUs, the last two tasks ran in the child.
        assert (last == me) == (cpus == 1)


@pytest.mark.parametrize("flags, config, filters", [
    ([], "", "always"),
    (["--clusters", "3"], "", "always"),
    # k = 1000 fails in this process and k = 600 in the child; every
    # build warns at each of its two calibrations.
    ([], "clusters_range = 2,1000,3,600\n", "always"),
    ([], "clusters_range = 2,1000,3,600\n", "default"),  # each warns once
])
def test_valued_evaluate_bytes_do_not_depend_on_the_cpus(
        workdir, eval_config, tmp_path, flags, config, filters):
    train = workdir / "train.csv"
    if config:
        zero = daily_series(3, 1200.0, 0.1, 7)
        train = tmp_path / "zero.csv"
        write_valued(train, Dataset(zero.times, zero.coords, 0 * zero.values))
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(eval_config.read_text() + config, encoding="utf-8")
    argv = ["evaluate", "--input", str(train),
            "--test", str(workdir / "fold1.csv"),
            "--test", str(workdir / "fold2.csv"), "--config", str(cfg),
            "--max-h", "1", "--out-dir", str(tmp_path / "out"), "--force",
            *flags]
    runs = []
    for cpus in (1, 2):
        rc, out, err = _probe(_CPUS_PROBE, ["-W", filters], str(cpus),
                              *argv)
        runs.append((rc, out, err, *[(tmp_path / "out" / name).read_bytes()
                                     for name in ("errors.csv",
                                                  "ttests.json")]))
    assert runs[0] == runs[1]
    rc, err = runs[0][0], runs[0][2]
    assert rc == 0
    if config:
        lines = err.decode().splitlines()
        failed = [ln for ln in lines if "failed: fewer points" in ln]
        assert [ln.split("parameter ")[1][:4] for ln in failed] == [
            "1000", "600 "]
        zero = sum("Warning: all training values are zero" in ln
                   for ln in lines)
        assert zero == 1 if filters == "default" else zero > 4


def _evaluate_fixed(workdir, eval_config, out):
    return main(["evaluate", "--input", str(workdir / "train.csv"),
                 "--test", str(workdir / "fold1.csv"),
                 "--test", str(workdir / "fold2.csv"),
                 "--config", str(eval_config), "--clusters", "1",
                 "--max-h", "0", "--out-dir", str(out)])


def _in_child(monkeypatch, child, parent=None):
    """Make `cli.build` call `child` in a forked child and `parent`, if
    given, in this process, before building."""
    me, real_build = os.getpid(), cli.build

    def build(*args):
        if os.getpid() != me:
            child()
        elif parent is not None:
            parent()
        return real_build(*args)

    monkeypatch.setattr(cli, "build", build)


def _truncated_dump(result, stream):
    stream.write(pickle.dumps(result)[:5])
    stream.flush()
    os._exit(0)


@pytest.mark.parametrize("ending", ["signal", "exit", "truncated"])
def test_valued_evaluate_reports_a_failed_child(
        workdir, eval_config, tmp_path, monkeypatch, capsys, ending):
    _cpus(monkeypatch, 2)
    if ending == "truncated":
        monkeypatch.setattr(cli.pickle, "dump", _truncated_dump)
    else:
        _in_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL)
                  if ending == "signal" else os._exit(3))
    assert _evaluate_fixed(workdir, eval_config, tmp_path / "out") == 1
    assert capsys.readouterr() == (
        "", "error: the child process ended before its results\n")
    assert not (tmp_path / "out" / "errors.csv").exists()


@pytest.mark.parametrize("raised", [
    cli.CliError("stopped"), ValueError("stopped"), KeyboardInterrupt()])
def test_valued_evaluate_kills_the_child_when_stopped(
        workdir, eval_config, tmp_path, monkeypatch, capsys, raised):
    waited, real_waitpid = [], os.waitpid

    def waitpid(pid, options):
        waited.append(real_waitpid(pid, options)[1])
        return pid, waited[-1]

    def stop():
        raise raised

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "waitpid", waitpid)
    _in_child(monkeypatch, lambda: time.sleep(60), stop)
    if isinstance(raised, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            _evaluate_fixed(workdir, eval_config, tmp_path / "out")
    else:
        assert _evaluate_fixed(workdir, eval_config, tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: stopped\n"
    # Reaped, and killed, not left to finish its 60 s.
    assert len(waited) == 1 and os.WIFSIGNALED(waited[0])
    assert os.WTERMSIG(waited[0]) == signal.SIGKILL


# ---------------------------------------------------------------------------
# start-up cost

_SCIPY_PROBE = """
import contextlib, io, json, sys
from hypertime.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    loaded[name] = scipy_modules() if rc == 0 else f"exit {rc}"
print(json.dumps(loaded))
"""


def test_only_evaluate_t_tests_load_scipy(workdir, eval_config, tmp_path):
    model = tmp_path / "model.json"
    data = str(workdir / "train.csv")
    runs = [
        ("train", ["train", "--input", data, "--clusters", "1",
                   "--max-h", "1", "--model", str(model)]),
        ("predict", ["predict", "--model", str(model), "--input", data]),
        ("spectrum", ["spectrum", "--input", data]),
        ("evaluate", ["evaluate", "--input", data,
                      "--test", str(workdir / "fold1.csv"),
                      "--test", str(workdir / "fold2.csv"),
                      "--config", str(eval_config), "--clusters", "1",
                      "--max-h", "1", "--out-dir", str(tmp_path / "out")]),
    ]
    src = os.path.dirname(os.path.dirname(hypertime.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)], env=env,
        capture_output=True, text=True, timeout=300, check=True)
    loaded = json.loads(done.stdout)
    for name in ("import", "train", "predict", "spectrum"):
        assert loaded[name] == [], name
    assert "scipy.special" in loaded["evaluate"]
    assert not [m for m in loaded["evaluate"] if m.startswith("scipy.stats")]
