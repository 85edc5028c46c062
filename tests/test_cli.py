"""Command line surface: train, predict, evaluate, spectrum.

Commands are exercised through ``main(argv)`` so exit codes, stdout
CSVs, and written files are all checked exactly as a shell user would
see them.  Builds here use tiny data and one or two clusters to keep
the suite fast; statistical quality is covered elsewhere.
"""

import json
import os

import numpy as np
import pytest

from hypertime import (GridSpec, density, load_model, predict_cell_count,
                       predict_mean)
from hypertime.cli import _dump_heatmaps, _fmt, main
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


def test_train_mode_mismatch(workdir, capsys):
    rc = main(["train", "--input", str(workdir / "train.csv"),
               "--mode", "event", "--clusters", "1",
               "--model", str(workdir / "never.json")])
    assert rc == 1
    assert "valued" in capsys.readouterr().err


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


@pytest.mark.parametrize("n_spatial", [(3, 2), ()])
def test_heatmap_writer_matches_per_element_repr(tmp_path, n_spatial):
    d = len(n_spatial)
    spec = GridSpec(np.full(d, -0.3), np.full(d, 1.1), n_spatial,
                    1000.0, 1000.0 + 7 * 1800.0, 7)
    rng = np.random.default_rng(0)
    obs = rng.poisson(2.0, spec.shape)  # integer counts print as floats
    pred = rng.normal(0, 1e-3, spec.shape)
    pred.flat[0] = -0.0
    _dump_heatmaps([(0, 0.5, 1800.0, spec, obs, pred)], str(tmp_path), False)
    text = (tmp_path / "heatmap_fold0_s0.5_t1800.dat").read_text()
    centers = [spec.spatial_centers(k) for k in range(d)]
    expect = ["# " + " ".join([f"x{k + 1}" for k in range(d)]
                              + ["t", "observed", "predicted"])]
    for idx in np.ndindex(spec.shape):
        row = [centers[k][idx[k]] for k in range(d)]
        row += [spec.temporal_centers[idx[-1]], obs[idx], pred[idx]]
        expect.append(" ".join(repr(float(v)) for v in row))
    assert text == "\n".join(expect) + "\n"


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
