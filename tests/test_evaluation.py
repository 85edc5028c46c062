"""Metrics, count grids, paired t-tests, and parameter sweeps."""

import warnings

import numpy as np
import pytest
from scipy import stats

from hypertime import (
    BaselineConfig,
    Dataset,
    ResidualSeries,
    default_candidates,
    fremen_predictor,
    GridSpec,
    grid_count,
    make_baseline,
    pairwise_ttests,
    per_cell_baseline,
    rmse,
    spectrum,
    sweep,
)


def unit_grid(n_spatial=(4,), n_temporal=5):
    return GridSpec(np.zeros(len(n_spatial)), np.ones(len(n_spatial)),
                    n_spatial, 0.0, 100.0, n_temporal)


def test_rmse_hand_value():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == pytest.approx(
        np.sqrt(4.0 / 3.0))
    assert rmse([1.0], [1.0]) == 0.0


def test_rmse_validation():
    with pytest.raises(ValueError):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        rmse([], [])
    with pytest.raises(ValueError):
        rmse(np.zeros((2, 2)), np.zeros((2, 2)))


def test_grid_spec_geometry():
    spec = unit_grid()
    np.testing.assert_allclose(spec.spatial_edges, [0.25])
    assert spec.temporal_edge == pytest.approx(20.0)
    assert spec.cell_volume == pytest.approx(5.0)
    assert spec.shape == (4, 5)
    assert spec.n_cells == 20
    np.testing.assert_allclose(spec.spatial_centers(0),
                               [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(spec.temporal_centers, [10, 30, 50, 70, 90])


def test_grid_spec_no_spatial_dims():
    spec = GridSpec(np.zeros(0), np.zeros(0), (), 0.0, 10.0, 5)
    assert spec.spatial_dim == 0
    assert spec.cell_volume == pytest.approx(2.0)
    assert spec.shape == (5,)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec([0.0], [0.0], (2,), 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        GridSpec([0.0], [1.0], (2,), 1.0, 1.0, 2)
    with pytest.raises(ValueError):
        GridSpec([0.0], [1.0], (0,), 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        GridSpec.from_cell_size([0.0], [1.0], 0.0, 1.0, -0.5, 1.0)


def test_from_cell_size_exact_division_keeps_box():
    spec = GridSpec.from_cell_size([0.0], [2.0], 0.0, 100.0, 0.5, 25.0,
                                   expand=True)
    np.testing.assert_allclose(spec.spatial_hi, [2.0])
    assert spec.t_hi == pytest.approx(100.0)
    assert spec.shape == (4, 4)


def test_from_cell_size_expand_grows_bounds():
    spec = GridSpec.from_cell_size([0.0], [1.0], 0.0, 100.0, 0.3, 33.0,
                                   expand=True)
    assert spec.shape == (4, 4)
    np.testing.assert_allclose(spec.spatial_hi, [1.2])
    assert spec.t_hi == pytest.approx(132.0)
    np.testing.assert_allclose(spec.spatial_edges, [0.3])


def test_from_cell_size_no_expand_keeps_box():
    spec = GridSpec.from_cell_size([0.0], [1.0], 0.0, 100.0, 0.3, 33.0,
                                   expand=False)
    assert spec.shape == (4, 4)
    np.testing.assert_allclose(spec.spatial_hi, [1.0])
    assert spec.t_hi == pytest.approx(100.0)


def test_grid_count_places_events():
    spec = unit_grid()
    ev = Dataset(np.array([5.0, 25.0, 25.0]),
                 np.array([[0.1], [0.6], [0.6]]), None)
    counts = grid_count(ev, spec)
    assert counts.shape == spec.shape
    assert counts[0, 0] == 1.0
    assert counts[2, 1] == 2.0
    assert counts.sum() == 3.0


def test_grid_count_half_open_edges():
    spec = unit_grid()
    # shared edge goes to the higher cell; upper boundary falls outside
    ev = Dataset(np.array([20.0, 100.0, 0.0]),
                 np.array([[0.25], [0.5], [1.0]]), None)
    counts = grid_count(ev, spec)
    assert counts.sum() == 1.0
    assert counts[1, 1] == 1.0


def test_grid_count_drops_outside_box():
    spec = unit_grid()
    ev = Dataset(np.array([-5.0, 50.0, 50.0]),
                 np.array([[0.5], [-0.1], [1.5]]), None)
    assert grid_count(ev, spec).sum() == 0.0


def test_grid_count_accepts_valued_points_too():
    # only positions matter; values are ignored by counting
    spec = unit_grid()
    ds = Dataset(np.array([1.0]), np.array([[0.5]]), np.array([1.0]))
    assert grid_count(ds, spec).sum() == 1.0


def test_pairwise_ttests_hand_check():
    errs_a = [1.0, 1.2, 0.8, 1.1, 0.9]
    errs_b = [2.0, 2.4, 1.6, 2.2, 1.8]
    report = pairwise_ttests({"A": errs_a, "B": errs_b})
    expect = stats.ttest_rel(errs_a, errs_b)
    pair = report.matrix[("A", "B")]
    assert pair.t == pytest.approx(expect.statistic)
    assert pair.p == pytest.approx(expect.pvalue)
    assert pair.significant
    assert ("A", "B") in report.edges
    assert ("B", "A") not in report.edges


def test_pairwise_ttests_degenerate_zero_variance():
    report = pairwise_ttests({"A": [1.0, 1.0, 1.0], "B": [1.0, 1.0, 1.0]})
    pair = report.matrix[("A", "B")]
    assert pair.degenerate
    assert not pair.significant
    assert report.edges == []


def test_pairwise_ttests_insignificant_pair_has_no_edge():
    rng = np.random.default_rng(0)
    base = rng.uniform(1, 2, 6)
    report = pairwise_ttests({"A": base, "B": base + rng.normal(0, 1e-3, 6)},
                             alpha=1e-12)
    assert report.edges == []


def test_pairwise_ttests_validation():
    with pytest.raises(ValueError):
        pairwise_ttests({"A": [1.0]})
    with pytest.raises(ValueError):
        pairwise_ttests({"A": [1.0, 2.0], "B": [1.0]})


def test_report_to_dict_round_trips_json():
    import json
    report = pairwise_ttests({"A": [1.0, 1.2, 0.8], "B": [2.0, 2.4, 1.6]})
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["methods"] == ["A", "B"]
    assert ["A", "B"] in payload["dominance_edges"]


class _Const:
    def __init__(self, value):
        self.value = float(value)

    def predict(self, x, t):
        return np.full(np.shape(t), self.value)


def test_sweep_picks_best_and_breaks_ties_by_order():
    tr = Dataset(np.array([0.0, 1.0]), np.empty((2, 0)),
                 np.array([3.0, 3.0]))
    result = sweep(tr, tr, lambda d, p: _Const(p), [1, 3, 5, 3])
    assert result.best == 3
    assert [p for p, _ in result.scores] == [1, 3, 5, 3]
    assert min(s for _, s in result.scores) == 0.0


def test_sweep_skips_failing_params_with_warning():
    tr = Dataset(np.array([0.0, 1.0]), np.empty((2, 0)),
                 np.array([3.0, 3.0]))

    def factory(d, p):
        if p == 2:
            raise ValueError("unusable")
        return _Const(p)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = sweep(tr, tr, factory, [2, 3])
    assert result.best == 3
    assert [p for p, _ in result.failures] == [2]
    assert any("unusable" in str(w.message) for w in caught)


def test_sweep_all_failures_error():
    tr = Dataset(np.array([0.0, 1.0]), np.empty((2, 0)),
                 np.array([3.0, 3.0]))

    def factory(d, p):
        raise ValueError("nope")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError):
            sweep(tr, tr, factory, [1, 2])


def test_sweep_custom_scorer():
    tr = Dataset(np.array([0.0, 1.0]), np.empty((2, 0)),
                 np.array([3.0, 3.0]))
    result = sweep(tr, tr, lambda d, p: _Const(p), [1, 2, 3],
                   scorer=lambda predictor, val: abs(predictor.value - 2.0))
    assert result.best == 2


def test_per_cell_baseline_stationary_rate():
    # one spatial cell, uniform rate: predictions approach the mean count
    rng = np.random.default_rng(42)
    t_train = np.sort(rng.uniform(0, 1000.0, 400))
    train = Dataset(t_train, np.full((400, 1), 0.5), None)
    spec = GridSpec([0.0], [1.0], (1,), 1000.0, 2000.0, 10)
    predicted = per_cell_baseline(train, spec, BaselineConfig(kind="mean"))
    assert predicted.shape == spec.shape
    expect = 400 / 1000.0 * spec.temporal_edge
    np.testing.assert_allclose(predicted, expect, rtol=0.05)


def test_per_cell_baseline_splits_cells():
    # two spatial cells with very different rates
    rng = np.random.default_rng(1)
    t = np.sort(rng.uniform(0, 1000.0, 330))
    x = np.concatenate([np.full(300, 0.25), np.full(30, 0.75)])
    train = Dataset(t, x[:, None], None)
    spec = GridSpec([0.0], [1.0], (2,), 1000.0, 1500.0, 5)
    predicted = per_cell_baseline(train, spec, BaselineConfig(kind="mean"))
    assert predicted[0].mean() > 5 * predicted[1].mean()


def test_per_cell_baseline_hist_kind_runs():
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0, 4 * 86400.0, 500))
    train = Dataset(t, np.full((500, 1), 0.5), None)
    spec = GridSpec([0.0], [1.0], (1,), 4 * 86400.0, 5 * 86400.0, 24)
    cfg = BaselineConfig(kind="hist", n_intervals=24)
    predicted = per_cell_baseline(train, spec, cfg)
    assert np.all(np.isfinite(predicted))
    assert predicted.min() >= 0.0


def slow_baseline(times, row, cfg, candidates, query):
    """Reference for one series, written out: the kept FreMEn periods and
    the predictions at `query`.  Mean is `np.mean`; Hist is a loop over
    the time-of-day intervals; FreMEn keeps the top m of `spectrum` and
    sums each kept period's coefficient in full."""
    mean = np.mean(row)
    out = np.full(query.shape, mean)
    if cfg.kind == "hist":
        n = cfg.n_intervals

        def interval(t):
            k = np.floor(n * np.mod(t, 86400.0) / 86400.0).astype(int)
            return np.clip(k, 0, n - 1)

        train_k, query_k = interval(times), interval(query)
        for b in range(n):
            if (train_k == b).any():
                out[query_k == b] = np.mean(row[train_k == b])
        return np.empty(0), out
    if cfg.kind == "mean" or cfg.m_components == 0:
        return np.empty(0), out
    if candidates is None:
        candidates = default_candidates(float(times.max() - times.min()))
    kept = spectrum(ResidualSeries(times, row),
                    candidates).periods[:cfg.m_components]
    centered = row - mean
    for period in kept:
        phase = 2.0 * np.pi * times / period
        re = float(np.dot(centered, np.cos(phase))) / len(times)
        im = -float(np.dot(centered, np.sin(phase))) / len(times)
        query_phase = 2.0 * np.pi * query / period
        out += 2.0 * (re * np.cos(query_phase) - im * np.sin(query_phase))
    return np.array(kept), out


def baseline_cell_loop(train, spec, cfg, candidates=None):
    """Reference: `slow_baseline` per spatial cell, as a loop."""
    t0, t1 = float(train.times.min()), float(train.times.max())
    n_bins = int(np.ceil((t1 - t0) / spec.temporal_edge - 1e-12))
    train_spec = GridSpec(spec.spatial_lo, spec.spatial_hi, spec.n_spatial,
                          t0, t0 + n_bins * spec.temporal_edge, n_bins)
    counts = grid_count(train, train_spec).reshape(-1, n_bins)
    centers = train_spec.temporal_centers
    return counts, np.array(
        [slow_baseline(centers, row, cfg, candidates,
                       spec.temporal_centers)[1] for row in counts])


def sparse_two_week_events():
    """14 d of events, first at t = 0, on an (8, 2) grid with an empty
    cell and a one-event cell: the training bins span whole weeks, so
    the one-event cell ties every FreMEn candidate up to rounding."""
    rng = np.random.default_rng(11)
    day = 86400.0
    t = np.sort(np.concatenate([[0.0, 14 * day - 1.0],
                                rng.uniform(0, 14 * day, 600)]))
    x = np.where(rng.uniform(size=t.size) < 0.7,
                 rng.normal(1.0, 0.3, t.size), rng.normal(2.5, 0.3, t.size))
    x = np.clip(x, 0.05, 3.95)
    x[1] = 3.5  # the only event of its cell
    train = Dataset(t, np.column_stack([x, np.full(t.size, 0.5)]), None)
    spec = GridSpec([0.0, 0.0], [4.0, 2.0], (8, 2), 14 * day, 15 * day, 48)
    return train, spec


def assert_cells_match_loop(train, spec, cfg, candidates=None):
    predicted = per_cell_baseline(train, spec, cfg, candidates)
    counts, expect = baseline_cell_loop(train, spec, cfg, candidates)
    assert not counts[-1].any()  # an all-zero cell
    assert (counts.sum(axis=1) == 1).any()
    np.testing.assert_array_equal(predicted.reshape(expect.shape), expect)


def test_per_cell_fremen_matches_per_cell_loop():
    train, spec = sparse_two_week_events()
    for candidates in (None, default_candidates(14 * 86400.0, 604800.0, 30)):
        for m in (0, 1, 2, 3):
            # Same ranking products and coefficient sums as `spectrum`
            # and the written-out sums.
            assert_cells_match_loop(
                train, spec, BaselineConfig(kind="fremen", m_components=m),
                candidates)


def test_per_cell_hist_matches_per_cell_loop():
    train, spec = sparse_two_week_events()
    for n in (1, 2, 4, 8, 24, 48):
        assert_cells_match_loop(train, spec,
                                BaselineConfig(kind="hist", n_intervals=n))


def test_per_cell_mean_matches_per_cell_loop():
    train, spec = sparse_two_week_events()
    assert_cells_match_loop(train, spec, BaselineConfig(kind="mean"))


def test_series_with_repeated_times_matches_reference():
    # Readings taken three at a time: the ranking sums repeated
    # timestamps first, as `spectrum` does for one series.
    rng = np.random.default_rng(21)
    day = 86400.0
    t = np.repeat(np.sort(rng.uniform(0, 10 * day, 200)), 3)
    a = (0.5 + 0.3 * np.cos(2 * np.pi * t / day)
         + 0.1 * np.sin(2 * np.pi * t / (day / 3)) + rng.normal(0, 0.2, t.size))
    train = Dataset(t, np.empty((t.size, 0)), a)
    query = np.linspace(0, 12 * day, 97)
    for candidates in (None, [day, day / 2, day / 3, 2 * day]):
        for m in (1, 2, 3):
            fit = fremen_predictor(train, m, candidates)
            kept, expect = slow_baseline(
                t, a, BaselineConfig("fremen", m_components=m), candidates,
                query)
            np.testing.assert_array_equal(fit.periods, kept)
            np.testing.assert_array_equal(fit.predict(None, query), expect)
    for cfg in (BaselineConfig("mean"), BaselineConfig("hist", n_intervals=5),
                BaselineConfig("hist", n_intervals=24)):
        _, expect = slow_baseline(t, a, cfg, None, query)
        np.testing.assert_array_equal(
            make_baseline(train, cfg).predict(None, query), expect)


@pytest.mark.parametrize("bad", [0.0, -3600.0])
def test_fremen_rejects_non_positive_candidates_on_both_paths(bad):
    train, spec = sparse_two_week_events()
    valued = Dataset(train.times, np.empty((len(train), 0)), train.coords[:, 0])
    cfg = BaselineConfig(kind="fremen", m_components=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="candidate periods must be positive"):
            per_cell_baseline(train, spec, cfg, [bad, 86400.0])
        with pytest.raises(ValueError, match="candidate periods must be positive"):
            fremen_predictor(valued, 1, [bad, 86400.0])


def test_per_cell_fremen_too_many_components_is_skipped_by_sweep():
    rng = np.random.default_rng(2)
    t = np.sort(rng.uniform(0, 2 * 86400.0, 300))
    train = Dataset(t, rng.uniform(0, 1, (300, 1)), None)
    spec = GridSpec([0.0], [1.0], (2,), 2 * 86400.0, 3 * 86400.0, 24)
    candidates = [86400.0, 43200.0]
    with pytest.raises(ValueError, match="m exceeds"):
        per_cell_baseline(train, spec,
                          BaselineConfig(kind="fremen", m_components=3),
                          candidates)

    def make(tr, m):
        return per_cell_baseline(tr, spec, BaselineConfig(
            kind="fremen", m_components=m), candidates)

    with pytest.warns(UserWarning, match="parameter 3 failed"):
        result = sweep(train, train, make, [1, 3],
                       scorer=lambda predicted, _: float(predicted.sum()))
    assert [p for p, _ in result.failures] == [3]
    assert result.best == 1
