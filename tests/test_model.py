"""Model build loop, closed-form queries, calibration, and serialization.

The closed-form mean and the calibration denominator are checked against
dense trapezoid quadrature over the value dimension, which is the
independent oracle for the Gaussian marginalization identities.
"""

import itertools
import json
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertime import (
    BuildConfig,
    Dataset,
    DimensionLayout,
    FitConfig,
    GaussianComponent,
    GridSpec,
    HypertimeModel,
    HypertimeProjection,
    MixtureModel,
    SpatialStats,
    TrainingWindow,
    build,
    ResidualSeries,
    amplitude,
    build_event,
    calibrate_gamma,
    default_candidates,
    density,
    grid_count,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_cell_count,
    predict_counts,
    predict_mean,
    project_times,
    residuals,
    save_model,
    select_cluster_count,
    spectrum,
)
from conftest import daily_series, pedestrian_events

DAY = 86400.0
WEEK = 604800.0


def random_spd(rng, dim, scale=1.0):
    root = rng.normal(0, scale, (dim, dim))
    return root @ root.T + 0.3 * np.eye(dim)


def single_component_model(rng, spatial_dim, n_periods):
    """Hand-built one-component valued model for oracle checks."""
    width = 1 + spatial_dim + 2 * n_periods
    mean = rng.normal(0, 1, width)
    cov = random_spd(rng, width)
    comp = GaussianComponent(1.0, mean, cov)
    layout = DimensionLayout(True, spatial_dim, n_periods)
    periods = tuple(DAY / (k + 1) for k in range(n_periods))
    mix = MixtureModel([comp], layout, None)
    window = TrainingWindow(np.zeros(spatial_dim), np.ones(spatial_dim),
                            0.0, 7 * DAY)
    return HypertimeModel(mix, HypertimeProjection(periods), layout,
                          gamma=1.0, gamma_fallback=False,
                          spatial_stats=SpatialStats.identity(spatial_dim),
                          mode="valued", window=window)


def quadrature_mean(model, x, t):
    """Trapezoid evaluation of the value integral at one query point."""
    comp = model.mixture.components[0]
    sd = np.sqrt(comp.covariance[0, 0])
    grid = np.linspace(comp.mean[0] - 14 * sd, comp.mean[0] + 14 * sd, 8001)
    # One array call over the whole grid (density is row-wise).
    n = grid.size
    coords = None if x is None else np.tile(np.asarray(x, float), (n, 1))
    dens = density(model, a=grid, x=coords, t=np.full(n, t))
    return np.trapezoid(grid * dens, grid)


def test_build_config_validation():
    with pytest.raises(ValueError):
        BuildConfig(max_h=-1)
    with pytest.raises(ValueError):
        BuildConfig(longest_period=0.0)
    with pytest.raises(ValueError):
        BuildConfig(n_candidates=0)
    with pytest.raises(ValueError):
        BuildConfig(cluster_cap=0)
    with pytest.raises(ValueError):
        BuildConfig(event_spatial_bin=-1.0)


def test_mean_matches_quadrature_on_random_models():
    rng = np.random.default_rng(20)
    for _ in range(10):
        spatial_dim = int(rng.integers(0, 3))
        n_periods = int(rng.integers(0, 3))
        model = single_component_model(rng, spatial_dim, n_periods)
        x = rng.normal(0, 1, spatial_dim) if spatial_dim else None
        t = float(rng.uniform(0, 7 * DAY))
        closed = predict_mean(model, x, t)
        numeric = quadrature_mean(model, x, t)
        assert closed == pytest.approx(numeric, abs=1e-4)


def random_mixture_model(rng, mode, spatial_dim, n_periods, k):
    """Hand-built k-component model with a non-trivial standardization."""
    valued = mode == "valued"
    layout = DimensionLayout(valued, spatial_dim, n_periods)
    weights = rng.uniform(0.2, 1.0, k)
    weights /= weights.sum()
    comps = [GaussianComponent(float(w), rng.normal(0, 1, layout.width),
                               random_spd(rng, layout.width, 0.6))
             for w in weights]
    periods = tuple(DAY / (j + 1) for j in range(n_periods))
    window = TrainingWindow(np.zeros(spatial_dim), np.full(spatial_dim, 4.0),
                            0.0, 7 * DAY)
    stats = SpatialStats(rng.uniform(1.0, 3.0, spatial_dim),
                         rng.uniform(0.5, 2.0, spatial_dim))
    return HypertimeModel(MixtureModel(comps, layout, None),
                          HypertimeProjection(periods), layout,
                          gamma=float(rng.uniform(0.5, 50.0)),
                          gamma_fallback=False, spatial_stats=stats,
                          mode=mode, window=window)


def marginal_formula_mean(model, coords, times):
    """Expected reading by the formula the factor cache replaced: per
    query, each component's marginal over the non-value dimensions as
    its own Gaussian and a fresh solve for the value-on-rest regression.
    The weight enters as its log, in the exponent of w_j q_j."""
    st = model.spatial_stats
    rest_pts = np.hstack([(coords - st.mean) / st.std,
                          project_times(times, model.projection)])
    idx = np.arange(1, model.layout.width)  # all but the value
    unscaled = np.zeros(times.shape[0])
    for comp in model.mixture.components:
        s_rr = comp.covariance[np.ix_(idx, idx)]
        marginal = GaussianComponent(comp.weight, comp.mean[idx], s_rr)
        wq = np.exp(np.log(comp.weight) + marginal.logpdf(rest_pts))
        if idx.size:
            beta = np.linalg.solve(s_rr, comp.covariance[idx, 0])
            c = comp.mean[0] + (rest_pts - comp.mean[idx]) @ beta
        else:
            c = np.full(rest_pts.shape[0], comp.mean[0])
        unscaled += wq * c
    return model.gamma * unscaled


def test_predict_mean_matches_marginal_formula_bit_for_bit(daily_data):
    rng = np.random.default_rng(23)
    models = [random_mixture_model(rng, "valued", d, h, k)
              for d in (0, 1, 2) for h in (0, 2) for k in (1, 3)]
    models.append(build(daily_data, BuildConfig(
        fit=FitConfig(n_clusters=2, seed=42), max_h=2, auto_clusters=False)))
    for model in models:
        d = model.layout.spatial_dim
        t = rng.uniform(0, 14 * DAY, 300)
        x = rng.normal(2.0, 2.0, (300, d))
        expect = marginal_formula_mean(model, x, t)
        got = predict_mean(model, x if d else None, t)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
        one = predict_mean(model, x[7] if d else None, float(t[7]))
        assert one == marginal_formula_mean(model, x[7:8], t[7:8])[0]


def test_density_nonnegative_and_scales_with_gamma():
    rng = np.random.default_rng(21)
    model = single_component_model(rng, 1, 1)
    x = np.array([0.3])
    base = density(model, a=0.2, x=x, t=1000.0)
    assert base >= 0
    model.gamma = 3.0
    assert density(model, a=0.2, x=x, t=1000.0) == pytest.approx(3 * base)


def test_gamma_identity_after_build(daily_data):
    for backend in ("em", "km"):
        cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42,
                                        backend=backend),
                          max_h=2, auto_clusters=False)
        model = build(daily_data, cfg)
        mu = predict_mean(model, None, daily_data.times)
        assert abs(mu.mean() - daily_data.values.mean()) < 1e-6


def test_calibrate_gamma_fixed_point(daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=1,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    again = calibrate_gamma(model, daily_data)
    assert again == pytest.approx(model.gamma, abs=1e-9 * model.gamma)


def test_calibrate_gamma_linear_in_values(daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=1,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    doubled = Dataset(daily_data.times, daily_data.coords,
                      2.0 * daily_data.values)
    model2 = HypertimeModel(model.mixture, model.projection, model.layout,
                            1.0, False, model.spatial_stats, "valued",
                            model.window)
    g1 = calibrate_gamma(model2, daily_data)
    g2 = calibrate_gamma(model2, doubled)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12)


def test_calibrate_gamma_quadrature_oracle():
    rng = np.random.default_rng(33)
    model = single_component_model(rng, 0, 1)
    # A clearly positive value marginal keeps the denominator positive.
    model.mixture.components[0].mean[0] = 3.0
    t = np.sort(rng.uniform(0, 7 * DAY, 40))
    a = rng.uniform(0.2, 1.0, 40)
    train = Dataset(t, np.empty((40, 0)), a)
    gamma = calibrate_gamma(model, train)
    denom = sum(quadrature_mean(model, None, float(ti)) for ti in t)
    assert gamma == pytest.approx(a.sum() / denom, abs=1e-4 * gamma)


def test_calibrate_gamma_all_zero_values_falls_back():
    rng = np.random.default_rng(34)
    model = single_component_model(rng, 0, 0)
    t = np.linspace(0, 1000, 20)
    train = Dataset(t, np.empty((20, 0)), np.zeros(20))
    with pytest.warns(UserWarning):
        model2 = build(train, BuildConfig(
            fit=FitConfig(n_clusters=1, seed=0), max_h=0,
            auto_clusters=False))
    assert model2.gamma == 1.0
    assert model2.gamma_fallback


def test_calibrate_gamma_event_needs_the_build_config(event_data):
    # The model does not record its grid; the default grid would move
    # gamma here by +0.088%, so recalibration without the config is refused.
    cfg = BuildConfig(fit=FitConfig(n_clusters=2, seed=42), max_h=0,
                      auto_clusters=False, event_spatial_bin=1.0,
                      event_temporal_bin=3600.0)
    model = build_event(event_data, cfg)
    with pytest.raises(ValueError,
                       match="event_spatial_bin and event_temporal_bin"):
        calibrate_gamma(model, event_data)
    assert calibrate_gamma(model, event_data, cfg) == model.gamma
    assert calibrate_gamma(model, event_data, BuildConfig()) != model.gamma


def test_build_requires_valued_data(event_data):
    with pytest.raises(ValueError):
        build(event_data, BuildConfig())


def test_build_event_requires_event_data(daily_data):
    with pytest.raises(ValueError):
        build_event(daily_data, BuildConfig())


@pytest.mark.parametrize("fit, auto", [(FitConfig(), True),
                                       (FitConfig(backend="km"), True),
                                       (FitConfig(backend="km"), None)])
def test_build_event_refuses_to_pick_the_cluster_count(event_data, fit,
                                                       auto):
    # Event builds have no cluster-count search; fitting
    # `fit.n_clusters` instead would hide that the request was ignored.
    cfg = BuildConfig(fit=fit, max_h=0, auto_clusters=auto)
    with pytest.raises(ValueError, match="fixed cluster count"):
        build_event(event_data, cfg)


def test_build_needs_at_least_two_records():
    ds = Dataset(np.array([0.0]), np.empty((1, 0)), np.array([1.0]))
    with pytest.raises(ValueError):
        build(ds, BuildConfig())


def test_build_recovers_daily_period(daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=3,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    assert model.periods[0] == DAY
    assert model.training_error < model.build_log[0].error


def test_build_stops_on_time_independent_noise():
    rng = np.random.default_rng(40)
    t = np.sort(rng.uniform(0, 14 * DAY, 1500))
    a = rng.normal(1.0, 0.2, 1500)
    ds = Dataset(t, np.empty((1500, 0)), a)
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=4,
                      auto_clusters=False)
    model = build(ds, cfg)
    assert model.periods == ()
    assert len(model.build_log) == 2
    assert model.build_log[0].kept
    assert not model.build_log[1].kept


def test_build_respects_max_h(daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=1,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    assert len(model.periods) <= 1
    kept = [s for s in model.build_log if s.kept]
    assert all(s.h <= 1 for s in kept)


def test_build_log_errors_strictly_improve(daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=4,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    kept = [s.error for s in model.build_log if s.kept]
    assert all(b < a for a, b in zip(kept, kept[1:]))
    assert model.training_error == kept[-1]


def test_residuals_and_model_error(daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=1,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    series = residuals(model, daily_data)
    mu = predict_mean(model, None, daily_data.times)
    np.testing.assert_allclose(series.values, mu - daily_data.values,
                               atol=1e-12)
    np.testing.assert_array_equal(series.times, daily_data.times)
    assert model.training_error == pytest.approx(
        np.sqrt(np.mean(series.values ** 2)))


def test_predict_scalar_and_batch(daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=2,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    scalar = model.predict(None, 3600.0)
    assert isinstance(scalar, float)
    batch = model.predict(None, np.array([3600.0, 7200.0]))
    assert batch.shape == (2,)
    assert batch[0] == pytest.approx(scalar)


def test_predict_spatial_dim_checked():
    rng = np.random.default_rng(50)
    t = np.sort(rng.uniform(0, 5 * DAY, 300))
    x = rng.normal(0, 1, (300, 2))
    a = 0.5 + 0.1 * x[:, 0] + rng.normal(0, 0.05, 300)
    ds = Dataset(t, x, a)
    cfg = BuildConfig(fit=FitConfig(n_clusters=2, seed=42), max_h=1,
                      auto_clusters=False)
    model = build(ds, cfg)
    with pytest.raises(ValueError):
        model.predict(np.zeros((3, 1)), np.zeros(3))
    out = model.predict(x[:3], t[:3])
    assert out.shape == (3,)


def test_periodicity_of_predictions(daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=1,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    tq = np.linspace(0, DAY, 11)
    shift = model.predict(None, tq + 7 * DAY)
    np.testing.assert_allclose(model.predict(None, tq), shift, atol=1e-9)


def test_build_deterministic(daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=2,
                      auto_clusters=False)
    d1 = model_to_dict(build(daily_data, cfg))
    d2 = model_to_dict(build(daily_data, cfg))
    assert d1 == d2


def test_select_cluster_count_cap_one(daily_data):
    sel = select_cluster_count(daily_data, BuildConfig(cluster_cap=1))
    assert sel.chosen == 1
    assert len(sel.pairs) == 1


def test_select_cluster_count_spatial_blobs():
    # Three separated blobs; the +-3 pair makes any two-cluster model
    # interpolate across a steep level change, so growth to 3 is forced.
    rng = np.random.default_rng(1)
    n = 900
    t = np.sort(rng.uniform(0, 7 * DAY, n))
    which = rng.integers(0, 3, n)
    centers = np.array([-2.0, 2.0, 12.0])
    levels = np.array([-3.0, 3.0, 0.0])
    x = centers[which] + rng.normal(0, 1.0, n)
    a = levels[which] + rng.normal(0, 0.05, n)
    ds = Dataset(t, x[:, None], a)
    # At two clusters the unscaled predictions sum below zero while the
    # readings sum above it, so that gamma falls back to 1.
    with pytest.warns(UserWarning, match="degenerate calibration ratio"):
        sel = select_cluster_count(ds, BuildConfig(
            fit=FitConfig(seed=42, backend="km"), cluster_cap=8))
    assert sel.chosen >= 3
    scores = [s for _, s in sel.pairs]
    kept = scores[:sel.chosen]
    assert all(b < a for a, b in zip(kept[:-1], kept[1:]))
    if sel.chosen < 8:
        assert scores[sel.chosen] >= scores[sel.chosen - 1]


def test_select_cluster_count_keeps_one_cluster_on_purely_temporal_data():
    # Without spatial dimensions every k predicts the same constant at
    # h = 0, so k = 1 and k = 2 score alike up to rounding (here k = 2
    # came out one ulp lower) and the smaller count stays.
    rng = np.random.default_rng(7)
    t = np.arange(0.0, 7 * DAY, 1200.0)
    a = (0.6 + 0.25 * np.cos(2 * np.pi * t / DAY)
         + 0.1 * np.cos(2 * np.pi * t / (8 * 3600.0))
         + rng.normal(0.0, 0.05, t.size))
    cfg = BuildConfig(fit=FitConfig(seed=42, backend="km"), cluster_cap=2)
    sel = select_cluster_count(Dataset(t, np.empty((t.size, 0)), a), cfg)
    assert sel.chosen == 1
    assert sel.pairs[1][1] == pytest.approx(sel.pairs[0][1], rel=1e-12)


def test_auto_clusters_used_by_km_backend(daily_data):
    cfg = BuildConfig(fit=FitConfig(seed=42, backend="km"), max_h=1)
    model = build(daily_data, cfg)
    assert model.mixture.n == 1


# ---------------------------------------------------------------------------
# event mode


@pytest.fixture(scope="module")
def event_model(event_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=3, seed=42), max_h=1,
                      auto_clusters=False)
    return build_event(event_data, cfg)


def test_event_mass_conservation(event_model, event_data):
    w = event_model.window
    for se, te in ((0.1, 600.0), (0.25, 900.0), (0.5, 1800.0)):
        spec = GridSpec.from_cell_size(w.spatial_lo, w.spatial_hi,
                                       w.t_lo, w.t_hi, se, te, expand=False)
        total = predict_counts(event_model, spec).sum()
        assert abs(total - len(event_data)) / len(event_data) < 0.02


def test_event_far_cell_is_cold(event_model):
    w = event_model.window
    hot = predict_cell_count(
        event_model, [(1.8, 2.2), (0.8, 1.2)], (w.t_lo, w.t_lo + 1800.0))
    cold = predict_cell_count(
        event_model,
        [(w.spatial_hi[0] + 30.0, w.spatial_hi[0] + 30.4),
         (w.spatial_hi[1] + 30.0, w.spatial_hi[1] + 30.4)],
        (w.t_lo, w.t_lo + 1800.0))
    assert cold < 0.01 * hot


def test_predict_cell_count_zero_extent_errors(event_model):
    with pytest.raises(ValueError):
        predict_cell_count(event_model, [(0.0, 0.0), (0.0, 1.0)],
                           (0.0, 1800.0))
    with pytest.raises(ValueError):
        predict_cell_count(event_model, [(0.0, 1.0), (0.0, 1.0)],
                           (100.0, 100.0))


def test_predict_cell_count_matches_grid(event_model):
    w = event_model.window
    bounds = [(2.0, 2.5), (1.0, 1.5)]
    tb = (w.t_lo, w.t_lo + 1800.0)
    single = predict_cell_count(event_model, bounds, tb, subsample=2)
    spec = GridSpec([2.0, 1.0], [2.5, 1.5], (1, 1), tb[0], tb[1], 1)
    grid_val = predict_counts(event_model, spec, subsample=2)[0, 0, 0]
    assert single == pytest.approx(grid_val, rel=1e-12)


def random_cells(rng, n, spatial_dim):
    lo = rng.uniform(-1.0, 5.0, (n, spatial_dim))
    width = rng.uniform(0.05, 1.5, (n, spatial_dim))
    t0 = rng.uniform(0.0, 7 * DAY, n)
    return (np.stack([lo, lo + width], axis=2),
            np.column_stack([t0, t0 + rng.uniform(300.0, 7200.0, n)]))


@pytest.mark.parametrize("spatial_dim", [0, 1, 2])
@pytest.mark.parametrize("subsample", [1, 3])
def test_predict_cell_count_batch_matches_loop(spatial_dim, subsample):
    rng = np.random.default_rng(10 * spatial_dim + subsample)
    model = random_mixture_model(rng, "event", spatial_dim, 2, 3)
    bounds, tb = random_cells(rng, 60, spatial_dim)
    batch = predict_cell_count(model, bounds, tb, subsample=subsample)
    loop = np.array([predict_cell_count(model, bounds[i], tb[i],
                                        subsample=subsample)
                     for i in range(60)])
    assert batch.shape == (60,)
    np.testing.assert_allclose(batch, loop, rtol=1e-13, atol=0.0)
    # A one-cell batch is the single call, and a single call evaluates
    # exactly as a one-cell grid does.
    assert predict_cell_count(model, bounds[:1], tb[:1],
                              subsample=subsample)[0] == loop[0]
    for i in range(60):
        spec = GridSpec(bounds[i, :, 0], bounds[i, :, 1], (1,) * spatial_dim,
                        tb[i, 0], tb[i, 1], 1)
        assert loop[i] == predict_counts(model, spec, subsample).item()


@pytest.mark.parametrize("spatial_dim", [0, 1, 2])
def test_one_midpoint_cell_is_density_at_its_centre(spatial_dim):
    # At subsample=1 a cell's count is `density` at its centre times its
    # volume, for a batch and for each cell alone.
    rng = np.random.default_rng(40 + spatial_dim)
    model = random_mixture_model(rng, "event", spatial_dim, 2, 3)
    bounds, tb = random_cells(rng, 30, spatial_dim)
    lo, hi = bounds[:, :, 0], bounds[:, :, 1]
    centre = lo + 0.5 * (hi - lo)
    t_centre = tb[:, 0] + 0.5 * (tb[:, 1] - tb[:, 0])
    volume = np.prod(hi - lo, axis=1) * (tb[:, 1] - tb[:, 0])
    x = centre if spatial_dim else None
    expect = density(model, x=x, t=t_centre) * volume
    got = predict_cell_count(model, bounds, tb)
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
    for i in range(30):
        x = centre[i] if spatial_dim else None
        one = density(model, x=x, t=t_centre[i]) * volume[i]
        assert predict_cell_count(model, bounds[i], tb[i]) == one


@pytest.mark.parametrize("subsample", [2.7, "2", 2.0, None, 0, -1])
def test_subsample_must_be_an_integer_of_at_least_one(event_model,
                                                      subsample):
    # 2.7 and "2" used to run silently as 2.
    bounds, tb = [(2.0, 2.5), (1.0, 1.5)], (0.0, 1800.0)
    spec = GridSpec([2.0, 1.0], [2.5, 1.5], (1, 1), 0.0, 1800.0, 1)
    match = "^" + re.escape(f"subsample must be an integer >= 1, got "
                            f"{subsample!r}") + "$"
    with pytest.raises(ValueError, match=match):
        predict_cell_count(event_model, bounds, tb, subsample=subsample)
    with pytest.raises(ValueError, match=match):
        predict_counts(event_model, spec, subsample=subsample)


@pytest.mark.parametrize("spatial, t_bounds", [
    ([(0.0, 1.0), (0.0, 1.0)], (-1e308, 1e308)),
    ([(0.0, 1.0), (0.0, 1.0)], (np.inf, np.inf)),
    ([(0.0, 1.0), (-np.inf, 1.0)], (0.0, 1.0)),
    ([(-1e308, 1e308), (0.0, 1.0)], (0.0, 1.0)),
    ([(0.0, np.nan), (0.0, 1.0)], (0.0, 1.0)),
    # Finite extents whose product overflows.
    ([(-1e200, 1e200), (-1e200, 1e200)], (0.0, 1.0)),
])
def test_cell_extents_overflowing_or_infinite_fail_loudly(event_model,
                                                          spatial, t_bounds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning first
        with pytest.raises(ValueError, match="^cell has zero, negative or "
                                             "non-finite extent$"):
            predict_cell_count(event_model, spatial, t_bounds)
        with pytest.raises(ValueError, match="^cell 1 has zero"):
            predict_cell_count(event_model,
                               [[(0.0, 1.0), (0.0, 1.0)], spatial],
                               [(0.0, 1.0), t_bounds])


def tiled_cell_mean(model, lo, hi, t0, t1, s):
    """Oracle: the mixture density averaged over the s midpoints per axis
    of the cell [lo, hi) x [t0, t1), every (point, time) pair one row."""
    frac = (np.arange(s) + 0.5) / s
    axes = [a + frac * (b - a) for a, b in zip(lo, hi)]
    axes.append(t0 + frac * (t1 - t0))
    pts = np.array(list(itertools.product(*axes)))
    st = model.spatial_stats
    rows = np.hstack([(pts[:, :-1] - st.mean) / st.std,
                      project_times(pts[:, -1], model.projection)])
    return model.mixture.pdf(rows).mean()


@pytest.mark.parametrize("spatial_dim", [0, 1, 2])
@pytest.mark.parametrize("subsample", [1, 3])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n_periods", [0, 1, 2])
def test_event_grid_evaluator_matches_tiled_points(spatial_dim, subsample, k,
                                                   n_periods):
    # Grids and cell batches (product structure, or rows where a box has
    # one point per axis) against `mixture.pdf` on the tiled point set.
    rng = np.random.default_rng([spatial_dim, subsample, k, n_periods])
    model = random_mixture_model(rng, "event", spatial_dim, n_periods, k)
    d, s, g = spatial_dim, subsample, model.gamma
    spec = GridSpec(np.full(d, -0.5), np.full(d, 4.0), (3,) * d,
                    DAY / 3, 1.5 * DAY, 4)
    got = predict_counts(model, spec, s)
    edges = spec.spatial_edges
    for idx in np.ndindex(spec.shape):
        lo = spec.spatial_lo + np.asarray(idx[:d]) * edges
        t0 = spec.t_lo + idx[d] * spec.temporal_edge
        expect = g * spec.cell_volume * tiled_cell_mean(
            model, lo, lo + edges, t0, t0 + spec.temporal_edge, s)
        assert got[idx] == pytest.approx(expect, rel=1e-12, abs=0.0)
    bounds, tb = random_cells(rng, 20, d)
    got = predict_cell_count(model, bounds, tb, subsample=s)
    for i in range(20):
        lo, hi = bounds[i, :, 0], bounds[i, :, 1]
        volume = np.prod(hi - lo) * (tb[i, 1] - tb[i, 0])
        expect = g * volume * tiled_cell_mean(model, lo, hi, *tb[i], s)
        assert got[i] == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_predict_cell_count_batch_rejects_bad_rows(event_model):
    rng = np.random.default_rng(13)
    bounds, tb = random_cells(rng, 10, 2)
    flat = bounds.copy()
    flat[4, 1] = (1.0, 1.0)
    with pytest.raises(ValueError, match="cell 4 "):
        predict_cell_count(event_model, flat, tb)
    still = tb.copy()
    still[6, 1] = still[6, 0]
    with pytest.raises(ValueError, match="cell 6 "):
        predict_cell_count(event_model, bounds, still)
    with pytest.raises(ValueError, match="row 9 "):
        predict_cell_count(event_model, bounds, tb[:9])
    with pytest.raises(ValueError, match="shape"):
        predict_cell_count(event_model, bounds[:, :1], tb)


def test_event_density_matches_components(event_model):
    x = np.array([2.0, 1.0])
    t = 3600.0
    val = density(event_model, x=x, t=t)
    # manual: gamma * mixture pdf at standardized coords + projection
    st = event_model.spatial_stats
    z = (x - st.mean) / st.std
    from hypertime import project_times
    ht = project_times(np.array([t]), event_model.projection)[0]
    vec = np.concatenate([z, ht])
    expect = event_model.gamma * event_model.mixture.pdf(vec[None, :])[0]
    assert val == pytest.approx(expect, rel=1e-12)


def test_event_residual_grid(event_model, event_data):
    # The build scans the per-bin sums of the residual grid: their
    # amplitudes are those of every cell's residual on the bin times,
    # each bin time once per spatial cell, times the number of cells.
    w = event_model.window
    spec = GridSpec.from_cell_size(w.spatial_lo, w.spatial_hi, w.t_lo,
                                   w.t_hi, 1.0, 1800.0, expand=False)
    eps = predict_counts(event_model, spec) - grid_count(event_data, spec)
    assert eps.shape == spec.shape
    cells = int(np.prod(spec.n_spatial))
    tiled = ResidualSeries(np.tile(spec.temporal_centers, cells),
                           eps.reshape(-1))
    sums = ResidualSeries(spec.temporal_centers,
                          eps.reshape(cells, -1).sum(axis=0))
    cand = default_candidates(w.t_hi - w.t_lo)
    scaled = cells * np.array([amplitude(tiled, p) for p in cand])
    direct = np.array([amplitude(sums, p) for p in cand])
    np.testing.assert_allclose(scaled, direct, rtol=1e-12,
                               atol=1e-12 * direct.max())
    assert spectrum(tiled, cand).periods == spectrum(sums, cand).periods


def test_build_event_zero_width_extent():
    # Every event shares x2, so the training window is flat along it.  The
    # build widens that extent to spatial_lo + event_spatial_bin, both for
    # the residual grid (cells of the configured size) and for the gamma
    # calibration grid (cells refined by two).
    ev = pedestrian_events(3, 900, 3)
    flat = Dataset(ev.times,
                   np.column_stack([ev.coords[:, 0], np.full(len(ev), 1.0)]),
                   None)
    cfg = BuildConfig(fit=FitConfig(n_clusters=2, seed=42, eig_floor=0.05),
                      max_h=1, auto_clusters=False, event_spatial_bin=0.5,
                      event_temporal_bin=3600.0)
    model = build_event(flat, cfg)
    w = model.window
    assert w.spatial_hi[1] == w.spatial_lo[1] == 1.0
    assert not model.gamma_fallback
    assert model.gamma == pytest.approx(0.009863701650545875, rel=1e-6)

    def grid(widen, refine):
        hi = np.array([w.spatial_hi[0], w.spatial_lo[1] + widen])
        return GridSpec.from_cell_size(w.spatial_lo, hi, w.t_lo, w.t_hi,
                                       0.5 / refine, 3600.0 / refine,
                                       expand=False)

    # gamma makes the count over the widened, refined grid equal the events
    total = predict_counts(model, grid(0.5, 2)).sum()
    assert total == pytest.approx(len(flat), rel=1e-12)
    assert abs(predict_counts(model, grid(0.25, 2)).sum() - len(flat)) > 10
    # the training error is the residual RMS on the widened, unrefined grid
    eps = predict_counts(model, grid(0.5, 1)) - grid_count(flat, grid(0.5, 1))
    rms = float(np.sqrt(np.mean(eps ** 2)))
    assert model.training_error == pytest.approx(rms, rel=1e-12)


def test_build_event_collapsed_axis_fails_loudly():
    # At the default eig_floor the density across the flat axis is too
    # narrow for the calibration grid's midpoints: the build refuses
    # with the axis and its value instead of falling back to gamma = 1.
    ev = pedestrian_events(4, 1200, 3)
    flat = Dataset(ev.times,
                   np.column_stack([ev.coords[:, 0], np.full(len(ev), 1.0)]),
                   None)
    cfg = BuildConfig(fit=FitConfig(n_clusters=2, seed=42), max_h=1,
                      auto_clusters=False)
    with pytest.raises(ValueError, match=r"^every training event has "
                                         r"x2 = 1\.0, "):
        build_event(flat, cfg)


def test_event_gamma_identity(event_model, event_data):
    # total predicted count over the training volume equals the event count
    w = event_model.window
    spec = GridSpec.from_cell_size(w.spatial_lo, w.spatial_hi, w.t_lo,
                                   w.t_hi, 0.25, 900.0, expand=False)
    total = predict_counts(event_model, spec).sum()
    assert total == pytest.approx(len(event_data), rel=0.02)


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip(tmp_path, daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=2, seed=42), max_h=2,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.gamma == model.gamma
    assert loaded.periods == model.periods
    assert loaded.mode == model.mode
    tq = np.linspace(0, 3 * DAY, 50)
    np.testing.assert_array_equal(loaded.predict(None, tq),
                                  model.predict(None, tq))
    assert model_to_dict(loaded) == model_to_dict(model)
    # Why EM stopped is kept in memory only.
    assert model.mixture.fit_log.stop in ("tol", "max_iter", "reverted")
    assert loaded.mixture.fit_log.stop is None
    assert "stop" not in model_to_dict(model)["fit"]


def test_event_model_round_trip(tmp_path, event_model):
    path = tmp_path / "event.json"
    save_model(event_model, path)
    loaded = load_model(path)
    x = np.array([[2.0, 1.0], [6.0, 3.0]])
    t = np.array([0.0, 7200.0])
    np.testing.assert_array_equal(density(loaded, x=x, t=t),
                                  density(event_model, x=x, t=t))


def test_model_dict_versioning(daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=0,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    payload = model_to_dict(model)

    bad = dict(payload)
    bad["format"] = "something-else"
    with pytest.raises(ValueError):
        model_from_dict(bad)

    bad = dict(payload)
    bad["version"] = 99
    with pytest.raises(ValueError):
        model_from_dict(bad)

    bad = json.loads(json.dumps(payload))
    bad["gamma"] = -1.0
    with pytest.raises(ValueError):
        model_from_dict(bad)

    bad = json.loads(json.dumps(payload))
    del bad["components"]
    with pytest.raises(ValueError):
        model_from_dict(bad)


@pytest.mark.parametrize("query, match", [
    (dict(x=[0.5], t=float("nan")), "query time t"),
    (dict(x=[[0.5], [0.5]], t=[0.0, float("inf")]), "query time t"),
    (dict(x=[float("nan")], t=0.0), "query coordinate x"),
    (dict(a=float("inf"), x=[0.5], t=0.0), "query value a"),
])
def test_queries_reject_non_finite_inputs_by_name(query, match):
    model = single_component_model(np.random.default_rng(8), 1, 1)
    call = density if "a" in query else predict_mean
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning from cos/sin first
        with pytest.raises(ValueError, match=f"{match} holds a non-finite"):
            call(model, **query)


@pytest.mark.parametrize("t", [np.zeros((3, 1)), [[0.0, 1.0]]])
def test_queries_refuse_times_of_more_than_one_dimension(t):
    model = single_component_model(np.random.default_rng(8), 0, 1)
    with pytest.raises(ValueError, match="^query time t must be a scalar "
                                         "or 1-D, got shape"):
        predict_mean(model, None, t)
    with pytest.raises(ValueError, match="^query time t must be"):
        density(model, a=np.zeros(3), t=t)


def _corrupt(payload, field, value):
    """Set the dotted/indexed path `field` (e.g. "components.0.weight")."""
    *path, last = field.split(".")
    node = payload
    for key in path:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value


@pytest.mark.parametrize("field, value, match", [
    ("components.0.mean.1", float("nan"), r"components\[0\]\.mean"),
    ("components.1.covariance.0.0", float("inf"),
     r"components\[1\]\.covariance"),
    ("spatial_stats.mean.0", float("nan"), r"spatial_stats\.mean"),
    ("window.t_hi", float("inf"), r"window\.t_hi"),
    ("components.1.weight", -0.2, r"components\[1\]\.weight"),
    ("components.2.weight", 0.0, r"components\[2\]\.weight"),
    ("spatial_stats.std.1", 0.0, r"spatial_stats\.std"),
    ("spatial_stats.std.0", -1.0, r"spatial_stats\.std"),
    ("periods", [-DAY], "periods"),
    ("periods", [float("inf")], "periods"),
    ("window.spatial_lo.0", 99.0, r"window\.spatial_lo"),
    # One entry per spatial dimension; the event model has two.
    ("spatial_stats.mean", [4.0], r"spatial_stats\.mean has shape \(1,\)"),
    ("spatial_stats.std", [1.0, 1.0, 1.0], r"spatial_stats\.std has shape"),
    ("window.spatial_lo", [0.0], r"window\.spatial_lo has shape"),
    ("window.spatial_hi", 9.0, r"window\.spatial_hi has shape"),
])
def test_model_from_dict_rejects_bad_field(event_model, field, value, match):
    bad = json.loads(json.dumps(model_to_dict(event_model)))
    _corrupt(bad, field, value)
    with pytest.raises(ValueError, match=match):
        model_from_dict(bad)


NAN = float("nan")
FIT_PAIRS = r"fit\.raw_eigenvalues must hold one \(min, max\) pair"
FIT_ITERATIONS = r"fit\.iterations must be a positive int equal to"
FIT_RESTARTS = r"fit\.restarts must be a non-negative int"
FIT_FALLBACK = r"fit\.diagonal_fallback must be a bool"


@pytest.mark.parametrize("edit, match", [
    (lambda fit, k: fit.update(raw_eigenvalues=[[NAN, 1.0]] * k),
     r"fit\.raw_eigenvalues holds a non-finite"),
    (lambda fit, k: fit.update(raw_eigenvalues=[]), FIT_PAIRS),
    (lambda fit, k: fit.update(raw_eigenvalues=[[1.0]] * k), FIT_PAIRS),
    (lambda fit, k: fit.update(raw_eigenvalues=[[1.0, 2.0]] * (k - 1)),
     FIT_PAIRS),
    (lambda fit, k: fit.update(raw_eigenvalues=[[2.0, 1.0]] * k), FIT_PAIRS),
    (lambda fit, k: fit.update(iterations=-3), FIT_ITERATIONS),
    (lambda fit, k: fit.update(iterations=0), FIT_ITERATIONS),
    (lambda fit, k: fit.update(iterations=fit["iterations"] + 1),
     FIT_ITERATIONS),
    (lambda fit, k: fit.update(iterations=float(fit["iterations"])),
     FIT_ITERATIONS),
    (lambda fit, k: fit.update(iterations=True, ll_trace=fit["ll_trace"][-1:]),
     FIT_ITERATIONS),
    (lambda fit, k: fit.update(ll_trace=[]), FIT_ITERATIONS),
    (lambda fit, k: fit.update(ll_trace=[fit["ll_trace"]]), FIT_ITERATIONS),
    (lambda fit, k: fit["ll_trace"].__setitem__(0, NAN),
     r"fit\.ll_trace holds a non-finite"),
    (lambda fit, k: fit.update(iterations=-3, ll_trace=[NAN]),
     r"fit\.ll_trace holds a non-finite"),
    (lambda fit, k: fit.update(log_likelihood=fit["log_likelihood"] + 1.0),
     r"fit\.log_likelihood must equal fit\.ll_trace\[-1\]"),
    (lambda fit, k: fit["ll_trace"].__setitem__(0, fit["ll_trace"][:2]),
     r"fit\.ll_trace must be numbers in a regular array"),
    (lambda fit, k: fit.update(restarts="x"), FIT_RESTARTS),
    (lambda fit, k: fit.update(restarts=-1), FIT_RESTARTS),
    (lambda fit, k: fit.update(restarts=1.0), FIT_RESTARTS),
    (lambda fit, k: fit.update(restarts=True), FIT_RESTARTS),
    (lambda fit, k: fit.update(diagonal_fallback="no"), FIT_FALLBACK),
    (lambda fit, k: fit.update(diagonal_fallback=0), FIT_FALLBACK),
], ids=["pair-nan", "no-pairs", "short-pair", "pair-missing", "min-above-max",
        "iterations-negative", "iterations-zero", "iterations-off-by-one",
        "iterations-float", "iterations-bool", "trace-empty", "trace-nested",
        "trace-nan", "negative-iterations-nan-trace", "likelihood-not-last",
        "trace-ragged", "restarts-string", "restarts-negative",
        "restarts-float", "restarts-bool", "fallback-string",
        "fallback-int"])
def test_model_from_dict_rejects_bad_fit_block(event_model, edit, match):
    # The fit block is checked like the rest of the payload, by name; a
    # NaN pair would make `detect_instability` call the fit stable.
    bad = json.loads(json.dumps(model_to_dict(event_model)))
    assert len(bad["fit"]["ll_trace"]) > 1
    edit(bad["fit"], len(bad["components"]))
    with pytest.raises(ValueError, match=match):
        model_from_dict(bad)


def test_model_from_dict_rejects_valued_mode_on_event_layout(event_model):
    bad = json.loads(json.dumps(model_to_dict(event_model)))
    bad["mode"] = "valued"
    with pytest.raises(ValueError, match=r"mode .* layout\.has_value"):
        model_from_dict(bad)


def test_model_from_dict_rejects_event_mode_on_valued_layout(daily_data):
    model = build(daily_data, BuildConfig(
        fit=FitConfig(n_clusters=1, seed=42), max_h=0, auto_clusters=False))
    bad = json.loads(json.dumps(model_to_dict(model)))
    bad["mode"] = "event"
    with pytest.raises(ValueError, match=r"mode .* layout\.has_value"):
        model_from_dict(bad)


def test_model_from_dict_rejects_weights_not_summing_to_one(event_model):
    bad = json.loads(json.dumps(model_to_dict(event_model)))
    for comp in bad["components"]:
        comp["weight"] *= 5.0
    with pytest.raises(ValueError, match="sum to"):
        model_from_dict(bad)
    # Rounding-level deviations from 1 still load.
    ok = json.loads(json.dumps(model_to_dict(event_model)))
    ok["components"][0]["weight"] += 1e-12
    model_from_dict(ok)


def test_model_from_dict_rejects_bad_covariance(event_model):
    payload = model_to_dict(event_model)
    cov = np.array(payload["components"][1]["covariance"])
    indefinite = json.loads(json.dumps(payload))
    indefinite["components"][1]["covariance"] = (
        cov - 2 * np.linalg.eigvalsh(cov).max() * np.eye(len(cov))).tolist()
    with pytest.raises(ValueError,
                       match=r"components\[1\]\.covariance is not positive"):
        model_from_dict(indefinite)
    skewed = json.loads(json.dumps(payload))
    skewed["components"][1]["covariance"][0][1] += 1e-3
    with pytest.raises(ValueError,
                       match=r"components\[1\]\.covariance is not symmetric"):
        model_from_dict(skewed)


def test_model_from_dict_rejects_non_positive_definite_value_variance(
        daily_data):
    model = build(daily_data, BuildConfig(
        fit=FitConfig(n_clusters=1, seed=42), max_h=1, auto_clusters=False))
    bad = json.loads(json.dumps(model_to_dict(model)))
    bad["components"][0]["covariance"][0][0] = -1.0
    with pytest.raises(ValueError, match=r"components\[0\]\.covariance"):
        model_from_dict(bad)


def test_save_model_is_atomic(tmp_path, daily_data):
    cfg = BuildConfig(fit=FitConfig(n_clusters=1, seed=42), max_h=0,
                      auto_clusters=False)
    model = build(daily_data, cfg)
    path = tmp_path / "m.json"
    save_model(model, path)
    assert path.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name != "m.json"]
    assert leftovers == []


def test_failed_save_model_leaves_the_old_file_and_no_temporary(
        tmp_path, daily_data, monkeypatch):
    model = build(daily_data, BuildConfig(
        fit=FitConfig(n_clusters=1, seed=42), max_h=0, auto_clusters=False))
    path = tmp_path / "m.json"
    path.write_text("old\n", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        save_model(model, path)
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]
    assert path.read_text(encoding="utf-8") == "old\n"


# ---------------------------------------------------------------------------
# model JSON round trip (property test)


def _random_payload(rng, valued, spatial_dim, n_periods, k, with_fit):
    """A valid model payload with every number drawn at random."""
    layout = DimensionLayout(valued, spatial_dim, n_periods)
    dim = layout.width
    weights = rng.uniform(0.1, 1.0, k)
    weights /= weights.sum()
    comps = []
    for w in weights:
        cov = random_spd(rng, dim, rng.uniform(0.1, 2.0))
        comps.append({"weight": float(w),
                      "mean": rng.normal(0, 1, dim).tolist(),
                      "covariance": (0.5 * (cov + cov.T)).tolist()})
    lo = rng.normal(0, 3, spatial_dim)
    trace = np.cumsum(rng.uniform(0, 5, int(rng.integers(1, 6)))) - 100.0
    eigs = np.sort(rng.uniform(1e-6, 3.0, (k, 2)), axis=1)
    periods = rng.choice(np.arange(1, 200) * 3600.0, n_periods, replace=False)
    return {
        "format": "hypertime-model", "version": 1,
        "mode": "valued" if valued else "event",
        "gamma": float(rng.uniform(1e-3, 1e3)),
        "gamma_fallback": bool(rng.integers(2)),
        "periods": periods.tolist(),
        "layout": {"has_value": valued, "spatial_dim": spatial_dim,
                   "n_periods": n_periods},
        "spatial_stats": {"mean": rng.normal(0, 3, spatial_dim).tolist(),
                          "std": rng.uniform(0.1, 4, spatial_dim).tolist()},
        "window": {"spatial_lo": lo.tolist(),
                   "spatial_hi": (lo + rng.uniform(0, 5,
                                                   spatial_dim)).tolist(),
                   "t_lo": float(rng.uniform(0, 1e6)),
                   "t_hi": float(rng.uniform(1e6, 1e8))},
        "training_error": float(rng.uniform(0, 2)),
        "components": comps,
        "fit": None if not with_fit else {
            "iterations": trace.size, "log_likelihood": float(trace[-1]),
            "ll_trace": trace.tolist(), "restarts": int(rng.integers(6)),
            "diagonal_fallback": bool(rng.integers(2)),
            "raw_eigenvalues": eigs.tolist()},
        "build_log": [{"h": h, "error": float(rng.uniform(0, 2)),
                       "period": None if h == 0 else periods[h - 1].item(),
                       "kept": True} for h in range(n_periods + 1)],
    }


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 2),
       st.integers(0, 3), st.integers(1, 4), st.booleans())
def test_model_json_round_trip_keeps_bytes_and_predictions(
        seed, valued, spatial_dim, n_periods, k, with_fit):
    assume(valued or spatial_dim + n_periods > 0)
    rng = np.random.default_rng(seed)
    model = model_from_dict(_random_payload(rng, valued, spatial_dim,
                                            n_periods, k, with_fit))
    n = 50
    t = rng.uniform(-1e6, 1e8, n)
    x = rng.normal(0, 3, (n, spatial_dim)) if spatial_dim else None
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (os.path.join(tmp, n) for n in ("a.json", "b.json"))
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    if valued:
        a = rng.normal(0, 2, n)
        np.testing.assert_array_equal(predict_mean(loaded, x, t),
                                      predict_mean(model, x, t))
        np.testing.assert_array_equal(density(loaded, a, x, t),
                                      density(model, a, x, t))
    else:
        np.testing.assert_array_equal(density(loaded, x=x, t=t),
                                      density(model, x=x, t=t))
