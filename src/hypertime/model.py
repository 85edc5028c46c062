"""Spatio-temporal mixture models over value, space, and circular time.

A model is a Gaussian mixture fitted to vectors ``(a, x, cos/sin ...)``
(value omitted for event data) together with a scaling factor gamma.
Periods enter one at a time: starting from a time-blind mixture, the
residual series is scanned for its most prominent period, the vectors
gain that period's circular pair, and the mixture is refitted.  The
loop keeps going while the training error drops and returns the last
model that improved.

Queries never integrate numerically: the expected reading marginalizes
the mixture in closed form over everything but the value dimension, and
gamma is calibrated so the training-set mean of those expectations
equals the mean observed reading exactly.  Event models instead
calibrate gamma so the predicted count over the training volume equals
the number of training events.

A queried cell of one midpoint per axis is one row: its count is the
density at its centre times its volume.  A query at a scalar time, or
one such cell, is built as one column and evaluated by the operations a
one-row batch makes, without the batch's blocks and repeated checks.
Grids and finer cells are boxes of spatial times temporal midpoints for
`MixtureModel.product_pdf`, and a cell's density is the mean over its
midpoints.  A collapsed spatial axis that leaves the calibration grid
without mass is an error.
"""

import json
import math
import operator
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import (FitConfig, FitLog, GaussianComponent, MixtureModel,
                         _logsumexp, em_fit_stable, km_fit)
from .dataset import EVENT, VALUED, Dataset, SpatialStats, standardize
from .evaluation import GridSpec, _clearly_lower, grid_count
from .projection import (TWO_PI, DimensionLayout, HypertimeProjection,
                         assemble, project_times)
from .spectral import (WEEK_SECONDS, ResidualSeries, default_candidates,
                       prominent_period, spectral_sum)
from .writer import write_text

MODEL_FORMAT = "hypertime-model"
MODEL_VERSION = 1
# Event gamma integrates the density on cells this many times finer, per
# axis, than the configured event grid.
_CALIBRATION_REFINE = 2
# Most (point, time) pairs evaluated at once on an event grid (a few MB).
_CHUNK = 65_536


@dataclass
class BuildConfig:
    """Everything the build loop needs besides the data."""

    fit: FitConfig = field(default_factory=FitConfig)
    max_h: int = 5
    longest_period: float = WEEK_SECONDS
    n_candidates: int = 168
    # None resolves per backend: the km route picks its cluster count
    # automatically, the em route takes it from `fit.n_clusters`.  Event
    # builds have no count search and refuse a config that asks for one.
    auto_clusters: bool | None = None
    cluster_cap: int = 10
    event_spatial_bin: float = 0.5
    event_temporal_bin: float = 1800.0

    def __post_init__(self):
        if self.max_h < 0:
            raise ValueError("max_h must be >= 0")
        if self.longest_period <= 0:
            raise ValueError("longest_period must be positive")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.cluster_cap < 1:
            raise ValueError("cluster_cap must be >= 1")
        if self.event_spatial_bin <= 0 or self.event_temporal_bin <= 0:
            raise ValueError("event grid bins must be positive")


@dataclass(frozen=True)
class TrainingWindow:
    """Bounding box of the training data (space and time)."""

    spatial_lo: np.ndarray
    spatial_hi: np.ndarray
    t_lo: float
    t_hi: float

    def __post_init__(self):
        object.__setattr__(self, "spatial_lo",
                           np.atleast_1d(np.asarray(self.spatial_lo, float)))
        object.__setattr__(self, "spatial_hi",
                           np.atleast_1d(np.asarray(self.spatial_hi, float)))

    @classmethod
    def of(cls, data: Dataset) -> "TrainingWindow":
        """The bounding box of `data`'s points and times."""
        return cls(data.coords.min(axis=0), data.coords.max(axis=0),
                   float(data.times.min()), float(data.times.max()))


@dataclass(frozen=True)
class BuildStep:
    """One build-loop iteration: error level and the period it added."""

    h: int
    error: float
    period: float | None
    kept: bool


@dataclass
class HypertimeModel:
    """Fitted mixture, its period set, and the calibration scale."""

    mixture: MixtureModel
    projection: HypertimeProjection
    layout: DimensionLayout
    gamma: float
    gamma_fallback: bool
    spatial_stats: SpatialStats
    mode: str
    window: TrainingWindow
    training_error: float = float("nan")
    build_log: list[BuildStep] = field(default_factory=list)

    @property
    def periods(self) -> tuple[float, ...]:
        return self.projection.periods

    def predict(self, x, t):
        """Expected reading; valued models only (see `predict_mean`)."""
        return predict_mean(self, x, t)


# ---------------------------------------------------------------------------
# queries


def _as_queries(model: HypertimeModel, x, t):
    """(coords, times, single): coords (d,) and `t` as a float if `t` is a
    scalar (`single`), else (n, d) and (n,); coords None if d is 0."""
    if isinstance(t, (int, float)) and math.isfinite(t):
        single, times = True, float(t)
    else:
        times = _finite(t, "query time t")
        if times.ndim > 1:
            raise ValueError("query time t must be a scalar or 1-D, got "
                             f"shape {times.shape}")
        single = times.ndim == 0
        times = float(times) if single else times
    d = model.layout.spatial_dim
    if d == 0:
        return None, times, single
    if x is None:
        raise ValueError("model has spatial dimensions; x is required")
    coords = _finite(x, "query coordinate x")
    if single:
        if coords.size != d:
            raise ValueError(f"expected {d} spatial coordinates")
        coords = coords.reshape(d)
    else:
        if coords.ndim == 1 and d == 1:
            coords = coords.reshape(-1, 1)
        if coords.shape != (times.size, d):
            raise ValueError("coordinate array does not match query times")
    return coords, times, single


def _rest_points(model: HypertimeModel, coords, times) -> np.ndarray:
    rest = project_times(times, model.projection)
    if not model.layout.spatial_dim:
        return rest
    std = (coords - model.spatial_stats.mean) / model.spatial_stats.std
    return np.concatenate((std, rest), axis=1)


def _require_mode(model: HypertimeModel, mode: str):
    if model.mode != mode:
        raise ValueError(f"operation requires a {mode} model, got {model.mode}")


def _query_column(model: HypertimeModel, coords, t: float) -> np.ndarray:
    """One query (coords (d,), t) as a column (rest, 1), by the operations
    of its row in `_rest_points`; a non-finite entry fails as in `logpdf`."""
    d, scaled = model.layout.spatial_dim, TWO_PI * t
    col = np.empty((d + 2 * model.projection.h, 1))
    if d:
        np.divide(np.subtract(coords, model.spatial_stats.mean),
                  model.spatial_stats.std, out=col[:d, 0])
    if not math.isfinite(scaled) or (d and not np.isfinite(col[:d]).all()):
        raise ValueError("cannot evaluate a Gaussian at a non-finite point")
    phase = np.divide(scaled, model.projection.period_array,
                      out=col[d + 1::2, 0])
    np.cos(phase, out=col[d::2, 0])
    np.sin(phase, out=phase)
    return col


def _column_pdf(model: HypertimeModel, col) -> float:
    """`model.mixture.pdf` at the one column `col` (dim, 1), by the same
    operations; the max shift needs no error state where it is finite."""
    with np.errstate(over="ignore"):  # too far to whiten: density 0
        table = model.mixture.core.log_joint(col)
    top = table.max(axis=0)
    if not math.isfinite(top[0]):
        return float(np.exp(_logsumexp(table))[0])
    exps = np.exp(np.subtract(table, top, out=table), out=table)
    return float(np.exp(np.log(exps.sum(axis=0)) + top)[0])


def density(model: HypertimeModel, a=None, x=None, t=0.0):
    """Scaled density gamma * sum_j w_j u_j at the query point(s).

    Valued models take (a, x, t); event models take (x, t) only.
    """
    coords, times, single = _as_queries(model, x, t)
    if model.mode == VALUED:
        if a is None:
            raise ValueError("valued models require the value a")
        av = np.atleast_1d(_finite(a, "query value a"))
        if av.shape != (1 if single else times.size,):
            raise ValueError("a does not match the query times")
    elif a is not None:
        raise ValueError("event models take no value argument")
    if single:
        col = _query_column(model, coords, times)
        col = col if a is None else np.concatenate(([av], col))
        return model.gamma * _column_pdf(model, col)
    pts = _rest_points(model, coords, times)
    if a is not None:
        pts = np.hstack([av.reshape(-1, 1), pts])
    return model.gamma * model.mixture.pdf(pts)


def predict_mean(model: HypertimeModel, x, t):
    """Expected reading at (x, t): gamma * sum_j w_j q_j(x,t) c_j(x,t)."""
    _require_mode(model, VALUED)
    coords, times, single = _as_queries(model, x, t)
    core = model.mixture.core
    if single:
        wq, c = core.value_parts(_query_column(model, coords, times))
        return model.gamma * float((wq * c).sum(axis=0)[0])
    unscaled, _ = core.value_terms(_rest_points(model, coords, times))
    return model.gamma * unscaled


def residuals(model: HypertimeModel, data: Dataset) -> ResidualSeries:
    """Prediction-minus-observation series, order preserving."""
    _require_mode(model, VALUED)
    if data.mode != VALUED:
        raise ValueError("residuals need valued data")
    preds = np.atleast_1d(predict_mean(model, data.coords, data.times))
    return ResidualSeries(data.times.copy(), preds - data.values)


# ---------------------------------------------------------------------------
# gamma calibration


def _calibrate_valued(model: HypertimeModel, train: Dataset):
    """(gamma, fallback, residuals): the residual values are
    `residuals(model, train).values` at the returned gamma."""
    rest = _rest_points(model, train.coords, train.times)
    unscaled, _ = model.mixture.core.value_terms(rest)
    denom = float(unscaled.sum())
    num = float(train.values.sum())
    if num == 0.0 and not np.any(train.values):
        warnings.warn("all training values are zero; gamma fixed to 1")
        gamma, fallback = 1.0, True
    else:
        gamma = num / denom if denom != 0.0 else np.inf
        fallback = not np.isfinite(gamma) or gamma <= 0.0
        if fallback:
            warnings.warn("degenerate calibration ratio; gamma fixed to 1")
            gamma = 1.0
    return gamma, fallback, gamma * unscaled - train.values


def training_grid(window: TrainingWindow, t_lo: float, t_hi: float,
                  spatial_edge: float, temporal_edge: float,
                  refine: int = 1) -> GridSpec:
    """Grid over the window's spatial box and the time span [t_lo, t_hi].

    Cells have edges ``spatial_edge / refine`` and ``temporal_edge /
    refine``, shrunk to divide the box evenly.  A spatial extent of zero
    width (every training point on one coordinate) is widened to one
    unrefined `spatial_edge`.
    """
    hi = np.where(window.spatial_hi > window.spatial_lo, window.spatial_hi,
                  window.spatial_lo + spatial_edge)
    return GridSpec.from_cell_size(
        window.spatial_lo, hi, t_lo, t_hi,
        spatial_edge / refine, temporal_edge / refine, expand=False,
    )


def _calibrate_event(model: HypertimeModel, n_events: int, cfg: BuildConfig):
    w = model.window
    spec = training_grid(w, w.t_lo, w.t_hi, cfg.event_spatial_bin,
                         cfg.event_temporal_bin, _CALIBRATION_REFINE)
    mass = float(_grid_means(model, spec).sum()) * spec.cell_volume
    if not np.isfinite(mass) or mass <= 0.0:
        flat = w.spatial_hi == w.spatial_lo
        if flat.any():
            k = int(np.argmax(flat))
            raise ValueError(
                f"every training event has x{k + 1} = "
                f"{float(w.spatial_lo[k])!r}, so the fitted density is too "
                "narrow across that axis to calibrate gamma; drop the "
                "constant column (or raise FitConfig.eig_floor)")
        warnings.warn("degenerate event mass; gamma fixed to 1")
        return 1.0, True
    return n_events / mass, False


def calibrate_gamma(model: HypertimeModel, train: Dataset,
                    cfg: BuildConfig | None = None) -> float:
    """Recompute the calibration scale of `model` against `train`.

    Valued: gamma matches the training-set mean expected reading to the
    mean observed reading.  Event: gamma matches the predicted count
    over the training window to the number of events, on the grid of
    `cfg`, the build's config.  Degenerate data (e.g. all-zero readings)
    falls back to gamma = 1 with a warning.
    """
    if train.mode != model.mode:
        raise ValueError("model and data modes differ")
    if model.mode == VALUED:
        return _calibrate_valued(model, train)[0]
    if cfg is None:
        raise ValueError("pass the event model's BuildConfig: it does not "
                         "record its event_spatial_bin and event_temporal_bin")
    return _calibrate_event(model, len(train), cfg)[0]


# ---------------------------------------------------------------------------
# event grids


def _cell_means(model: HypertimeModel, lo, hi, t0, t1, n_spatial,
                n_temporal: int, s: int) -> np.ndarray:
    """Mean (unscaled) mixture density per cell of B boxes, each box
    ``[lo[b], hi[b]) x [t0[b], t1[b])`` cut into `n_spatial` x
    `n_temporal` cells (shape ``(B, *n_spatial, n_temporal)``).

    A cell averages the density over `s` midpoints per axis.  A grid is
    one box, a batch of cells one box per cell; `_box_pdf` gives a box's
    densities in chunks of whole temporal cells of at most `_CHUNK`
    (point, time) pairs.
    """
    _require_mode(model, EVENT)
    n_box, d = lo.shape
    if d != model.layout.spatial_dim:
        raise ValueError("grid dimensionality does not match model")
    # Midpoint i of an axis with n cells sits at lo + (i + 1/2) * w / n / s,
    # for a grid and for a batch cell (n = 1) alike.
    n = np.asarray(n_spatial)
    mids = np.indices(n * s).reshape(d, math.prod(n_spatial) * s**d).T + 0.5
    coords = lo[:, None] + mids * ((hi - lo) / n / s)[:, None]
    t_axis = t0[:, None] + (np.arange(n_temporal * s) + 0.5) \
        * ((t1 - t0) / n_temporal / s)[:, None]
    n_pts = mids.shape[0]
    cells = max(1, min(n_temporal, _CHUNK // (n_pts * s)))
    boxes = max(1, _CHUNK // (n_pts * s * cells))
    out = np.empty((n_box, *n_spatial, n_temporal))
    for b0 in range(0, n_box, boxes):
        b = slice(b0, b0 + boxes)
        pdf = _box_pdf(model, coords[b], t_axis[b])
        for c0 in range(0, n_temporal, cells):
            dens = pdf(slice(c0 * s, (c0 + cells) * s))
            if s > 1:
                split = [k for n_k in n_spatial for k in (n_k, s)]
                dens = dens.reshape(len(dens), *split, -1, s).mean(
                    axis=tuple(range(2, 2 * d + 3, 2)))
            out[b, ..., c0:c0 + cells] = dens.reshape(len(dens), *n_spatial,
                                                      -1)
    return out


def _box_pdf(model: HypertimeModel, coords, t_axis):
    """``pdf(times)``: unscaled densities (B, P, t) of each box's points
    `coords` (B, P, d) paired with its times ``t_axis[:, times]``."""
    if coords.shape[1] > 1 and t_axis.shape[1] > 1:
        ht = project_times(t_axis.reshape(-1), model.projection)
        return model.mixture.product_pdf(
            (coords - model.spatial_stats.mean) / model.spatial_stats.std,
            ht.reshape(*t_axis.shape, -1))

    def pdf(times):  # one point or one time: nothing shared, so rows
        t = t_axis[:, None, times]
        shape = (*coords.shape[:2], t.shape[2])
        x = np.broadcast_to(coords[:, :, None], (*shape, coords.shape[2]))
        rows = _rest_points(model, x.reshape(math.prod(shape), -1),
                            np.broadcast_to(t, shape).reshape(-1))
        return model.mixture.pdf(rows).reshape(shape)
    return pdf


def _subsample(s) -> int:
    if hasattr(type(s), "__index__") and operator.index(s) >= 1:
        return operator.index(s)
    raise ValueError(f"subsample must be an integer >= 1, got {s!r}")


def predict_counts(model: HypertimeModel, spec: GridSpec,
                   subsample: int = 1) -> np.ndarray:
    """Predicted event count per grid cell (shape ``spec.shape``)."""
    return model.gamma * _grid_means(model, spec, subsample) * spec.cell_volume


def _grid_means(model: HypertimeModel, spec: GridSpec, s: int = 1):
    return _cell_means(model, spec.spatial_lo[None], spec.spatial_hi[None],
                       np.array([spec.t_lo]), np.array([spec.t_hi]),
                       spec.n_spatial, spec.n_temporal, _subsample(s))[0]


def predict_cell_count(model: HypertimeModel, spatial_bounds, t_bounds,
                       subsample: int = 1):
    """Predicted number of events inside spatio-temporal cells.

    One cell: `spatial_bounds` is a sequence of (lo, hi) per spatial
    dimension and `t_bounds` the (start, end) of the time slice; the
    count is returned as a float, with the same bits as the count of a
    one-cell batch.  A batch of B cells: `spatial_bounds` has shape (B,
    spatial_dim, 2) and `t_bounds` shape (B, 2); the counts are returned
    as an array of length B.  A cell's density is the mean over
    `subsample` (an int >= 1) midpoints per axis: at 1, its centre's.
    Cells of zero, negative or non-finite extent are rejected.
    """
    _require_mode(model, EVENT)
    s = _subsample(subsample)
    d = model.layout.spatial_dim
    tb = np.asarray(t_bounds, dtype=float)
    sb = np.asarray(spatial_bounds, dtype=float)
    if tb.ndim not in (1, 2) or tb.shape[-1] != 2:
        raise ValueError("t_bounds must hold one (start, end) pair per cell, "
                         f"got shape {tb.shape}")
    single = tb.ndim == 1
    if single:
        tb = tb.reshape(1, 2)
        sb = sb.reshape(1, -1, 2) if sb.size else np.empty((1, 0, 2))
    if sb.ndim != 3 or sb.shape[1:] != (d, 2):
        raise ValueError(f"cell bounds must have shape (cells, {d}, 2) to "
                         f"match the model, got {sb.shape}")
    if tb.shape[0] != sb.shape[0]:
        n = min(sb.shape[0], tb.shape[0])
        raise ValueError(f"t_bounds has shape {tb.shape} but there are "
                         f"{sb.shape[0]} cells; row {n} has no match")
    if single and s == 1:  # the batch's extents and centre, as floats
        volume, mid = 1.0, []
        for lo, hi in (*sb[0].tolist(), *tb.tolist()):
            volume = volume * (hi - lo) if hi - lo > 0 else math.nan
            mid.append(lo + 0.5 * (hi - lo))
        if volume < math.inf:  # else the checks below name the fault
            col = _query_column(model, mid[:d], mid[d])
            return model.gamma * _column_pdf(model, col) * volume
    box = np.concatenate((sb, tb[:, None]), axis=1)  # (B, d + 1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        extent = box[..., 1] - box[..., 0]
        volume = extent.prod(axis=1)
    ok = (extent.min(axis=1) > 0) & (volume < np.inf)  # NaN fails too
    if not ok.all():
        where = "" if single else f" {int(np.flatnonzero(~ok)[0])}"
        raise ValueError(f"cell{where} has zero, negative or non-finite extent")
    if s == 1:
        mid = box[..., 0] + 0.5 * extent
        means = model.mixture.pdf(_rest_points(model, mid[:, :d], mid[:, d]))
    else:
        means = _cell_means(model, box[:, :d, 0], box[:, :d, 1], box[:, d, 0],
                            box[:, d, 1], (1,) * d, 1, s).reshape(-1)
    counts = model.gamma * means * volume
    return float(counts[0]) if single else counts


# ---------------------------------------------------------------------------
# build loop


def _prepare(train: Dataset, cfg: BuildConfig):
    """Spatial stats, standardized data, training window and candidate
    periods shared by the build loop and cluster-count selection."""
    stats = (SpatialStats.from_dataset(train) if train.spatial_dim
             else SpatialStats.identity(0))
    window = TrainingWindow.of(train)
    try:
        candidates = default_candidates(train.duration, cfg.longest_period,
                                        cfg.n_candidates)
    except ValueError:
        # Data shorter than every candidate period: nothing periodic is
        # resolvable, so the search stops at h = 0.
        candidates = []
    return stats, standardize(train, stats), window, candidates


def _fit_mixture(vectors, layout, fitcfg: FitConfig) -> MixtureModel:
    if fitcfg.backend == "km":
        return km_fit(vectors, layout, fitcfg)
    return em_fit_stable(vectors, layout, fitcfg)


def _run_build(train: Dataset, cfg: BuildConfig,
               fitcfg: FitConfig) -> HypertimeModel:
    mode = train.mode
    stats, ds, window, candidates = _prepare(train, cfg)
    if mode == EVENT:
        ref_spec = training_grid(window, window.t_lo, window.t_hi,
                                 cfg.event_spatial_bin, cfg.event_temporal_bin)
        observed = grid_count(train, ref_spec)
    proj = HypertimeProjection()
    best = None
    log: list[BuildStep] = []
    period_added = None
    while True:
        vectors, layout = assemble(ds, proj)
        mixture = _fit_mixture(vectors, layout, fitcfg)
        cand = HypertimeModel(mixture, proj, layout, 1.0, False, stats,
                              mode, window)
        if mode == VALUED:
            cand.gamma, cand.gamma_fallback, eps = _calibrate_valued(cand,
                                                                     train)
            series = ResidualSeries(train.times, eps)
        else:
            cand.gamma, cand.gamma_fallback = _calibrate_event(
                cand, len(train), cfg)
            # The error is over every cell.  The spectrum runs on the
            # per-bin sums over the cells: their amplitudes are n_spatial
            # times those of all cells' residuals, so periods rank alike.
            eps = predict_counts(cand, ref_spec) - observed
            series = ResidualSeries(
                ref_spec.temporal_centers,
                eps.reshape(-1, ref_spec.n_temporal).sum(axis=0))
        err = float(np.sqrt(np.mean(eps ** 2)))
        if best is not None and err >= best.training_error:
            log.append(BuildStep(proj.h, err, period_added, kept=False))
            break
        cand.training_error = err
        log.append(BuildStep(proj.h, err, period_added, kept=True))
        best = cand
        if proj.h >= cfg.max_h or not candidates:
            break
        try:
            period_added = prominent_period(series, candidates,
                                            exclude=proj.periods)
        except ValueError:
            break
        proj = proj.extended(period_added)
    best.build_log = log
    return best


def _picks_cluster_count(cfg: BuildConfig) -> bool:
    """Whether `cfg` leaves the cluster count to `select_cluster_count`."""
    return (cfg.fit.backend == "km" if cfg.auto_clusters is None
            else cfg.auto_clusters)


def build(train: Dataset, cfg: BuildConfig | None = None) -> HypertimeModel:
    """Fit a valued model, discovering periods from the residual spectrum."""
    cfg = cfg or BuildConfig()
    if train.mode != VALUED:
        raise ValueError("build expects valued data; use build_event")
    if len(train) < 2:
        raise ValueError("need at least two records")
    fitcfg = cfg.fit
    if _picks_cluster_count(cfg):
        selection = select_cluster_count(train, cfg)
        fitcfg = replace(fitcfg, n_clusters=selection.chosen)
    return _run_build(train, cfg, fitcfg)


def build_event(train: Dataset, cfg: BuildConfig | None = None) -> HypertimeModel:
    """Fit an event-count model; the same loop on grid residuals."""
    cfg = cfg or BuildConfig()
    if train.mode != EVENT:
        raise ValueError("build_event expects event data; use build")
    if len(train) < 2:
        raise ValueError("need at least two records")
    if train.duration <= 0:
        raise ValueError("events span zero time")
    if _picks_cluster_count(cfg):
        raise ValueError("event models need a fixed cluster count: "
                         "set auto_clusters=False")
    return _run_build(train, cfg, cfg.fit)


@dataclass(frozen=True)
class ClusterCountSelection:
    """Scores of the tried cluster counts and the accepted one."""

    pairs: list[tuple[int, float]]
    chosen: int


def select_cluster_count(train: Dataset,
                         cfg: BuildConfig | None = None) -> ClusterCountSelection:
    """Pick the mixture size for the k-means route at h = 0.

    Grows n while the residual spectral sum keeps falling by more than
    a tie (`spectral.TIE_RTOL`), i.e. while an extra cluster removes
    temporal structure (or overall magnitude) from the residuals; stops
    at the first non-improvement or at ``cfg.cluster_cap``.
    """
    cfg = cfg or BuildConfig()
    if train.mode != VALUED:
        raise ValueError("cluster-count selection needs valued data")
    cap = min(cfg.cluster_cap, len(train))
    stats, ds, window, candidates = _prepare(train, cfg)
    vectors, layout = assemble(ds, HypertimeProjection())

    def score(n: int) -> float:
        fitcfg = replace(cfg.fit, n_clusters=n, backend="km")
        mixture = km_fit(vectors, layout, fitcfg)
        model = HypertimeModel(mixture, HypertimeProjection(), layout, 1.0,
                               False, stats, VALUED, window)
        eps = _calibrate_valued(model, train)[2]
        return spectral_sum(ResidualSeries(train.times, eps), candidates)

    pairs = [(1, score(1))]
    chosen = 1
    for m in range(2, cap + 1):
        pairs.append((m, score(m)))
        if _clearly_lower(pairs[-1][1], pairs[-2][1]):
            chosen = m
        else:
            break
    return ClusterCountSelection(pairs, chosen)


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(model: HypertimeModel) -> dict:
    log = model.mixture.fit_log
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "mode": model.mode,
        "gamma": model.gamma,
        "gamma_fallback": model.gamma_fallback,
        "periods": [float(p) for p in model.projection.periods],
        "layout": {
            "has_value": model.layout.has_value,
            "spatial_dim": model.layout.spatial_dim,
            "n_periods": model.layout.n_periods,
        },
        "spatial_stats": {
            "mean": model.spatial_stats.mean.tolist(),
            "std": model.spatial_stats.std.tolist(),
        },
        "window": {
            "spatial_lo": model.window.spatial_lo.tolist(),
            "spatial_hi": model.window.spatial_hi.tolist(),
            "t_lo": model.window.t_lo,
            "t_hi": model.window.t_hi,
        },
        "training_error": model.training_error,
        "components": [
            {
                "weight": c.weight,
                "mean": c.mean.tolist(),
                "covariance": c.covariance.tolist(),
            }
            for c in model.mixture.components
        ],
        "fit": None if log is None else {
            "iterations": log.iterations,
            "log_likelihood": log.log_likelihood,
            "ll_trace": list(log.ll_trace),
            "restarts": log.restarts,
            "diagonal_fallback": log.diagonal_fallback,
            "raw_eigenvalues": log.raw_eigenvalues,
        },
        "build_log": [
            {"h": s.h, "error": s.error, "period": s.period, "kept": s.kept}
            for s in model.build_log
        ],
    }


def model_from_dict(payload: dict) -> HypertimeModel:
    try:
        if payload["format"] != MODEL_FORMAT:
            raise ValueError(f"unrecognized format {payload['format']!r}")
        if payload["version"] != MODEL_VERSION:
            raise ValueError(f"unsupported version {payload['version']!r}")
        layout = DimensionLayout(**payload["layout"])
        comps = [
            GaussianComponent(
                float(_finite(c["weight"], f"components[{j}].weight")),
                _finite(c["mean"], f"components[{j}].mean"),
                _finite(c["covariance"], f"components[{j}].covariance"))
            for j, c in enumerate(payload["components"])
        ]
        _check_components(comps)
        fit = payload.get("fit")
        mixture = MixtureModel(comps, layout,
                               None if fit is None else _fit_log(fit, comps))
        mixture.core  # factoring is the positive-definiteness check
        st, win = payload["spatial_stats"], payload["window"]
        d = layout.spatial_dim
        std = _per_dim(st["std"], "spatial_stats.std", d)
        if np.any(std <= 0):
            raise ValueError("spatial_stats.std must be positive")
        stats = SpatialStats(_per_dim(st["mean"], "spatial_stats.mean", d),
                             std)
        lo = _per_dim(win["spatial_lo"], "window.spatial_lo", d)
        hi = _per_dim(win["spatial_hi"], "window.spatial_hi", d)
        if np.any(lo > hi):
            raise ValueError("window.spatial_lo exceeds window.spatial_hi")
        window = TrainingWindow(lo, hi,
                                float(_finite(win["t_lo"], "window.t_lo")),
                                float(_finite(win["t_hi"], "window.t_hi")))
        gamma = float(payload["gamma"])
        if not np.isfinite(gamma) or gamma <= 0:
            raise ValueError("gamma must be finite and positive")
        model = HypertimeModel(
            mixture,
            HypertimeProjection(tuple(
                _finite(payload["periods"], "periods").tolist())),
            layout, gamma, bool(payload["gamma_fallback"]), stats,
            payload["mode"], window,
            training_error=float(payload["training_error"]),
            build_log=[
                BuildStep(s["h"], s["error"], s["period"], s["kept"])
                for s in payload["build_log"]
            ],
        )
    except KeyError as exc:
        raise ValueError(f"model payload missing key {exc}") from None
    if model.mode not in (VALUED, EVENT):
        raise ValueError(f"unknown mode {model.mode!r}")
    if (model.mode == VALUED) != model.layout.has_value:
        raise ValueError(f"mode {model.mode!r} disagrees with "
                         f"layout.has_value={model.layout.has_value}")
    if model.layout.n_periods != len(model.projection.periods):
        raise ValueError("layout and period list disagree")
    return model


def _fit_log(fit, comps) -> FitLog:
    """The `fit` block of a model payload with `comps`, checked."""
    trace = _finite(fit["ll_trace"], "fit.ll_trace")
    n = fit["iterations"]
    if trace.ndim != 1 or type(n) is not int or not 0 < n == trace.size:
        raise ValueError("fit.iterations must be a positive int equal to "
                         "the length of the list fit.ll_trace")
    trace = trace.tolist()
    if fit["log_likelihood"] != trace[-1]:
        raise ValueError("fit.log_likelihood must equal fit.ll_trace[-1]")
    raw = fit.get("raw_eigenvalues")
    if raw is not None:
        raw = _finite(raw, "fit.raw_eigenvalues")
        if raw.shape != (len(comps), 2) or np.any(raw[:, 0] > raw[:, 1]):
            raise ValueError("fit.raw_eigenvalues must hold one (min, max) "
                             "pair with min <= max per component")
        raw = [tuple(pair) for pair in raw.tolist()]
    restarts, fallback = fit["restarts"], fit["diagonal_fallback"]
    if type(restarts) is not int or restarts < 0:
        raise ValueError("fit.restarts must be a non-negative int")
    if type(fallback) is not bool:
        raise ValueError("fit.diagonal_fallback must be a bool")
    return FitLog(n, trace[-1], trace, restarts, fallback, raw)


def _finite(values, name) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numbers in a regular array") \
            from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} holds a non-finite number")
    return arr


def _per_dim(values, name, d) -> np.ndarray:
    """`values` as one finite entry per spatial dimension."""
    arr = np.atleast_1d(_finite(values, name))
    if arr.shape != (d,):
        raise ValueError(f"{name} has shape {arr.shape}; the layout has "
                         f"{d} spatial dimensions")
    return arr


def _check_components(comps) -> None:
    for j, c in enumerate(comps):
        if not c.weight > 0:
            raise ValueError(f"components[{j}].weight must be positive")
        if not np.array_equal(c.covariance, c.covariance.T):
            raise ValueError(f"components[{j}].covariance is not symmetric")
    total = sum(c.weight for c in comps)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"component weights sum to {total!r}, not 1")


def save_model(model: HypertimeModel, path) -> None:
    """Write the model as versioned JSON (write-then-rename)."""
    text = json.dumps(model_to_dict(model), indent=2, sort_keys=True)
    write_text(path, text + "\n", force=True)


def load_model(path) -> HypertimeModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
