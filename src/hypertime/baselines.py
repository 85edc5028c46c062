"""Reference predictors for temporal value series.

Three families, all ignoring spatial coordinates: a global mean, a
time-of-day histogram with n intervals, and a truncated spectral
reconstruction using the strongest candidate periods.  They share the
``predict(x, t)`` contract with the full spatio-temporal models so the
evaluation code can treat every method uniformly.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, VALUED
from .spectral import (DAY_SECONDS, ResidualSeries, default_candidates,
                       ranked_candidates, spectrum)


@dataclass(frozen=True)
class BaselineConfig:
    """Which family to build and its parameter."""

    kind: str = "mean"
    n_intervals: int = 1
    m_components: int = 0

    def __post_init__(self):
        if self.kind not in ("mean", "hist", "fremen"):
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        if self.m_components < 0:
            raise ValueError("m_components must be >= 0")


class MeanPredictor:
    """Predicts the global training average everywhere."""

    def __init__(self, mean: float):
        self.mean = float(mean)

    def predict(self, x, t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.full(tt.shape, self.mean)
        return float(out[0]) if np.ndim(t) == 0 else out


class HistPredictor:
    """Time-of-day histogram with n equal intervals.

    The interval of a query is ``floor(n * (t mod 86400) / 86400)``;
    intervals that saw no training data fall back to the global mean.
    """

    def __init__(self, n: int, interval_means: np.ndarray, global_mean: float):
        self.n = int(n)
        self.interval_means = np.asarray(interval_means, dtype=float)
        self.global_mean = float(global_mean)

    def predict(self, x, t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        out = self.interval_means[_interval(tt, self.n)]
        return float(out[0]) if np.ndim(t) == 0 else out


def _interval(times, n: int) -> np.ndarray:
    """Time-of-day interval of each time, out of n equal ones."""
    idx = np.floor(n * np.mod(times, DAY_SECONDS) / DAY_SECONDS)
    return np.clip(idx.astype(int), 0, n - 1)


class FremenPredictor:
    """Mean plus the m strongest periodic components of the training series.

    Stores one complex coefficient per kept period,
    ``c_k = (1/l) * sum_i (a_i - mean) * exp(-j*2*pi*t_i/T_k)``, and
    predicts ``mean + sum_k 2*Re(c_k * exp(+j*2*pi*t/T_k))``.
    """

    def __init__(self, mean: float, periods: np.ndarray, coefficients: np.ndarray):
        self.mean = float(mean)
        self.periods = np.asarray(periods, dtype=float)
        self.coefficients = np.asarray(coefficients, dtype=complex)

    def predict(self, x, t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        out = _fremen_values(np.array([self.mean]), self.periods[None],
                             self.coefficients[None], tt)[0]
        return float(out[0]) if np.ndim(t) == 0 else out


def _fremen_values(means, periods, coefs, query) -> np.ndarray:
    """``mean + sum_k 2*Re(c_k * exp(+j*2*pi*t/T_k))`` at `query` for each
    row of kept `periods` and `coefs` (n, m), as (n, q).  Each distinct
    period's cos/sin serve every row; terms add in each row's order."""
    out = np.repeat(means[:, None], query.shape[0], axis=1)
    distinct, which = np.unique(periods, return_inverse=True)
    phase = 2.0 * np.pi * query / distinct[:, None]
    cos, sin = np.cos(phase), np.sin(phase)
    which = which.reshape(periods.shape)
    for k in range(periods.shape[1]):
        coef = coefs[:, k, None]
        out += 2.0 * (coef.real * cos[which[:, k]]
                      - coef.imag * sin[which[:, k]])
    return out


def _require_valued(train: Dataset):
    if train.mode != VALUED:
        raise ValueError("baselines require a valued dataset")
    if len(train) == 0:
        raise ValueError("empty training set")


def mean_predictor(train: Dataset) -> MeanPredictor:
    _require_valued(train)
    return MeanPredictor(train.values.mean())


def hist_predictor(train: Dataset, n: int) -> HistPredictor:
    _require_valued(train)
    if n < 1:
        raise ValueError("n must be >= 1")
    means = _interval_means(train.times, train.values[None], n)[0]
    return HistPredictor(n, means, train.values.mean())


def _interval_means(times, rows, n: int) -> np.ndarray:
    """Time-of-day interval means (r, n) of each row of `rows` (r, l) on
    the shared `times`; an interval without data takes the row's mean.
    Per-interval `np.mean` keeps Hist_1 bitwise equal to the mean."""
    idx = _interval(times, n)
    means = np.repeat(rows.mean(axis=1)[:, None], n, axis=1)
    for b in np.unique(idx):
        means[:, b] = rows[:, idx == b].mean(axis=1)
    return means


def _fremen_candidates(duration: float, m: int, candidates) -> list[float]:
    if m < 0:
        raise ValueError("m must be >= 0")
    if candidates is None:
        candidates = default_candidates(duration)
    candidates = [float(c) for c in candidates]
    if m > len(candidates):
        raise ValueError("m exceeds the number of candidate periods")
    return candidates


def _coefficients(times, centered, kept) -> np.ndarray:
    """The c_k of each row of `centered` (n, l) at its kept periods (n, m).

    The cos/sin of each distinct kept period are computed once for all
    rows.
    """
    length = times.shape[0]
    coefs = np.empty(kept.shape, dtype=complex)
    for period in np.unique(kept):
        phase = 2.0 * np.pi * times / period
        cos, sin = np.cos(phase), np.sin(phase)
        for r, k in zip(*np.nonzero(kept == period)):
            re = float(np.dot(centered[r], cos)) / length
            im = -float(np.dot(centered[r], sin)) / length
            coefs[r, k] = complex(re, im)
    return coefs


def fremen_predictor(train: Dataset, m: int, candidates=None) -> FremenPredictor:
    _require_valued(train)
    candidates = _fremen_candidates(train.duration, m, candidates)
    mean = float(train.values.mean())
    if m == 0:
        return FremenPredictor(mean, np.empty(0), np.empty(0, dtype=complex))
    series = ResidualSeries(train.times, train.values)
    kept = np.asarray([p for p, _ in spectrum(series, candidates).entries[:m]])
    centered = train.values - mean
    coefs = _coefficients(train.times, centered[None, :], kept[None, :])
    return FremenPredictor(mean, kept, coefs[0])


class RowsPredictor:
    """One baseline fitted to each row of `rows` (n, l), every row a
    series on the shared `times`; `predict` returns (n, q).

    Row r predicts as ``make_baseline(Dataset(times, values=rows[r]), cfg,
    candidates)`` does, bit for bit when the rows hold counts, whose sums
    are exact in any order.  FreMEn rows are ranked over one phase table
    (`ranked_candidates`), and each distinct kept period's cos/sin serve
    every row.
    """

    def __init__(self, times, rows, cfg: BaselineConfig, candidates=None):
        times, rows = (np.asarray(a, dtype=float) for a in (times, rows))
        self.cfg = cfg
        self.means = rows.mean(axis=1)
        if cfg.kind == "hist":
            self.interval_means = _interval_means(times, rows,
                                                  cfg.n_intervals)
        elif cfg.kind == "fremen":
            m = cfg.m_components
            candidates = _fremen_candidates(float(times.max() - times.min()),
                                            m, candidates)
            centered = rows - self.means[:, None]
            kept = (ranked_candidates(times, centered, candidates)[:, :m]
                    if m else np.empty((len(rows), 0), int))
            self.periods = np.asarray(candidates)[kept]
            self.coefficients = _coefficients(times, centered, self.periods)

    def predict(self, x, t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        if self.cfg.kind == "hist":
            return self.interval_means[:, _interval(tt, self.cfg.n_intervals)]
        if self.cfg.kind == "mean":
            return np.repeat(self.means[:, None], tt.shape[0], axis=1)
        return _fremen_values(self.means, self.periods, self.coefficients, tt)


def make_baseline(train, cfg: BaselineConfig, candidates=None):
    """Build the predictor described by `cfg` for a valued Dataset, or a
    `RowsPredictor` for ``train = (times, rows)``."""
    if isinstance(train, tuple):
        return RowsPredictor(*train, cfg, candidates)
    if cfg.kind == "mean":
        return mean_predictor(train)
    if cfg.kind == "hist":
        return hist_predictor(train, cfg.n_intervals)
    return fremen_predictor(train, cfg.m_components, candidates)
