"""Reference predictors for temporal value series.

Three families, all ignoring spatial coordinates: a global mean, a
time-of-day histogram with n intervals, and a truncated spectral
reconstruction using the strongest candidate periods.  There is one fit,
`RowsPredictor`, over the rows of counts or readings on shared
timestamps; a valued series is its one-row case.  They share the
``predict(x, t)`` contract with the full spatio-temporal models so the
evaluation code can treat every method uniformly.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, VALUED
# `spectrum` is unused here; perfbench/tracing.py still wraps this binding.
from .spectral import (DAY_SECONDS, _checked, default_candidates,
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


def _interval(times, n: int) -> np.ndarray:
    """Time-of-day interval of each time, out of n equal ones:
    ``floor(n * (t mod 86400) / 86400)``."""
    idx = np.floor(n * np.mod(times, DAY_SECONDS) / DAY_SECONDS)
    return np.clip(idx.astype(int), 0, n - 1)


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
    if candidates is None:
        candidates = default_candidates(duration)
    candidates = _checked(candidates)
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


class RowsPredictor:
    """One baseline fitted to each row of `rows` (n, l), every row a
    series on the shared `times`; `predict` returns (n, q).

    Mean predicts each row's average.  Hist predicts the row's mean over
    the query's time-of-day interval; intervals that saw no training data
    fall back to the row's mean.  FreMEn keeps each row's m strongest
    candidate periods (n, m) in `periods`, ranked over one phase table
    (`ranked_candidates`), with one complex coefficient per kept period,
    ``c_k = (1/l) * sum_i (a_i - mean) * exp(-j*2*pi*t_i/T_k)``, and
    predicts ``mean + sum_k 2*Re(c_k * exp(+j*2*pi*t/T_k))``; Mean is
    FreMEn without periods.
    """

    def __init__(self, times, rows, cfg: BaselineConfig, candidates=None):
        times, rows = (np.asarray(a, dtype=float) for a in (times, rows))
        self.cfg = cfg
        self.means = rows.mean(axis=1)
        self.periods = np.empty((len(rows), 0))
        self.coefficients = np.empty((len(rows), 0), dtype=complex)
        if cfg.kind == "hist":
            self.interval_means = _interval_means(times, rows,
                                                  cfg.n_intervals)
        elif cfg.kind == "fremen":
            m = cfg.m_components
            candidates = _fremen_candidates(float(times.max() - times.min()),
                                            m, candidates)
            if m:
                centered = rows - self.means[:, None]
                kept = ranked_candidates(times, centered, candidates)[:, :m]
                self.periods = np.asarray(candidates)[kept]
                self.coefficients = _coefficients(times, centered,
                                                  self.periods)

    def predict(self, x, t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        if self.cfg.kind == "hist":
            return self.interval_means[:, _interval(tt, self.cfg.n_intervals)]
        return _fremen_values(self.means, self.periods, self.coefficients, tt)


class _SeriesPredictor:
    """A valued Dataset's series as the one-row `RowsPredictor`;
    `predict` gives a float for a scalar t and ignores x."""

    def __init__(self, train: Dataset, cfg: BaselineConfig, candidates):
        if train.mode != VALUED:
            raise ValueError("baselines require a valued dataset")
        if len(train) == 0:
            raise ValueError("empty training set")
        self._rows = RowsPredictor(train.times, train.values[None], cfg,
                                   candidates)
        self.periods = self._rows.periods[0]

    def predict(self, x, t):
        out = self._rows.predict(x, t)[0]
        return float(out[0]) if np.ndim(t) == 0 else out


def mean_predictor(train: Dataset) -> _SeriesPredictor:
    return make_baseline(train, BaselineConfig("mean"))


def hist_predictor(train: Dataset, n: int) -> _SeriesPredictor:
    return make_baseline(train, BaselineConfig("hist", n_intervals=n))


def fremen_predictor(train: Dataset, m: int,
                     candidates=None) -> _SeriesPredictor:
    return make_baseline(train, BaselineConfig("fremen", m_components=m),
                         candidates)


def make_baseline(train, cfg: BaselineConfig, candidates=None):
    """Build the predictor described by `cfg`: a `RowsPredictor` for
    ``train = (times, rows)``, its one-row case for a valued Dataset."""
    if isinstance(train, tuple):
        return RowsPredictor(*train, cfg, candidates)
    return _SeriesPredictor(train, cfg, candidates)
