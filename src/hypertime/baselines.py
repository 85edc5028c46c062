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
        idx = np.floor(self.n * np.mod(tt, DAY_SECONDS) / DAY_SECONDS)
        idx = np.clip(idx.astype(int), 0, self.n - 1)
        out = self.interval_means[idx]
        return float(out[0]) if np.ndim(t) == 0 else out


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
        out = np.full(tt.shape, self.mean)
        for period, coef in zip(self.periods, self.coefficients):
            phase = 2.0 * np.pi * tt / period
            out += 2.0 * (coef.real * np.cos(phase) - coef.imag * np.sin(phase))
        return float(out[0]) if np.ndim(t) == 0 else out


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
    idx = np.floor(n * np.mod(train.times, DAY_SECONDS) / DAY_SECONDS)
    idx = np.clip(idx.astype(int), 0, n - 1)
    global_mean = float(train.values.mean())
    # Per-bin np.mean keeps Hist_1 bitwise equal to the global mean.
    means = np.full(n, global_mean)
    for b in range(n):
        mask = idx == b
        if mask.any():
            means[b] = train.values[mask].mean()
    return HistPredictor(n, means, global_mean)


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


def fremen_predictors(times, rows, m: int,
                      candidates=None) -> list[FremenPredictor]:
    """One FreMEn fit per row of `rows` (n, l), all on the shared `times`.

    All rows are ranked over one phase table (`ranked_candidates`), and
    each kept period's cos/sin are computed once for all rows, so every
    row gets exactly the fit ``fremen_predictor`` makes of it.
    """
    times = np.asarray(times, dtype=float)
    rows = np.asarray(rows, dtype=float)
    candidates = _fremen_candidates(float(times.max() - times.min()), m,
                                    candidates)
    means = rows.mean(axis=1)
    if m == 0:
        return [FremenPredictor(mean, np.empty(0), np.empty(0, dtype=complex))
                for mean in means]
    centered = rows - means[:, None]
    kept = ranked_candidates(times, centered, candidates)[:, :m]
    periods = np.asarray(candidates)[kept]
    coefs = _coefficients(times, centered, periods)
    return [FremenPredictor(*fit) for fit in zip(means, periods, coefs)]


def make_baseline(train: Dataset, cfg: BaselineConfig, candidates=None):
    """Build the predictor described by `cfg`."""
    if cfg.kind == "mean":
        return mean_predictor(train)
    if cfg.kind == "hist":
        return hist_predictor(train, cfg.n_intervals)
    return fremen_predictor(train, cfg.m_components, candidates)
