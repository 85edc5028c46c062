"""Non-uniform spectral analysis of residual series.

Works directly on irregularly sampled points: the Fourier coefficient of
a candidate period T over a series (t_i, e_i) of l entries is

    c = (1/l) * sum_i (e_i - mean(e)) * exp(-j*2*pi*t_i/T)

and its amplitude is |c|.  No resampling or FFT grid is involved, and
duplicate timestamps are legal.  One routine, `fourier_coefficients`,
computes the coefficients (n, K) of n centred rows on shared times from
one product of the rows with the cos/sin table of the phases 2*pi*t/T.
`spectrum`, `amplitude`, `spectral_sum` and `prominent_period` use its
one-row case; the per-cell FreMEn baselines use its rows and keep the
coefficients of each row's strongest periods.  The coefficient is
linear in the values, so the centred values of repeated timestamps are
summed per distinct time before the product; a series without repeated
timestamps passes through unchanged.

Candidates rank by amplitude, strongest first.  Amplitudes that agree to
about `TIE_RTOL` rank as equal (see `_ranking`) and the longer period
goes first: among equals, coarse structure wins over its own harmonics
and rounding noise does not pick.  A one-event count row over whole
weeks has every amplitude equal up to rounding, and ranks the week and
its first harmonics first.
Candidate periods default to the integer fractions of one week, which
covers the daily/weekly structure typical of human-driven environments.

The module holds one phase table, the cos and sin of the last (times,
candidates) pair: 2*l*K doubles for l distinct times and K candidates.
It is keyed by a private byte copy of both arrays; a call with equal
bytes reuses it and any other call replaces it, so no result depends on
earlier calls or on a caller changing its arrays later.
`prominent_period` ranks the whole candidate list and skips excluded
periods, so every step of a build reuses the first step's table.
"""

from dataclasses import dataclass, field

import numpy as np

DAY_SECONDS = 86400.0
WEEK_SECONDS = 604800.0
# Relative tolerance of a tie, shared by spectra and scores: amplitudes,
# or scores of parameters that predict alike, closer than this are equal.
TIE_RTOL = 1e-9


@dataclass
class ResidualSeries:
    """Scalar series on arbitrary timestamps (duplicates allowed)."""

    times: np.ndarray
    values: np.ndarray
    mean: float = field(init=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be 1-d and equally long")
        if self.times.shape[0] == 0:
            raise ValueError("empty series")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.values))):
            raise ValueError("non-finite entry in series")
        self.mean = float(self.values.mean())

    def __len__(self):
        return self.times.shape[0]


@dataclass(frozen=True)
class SpectrumResult:
    """Candidate periods with amplitudes, strongest first."""

    entries: tuple[tuple[float, float], ...]

    @property
    def periods(self) -> list[float]:
        return [p for p, _ in self.entries]

    @property
    def amplitudes(self) -> list[float]:
        return [a for _, a in self.entries]


def default_candidates(duration: float, longest: float = WEEK_SECONDS,
                       count: int = 168) -> list[float]:
    """Harmonic candidate set {longest/k : k = 1..count}.

    Periods longer than the observed `duration` are dropped (a cycle
    that never completes within the data cannot be told apart from a
    trend); pass ``duration=0`` to keep every harmonic.
    """
    if longest <= 0 or count < 1:
        raise ValueError("longest must be positive and count >= 1")
    periods = [longest / k for k in range(1, count + 1)]
    if duration > 0:
        periods = [p for p in periods if p <= duration]
    if not periods:
        raise ValueError("no candidate period fits within the duration")
    return periods


def _ranking(amps, periods) -> np.ndarray:
    """Candidate order along the last axis: amplitude descending, ties to
    the longer period.

    Amplitudes tie when their logs fall in one step of width `TIE_RTOL`,
    so they agree to about that relative tolerance; zeros tie with each
    other and rank last.
    """
    with np.errstate(divide="ignore"):
        level = np.floor(np.log(amps) / TIE_RTOL)
    periods = np.broadcast_to(np.asarray(periods, dtype=float), amps.shape)
    return np.lexsort((-periods, -level), axis=-1)


# (key, (cos, sin)) of the last phase table; see the module docstring.
_held = None


def _trig(times, periods) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos and sin of the phase table 2*pi*t/T, (l, K) each;
    cos/sin sums over it avoid complex temporaries."""
    global _held
    times, periods = (np.asarray(a, dtype=float) for a in (times, periods))
    key = (times.tobytes(), periods.tobytes())
    held = _held  # read once: a concurrent miss only rebuilds
    if held is not None and held[0] == key:
        return held[1]
    held = _held = None  # drop the old table before building
    phases = (2.0 * np.pi) * np.outer(times, 1.0 / periods)
    sin = np.sin(phases)
    table = np.cos(phases, out=phases), sin
    for arr in table:
        arr.flags.writeable = False
    _held = (key, table)
    return table


def fourier_coefficients(times, rows, periods) -> np.ndarray:
    """The coefficients c (n, K) of each centred row of `rows` (n, l) on
    the shared `times` at each candidate period, from one product with
    the phase table: ``(rows @ cos - j * rows @ sin) / l``.

    Repeated timestamps are summed per distinct time first; l stays the
    number of entries.
    """
    times = np.asarray(times, dtype=float)
    length = times.shape[0]
    distinct, inverse = np.unique(times, return_inverse=True)
    if distinct.shape[0] < length:
        times = distinct
        rows = np.array([np.bincount(inverse, weights=row,
                                     minlength=distinct.shape[0])
                         for row in rows])
    cos, sin = _trig(times, periods)
    return (rows @ cos - 1j * (rows @ sin)) / length


def _amplitudes(series: ResidualSeries, periods) -> np.ndarray:
    return np.abs(fourier_coefficients(
        series.times, (series.values - series.mean)[None], periods)[0])


def amplitude(series: ResidualSeries, period: float) -> float:
    """Spectral amplitude of one candidate period."""
    if not 0 < period < np.inf:
        raise ValueError("period must be positive and finite")
    return float(_amplitudes(series, [period])[0])


def spectrum(series: ResidualSeries, candidates) -> SpectrumResult:
    """Amplitudes of every candidate, sorted by descending amplitude.

    Amplitudes that agree to about `TIE_RTOL` tie and prefer the longer
    period (see `_ranking`).
    """
    candidates = _checked(candidates)
    amps = _amplitudes(series, candidates)
    order = _ranking(amps, candidates)
    return SpectrumResult(tuple((candidates[i], float(amps[i])) for i in order))


def prominent_period(series: ResidualSeries, candidates, exclude=()) -> float:
    """Most prominent candidate period not yet excluded, ranked among
    every candidate as `spectrum` ranks them.

    Raises ``ValueError`` when every candidate is excluded.
    """
    exclude = set(float(p) for p in exclude)
    candidates = _checked(candidates)
    if all(c in exclude for c in candidates):
        raise ValueError("all candidate periods are excluded")
    amps = _amplitudes(series, candidates)
    return next(candidates[i] for i in _ranking(amps, candidates)
                if candidates[i] not in exclude)


def spectral_sum(series: ResidualSeries, candidates) -> float:
    """Sum of amplitudes over the whole candidate set.

    Scales linearly with the residual magnitude, which makes it usable
    as a coarse how-much-structure-is-left score.
    """
    return float(_amplitudes(series, _checked(candidates)).sum())


def _checked(candidates) -> list[float]:
    candidates = [float(c) for c in candidates]
    if not candidates:
        raise ValueError("empty candidate set")
    if not all(0 < c < np.inf for c in candidates):
        raise ValueError("candidate periods must be positive and finite")
    return candidates
