"""Non-uniform spectral analysis of residual series.

Works directly on irregularly sampled points: the amplitude of a
candidate period T over a series (t_i, e_i) is

    (1/l) * | sum_i (e_i - mean(e)) * exp(-j*2*pi*t_i/T) |

accumulated through real cos/sin sums, so no resampling or FFT grid is
involved and duplicate timestamps are legal.  The amplitude is linear in
the values, so the centred values of repeated timestamps are summed
before the phase sums, which then run over the distinct times only: an
event residual series repeats each temporal bin once per spatial cell.
A series without repeated timestamps passes through unchanged.
One routine, `_amplitudes`, serves one series and the many rows of the
per-cell FreMEn baselines alike, repeated timestamps included.
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
    the longer period so coarse structure wins over its own harmonics."""
    periods = np.broadcast_to(np.asarray(periods, dtype=float), amps.shape)
    return np.lexsort((-periods, -amps), axis=-1)


# (key, cos, sin) of the last phase table; see the module docstring.
_held = None


def _trig(times, periods) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos and sin of the phase table 2*pi*t/T, (l, K) each;
    cos/sin sums over it avoid complex temporaries."""
    global _held
    times, periods = (np.asarray(a, dtype=float) for a in (times, periods))
    key = (times.tobytes(), periods.tobytes())
    held = _held  # read once: a concurrent miss can only cost a rebuild
    if held is not None and held[0] == key:
        return held[1:]
    _held = held = None  # drop the old table before building the next
    phases = (2.0 * np.pi) * np.outer(times, 1.0 / periods)
    sin = np.sin(phases)
    cos = np.cos(phases, out=phases)
    cos.flags.writeable = sin.flags.writeable = False
    _held = (key, cos, sin)
    return cos, sin


def _amplitudes(times, rows, periods) -> np.ndarray:
    """Amplitudes (n, K) of each centred row of `rows` (n, l) on the same
    `times`, over one phase table.

    Each row is its own product with the table, the same 1-D @ 2-D call
    for one series or many; one (n, l) @ (l, K) product would sum in
    another order, and a sparse row whose candidates tie up to rounding
    (one event over whole weeks) would then rank them otherwise.
    """
    length = times.shape[0]
    distinct, inverse = np.unique(times, return_inverse=True)
    if distinct.shape[0] < length:
        times = distinct
        rows = [np.bincount(inverse, weights=row, minlength=distinct.shape[0])
                for row in rows]
    cos, sin = _trig(times, periods)
    re = np.array([row @ cos for row in rows])
    im = np.array([row @ sin for row in rows])
    return np.hypot(re, im) / length


def _phase_sums(series: ResidualSeries, periods) -> np.ndarray:
    return _amplitudes(series.times, [series.values - series.mean],
                       periods)[0]


def ranked_candidates(times, rows, periods) -> np.ndarray:
    """Candidate order, strongest first, of each of n centred series
    (rows, (n, l)) on the same timestamps, as indices (n, K); every row
    ranks as `spectrum` ranks it."""
    return _ranking(_amplitudes(times, rows, periods), periods)


def amplitude(series: ResidualSeries, period: float) -> float:
    """Spectral amplitude of one candidate period."""
    if period <= 0:
        raise ValueError("period must be positive")
    return float(_phase_sums(series, [period])[0])


def spectrum(series: ResidualSeries, candidates) -> SpectrumResult:
    """Amplitudes of every candidate, sorted by descending amplitude.

    Ties prefer the longer period (see `_ranking`).
    """
    candidates = _checked(candidates)
    amps = _phase_sums(series, candidates)
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
    amps = _phase_sums(series, candidates)
    return next(candidates[i] for i in _ranking(amps, candidates)
                if candidates[i] not in exclude)


def spectral_sum(series: ResidualSeries, candidates) -> float:
    """Sum of amplitudes over the whole candidate set.

    Scales linearly with the residual magnitude, which makes it usable
    as a coarse how-much-structure-is-left score.
    """
    return float(_phase_sums(series, _checked(candidates)).sum())


def _checked(candidates) -> list[float]:
    candidates = [float(c) for c in candidates]
    if not candidates:
        raise ValueError("empty candidate set")
    if any(c <= 0 for c in candidates):
        raise ValueError("candidate periods must be positive")
    return candidates
