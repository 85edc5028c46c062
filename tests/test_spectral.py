"""Spectral analysis against a literal brute-force oracle."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertime import (
    DAY_SECONDS,
    ResidualSeries,
    WEEK_SECONDS,
    amplitude,
    default_candidates,
    prominent_period,
    spectral_sum,
    spectrum,
)
from hypertime.spectral import TIE_RTOL, _ranking, fourier_coefficients


def brute_amplitude(times, values, period):
    """Per-element evaluation of the centered exponential sum."""
    mean = sum(values) / len(values)
    acc = 0j
    for t, v in zip(times, values):
        acc += (v - mean) * cmath.exp(-2j * cmath.pi * t / period)
    return abs(acc) / len(values)


def random_series(rng, n):
    t = np.sort(rng.uniform(0, 30 * DAY_SECONDS, n))
    v = rng.normal(0, 1, n) + np.cos(2 * np.pi * t / DAY_SECONDS)
    return ResidualSeries(t, v)


def test_series_validation():
    with pytest.raises(ValueError):
        ResidualSeries(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        ResidualSeries(np.array([]), np.array([]))
    s = ResidualSeries(np.array([0.0, 1.0]), np.array([2.0, 4.0]))
    assert s.mean == pytest.approx(3.0)


def test_default_candidates_formula():
    np.testing.assert_allclose(default_candidates(0.0, 604800.0, 2),
                               [604800.0, 302400.0])
    np.testing.assert_allclose(default_candidates(0.0, 86400.0, 1), [86400.0])


def test_default_candidates_contains_day_and_four_hours():
    cand = default_candidates(0.0, WEEK_SECONDS, 42)
    assert 86400.0 in cand
    assert 14400.0 in cand


def test_default_candidates_duration_filter():
    cand = default_candidates(3 * DAY_SECONDS, WEEK_SECONDS, 168)
    assert max(cand) <= 3 * DAY_SECONDS
    # zero duration keeps all harmonics
    assert len(default_candidates(0.0, WEEK_SECONDS, 168)) == 168


def test_amplitude_constant_series_is_zero():
    s = ResidualSeries(np.linspace(0, 1e6, 100), np.full(100, 3.7))
    for period in (3600.0, DAY_SECONDS, WEEK_SECONDS):
        assert amplitude(s, period) == pytest.approx(0.0, abs=1e-12)


def test_amplitude_of_matched_cosine():
    t = np.linspace(0, 10 * DAY_SECONDS, 1000, endpoint=False)
    s = ResidualSeries(t, np.cos(2 * np.pi * t / DAY_SECONDS))
    assert amplitude(s, DAY_SECONDS) == pytest.approx(0.5, abs=0.02)
    assert amplitude(s, WEEK_SECONDS) < 0.1


def test_amplitude_matches_brute_force():
    rng = np.random.default_rng(17)
    for n in (1, 2, 37, 250, 500):
        s = random_series(rng, n)
        for period in (3600.0, 5000.0, DAY_SECONDS, WEEK_SECONDS):
            expect = brute_amplitude(s.times, s.values, period)
            assert amplitude(s, period) == pytest.approx(expect, abs=1e-9)


def test_spectrum_sorted_and_complete():
    rng = np.random.default_rng(4)
    s = random_series(rng, 300)
    cand = default_candidates(s.times[-1] - s.times[0], WEEK_SECONDS, 50)
    result = spectrum(s, cand)
    amps = [a for _, a in result.entries]
    assert len(result.entries) == len(cand)
    assert all(amps[i] >= amps[i + 1] for i in range(len(amps) - 1))
    assert result.entries[0][0] == DAY_SECONDS


def test_spectrum_tie_break_prefers_larger_period():
    s = ResidualSeries(np.array([0.0]), np.array([5.0]))
    result = spectrum(s, [100.0, 200.0, 50.0])
    assert all(a == 0.0 for _, a in result.entries)
    assert [p for p, _ in result.entries] == [200.0, 100.0, 50.0]


def test_prominent_period_and_exclusion():
    t = np.linspace(0, 21 * DAY_SECONDS, 2000, endpoint=False)
    s = ResidualSeries(t, np.cos(2 * np.pi * t / DAY_SECONDS))
    cand = default_candidates(21 * DAY_SECONDS, WEEK_SECONDS, 168)
    assert prominent_period(s, cand, set()) == DAY_SECONDS
    second = prominent_period(s, cand, {DAY_SECONDS})
    assert second != DAY_SECONDS
    assert second in cand
    with pytest.raises(ValueError):
        prominent_period(s, [100.0], {100.0})


def test_spectral_sum():
    t = np.linspace(0, 10 * DAY_SECONDS, 500, endpoint=False)
    s = ResidualSeries(t, np.cos(2 * np.pi * t / DAY_SECONDS))
    cand = [DAY_SECONDS, WEEK_SECONDS]
    total = spectral_sum(s, cand)
    assert total == pytest.approx(
        amplitude(s, DAY_SECONDS) + amplitude(s, WEEK_SECONDS), abs=1e-12)
    assert spectral_sum(s, [DAY_SECONDS]) == pytest.approx(
        amplitude(s, DAY_SECONDS), abs=1e-15)
    doubled = ResidualSeries(t, 2 * s.values)
    assert spectral_sum(doubled, cand) == pytest.approx(2 * total, rel=1e-12)


def test_single_sample_spectrum_is_flat_zero():
    s = ResidualSeries(np.array([123.0]), np.array([9.0]))
    result = spectrum(s, [60.0, 3600.0])
    assert all(a == 0.0 for _, a in result.entries)


def ungrouped_amplitudes(times, values, periods):
    """The phase sums over every entry, one table row per entry."""
    centered = values - values.mean()
    phases = 2 * np.pi * np.outer(times, 1.0 / np.asarray(periods))
    re, im = centered @ np.cos(phases), centered @ np.sin(phases)
    return np.hypot(re, im) / len(values)


def test_grouped_spectrum_matches_brute_force_on_repeated_times():
    rng = np.random.default_rng(23)
    cand = [3600.0, 5000.0, 4 * 3600.0, DAY_SECONDS, WEEK_SECONDS]
    for n, distinct in ((2, 1), (40, 7), (300, 50)):
        grid = rng.uniform(0, 30 * DAY_SECONDS, distinct)
        t = rng.choice(grid, n)  # unsorted, with repeats
        v = rng.normal(0, 1, n) + np.cos(2 * np.pi * t / DAY_SECONDS)
        s = ResidualSeries(t, v)
        assert np.unique(t).size < n
        expect = {p: brute_amplitude(t, v, p) for p in cand}
        for p in cand:
            assert amplitude(s, p) == pytest.approx(expect[p], rel=1e-12,
                                                    abs=1e-15)
        for p, a in spectrum(s, cand).entries:
            assert a == pytest.approx(expect[p], rel=1e-12, abs=1e-15)


def test_grouped_spectrum_on_tiled_event_residual_layout():
    # An event residual grid holds the bin centres once per spatial cell
    rng = np.random.default_rng(5)
    centres = (np.arange(96) + 0.5) * 3600.0
    cells = 20
    t = np.tile(centres, cells)
    v = (rng.poisson(0.3, t.size)
         - 0.3 * (1 + np.cos(2 * np.pi * t / DAY_SECONDS)))
    s = ResidualSeries(t, v)
    cand = default_candidates(4 * DAY_SECONDS, WEEK_SECONDS, 24)
    for p, a in spectrum(s, cand).entries:
        assert a == pytest.approx(brute_amplitude(t, v, p), rel=1e-12)
    direct = ungrouped_amplitudes(t, v, cand)
    np.testing.assert_allclose(
        [amplitude(s, p) for p in cand], direct, rtol=1e-12)
    exclude = set()
    for _ in range(3):
        kept = [c for c in cand if c not in exclude]
        amps = ungrouped_amplitudes(t, v, kept)
        best = max(range(len(kept)), key=lambda i: (amps[i], kept[i]))
        assert prominent_period(s, cand, exclude) == kept[best]
        exclude.add(kept[best])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 300),
       st.booleans(), st.sampled_from([1e-3, 1.0, 1e3]))
def test_grouped_spectrum_equals_the_ungrouped_sums(seed, distinct, extra,
                                                    binned, scale):
    # Every series has a repeated time, so its sums are grouped per
    # distinct time; `binned` puts the times on bin centres, as on an
    # event residual grid.
    rng = np.random.default_rng(seed)
    grid = ((rng.permutation(96)[:distinct] + 0.5) * 3600.0 if binned
            else rng.uniform(0.0, 30 * DAY_SECONDS, distinct))
    t = rng.choice(grid, distinct + extra)
    v = scale * (rng.normal(0.0, 1.0, t.size)
                 + np.cos(2 * np.pi * t / DAY_SECONDS))
    cand = [3600.0, 5000.0, 4 * 3600.0, DAY_SECONDS, WEEK_SECONDS]
    got = dict(spectrum(ResidualSeries(t, v), cand).entries)
    direct = ungrouped_amplitudes(t, v, cand)
    for p, a in zip(cand, direct):
        assert got[p] == pytest.approx(a, rel=1e-12, abs=1e-15 * scale)


def fresh_coefficients(times, rows, periods):
    """`fourier_coefficients` written out over a fresh cos/sin table: the
    grouping of repeated timestamps and the one product."""
    times, rows = np.asarray(times, float), np.asarray(rows, float)
    length = times.size
    distinct, inverse = np.unique(times, return_inverse=True)
    if distinct.size < length:
        times = distinct
        rows = np.array([np.bincount(inverse, weights=row,
                                     minlength=distinct.size)
                         for row in rows])
    phases = (2.0 * np.pi) * np.outer(times, 1.0 / np.asarray(periods, float))
    return (rows @ np.cos(phases) - 1j * (rows @ np.sin(phases))) / length


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_direct(times, values, cand):
    s = ResidualSeries(times, values)
    centered = (np.asarray(values, float) - s.mean)[None]
    amps = np.abs(fresh_coefficients(times, centered, cand)[0])
    order = _ranking(amps, cand)
    assert spectrum(s, cand).entries == tuple(
        (float(cand[i]), float(amps[i])) for i in order)
    assert spectral_sum(s, cand) == float(amps.sum())


def test_phase_table_reuse_is_bit_exact_on_hits_and_misses():
    rng = np.random.default_rng(31)
    t = np.sort(rng.uniform(0, 20 * DAY_SECONDS, 400))
    t2 = t + 450.0
    repeated = np.tile(t[:50], 8)
    cand = default_candidates(20 * DAY_SECONDS, WEEK_SECONDS, 60)
    other = default_candidates(20 * DAY_SECONDS, WEEK_SECONDS, 40)
    # Hits and misses: other candidates on the same times, other times
    # with the same candidates, and repeated timestamps, whose 50 distinct
    # times key the table.
    for times, c in ((t, cand), (t, cand), (t, other), (t, cand), (t2, cand),
                     (repeated, cand), (repeated, cand), (t, cand)):
        assert_direct(times, rng.normal(0, 1, times.size), c)
    rows = rng.poisson(0.5, (6, t.size)).astype(float)
    rows -= rows.mean(axis=1, keepdims=True)
    for times, c in ((t, cand), (t, cand), (t2, cand), (t, other),
                     (repeated, cand)):
        assert_same_bits(fourier_coefficients(times, rows, c),
                         fresh_coefficients(times, rows, c))
        assert_direct(times, rows[0], c)


def test_call_bits_do_not_depend_on_earlier_calls():
    rng = np.random.default_rng(8)
    s = random_series(rng, 300)
    cand = default_candidates(30 * DAY_SECONDS, WEEK_SECONDS, 80)
    first = spectrum(s, cand), spectral_sum(s, cand), amplitude(s, 3600.0)
    spectrum(random_series(rng, 120), cand)
    spectrum(s, cand[:20])
    fourier_coefficients(s.times, np.ones((2, len(s))), cand)
    assert (spectrum(s, cand), spectral_sum(s, cand),
            amplitude(s, 3600.0)) == first


def test_caller_mutation_never_yields_a_stale_table():
    rng = np.random.default_rng(12)
    t = np.sort(rng.uniform(0, 10 * DAY_SECONDS, 200))
    v = rng.normal(0, 1, t.size)
    cand = np.array(default_candidates(10 * DAY_SECONDS, WEEK_SECONDS, 30))
    rows = rng.normal(0, 1, (3, t.size))
    s = ResidualSeries(t, v)
    spectrum(s, cand)
    assert s.times is t  # the series shares the caller's array
    t[::2] += 900.0
    assert_direct(t, v, cand)
    fourier_coefficients(t, rows, cand)
    cand[3] *= 1.5
    assert_same_bits(fourier_coefficients(t, rows, cand),
                     fresh_coefficients(t, rows, cand))
    t[5] += 60.0
    assert_same_bits(fourier_coefficients(t, rows, cand),
                     fresh_coefficients(t, rows, cand))


def test_ranking_ties_amplitudes_within_tie_rtol_to_the_longer_period():
    # Amplitudes a fraction of TIE_RTOL apart, around a level in the
    # middle of one step of the tie, rank longest first.
    base = np.exp(0.5 * TIE_RTOL - 3.0)
    amps = base * np.array([1.0, 1.0 + 0.3 * TIE_RTOL, 1.0 - 0.3 * TIE_RTOL,
                            1.0 + 1e-15])
    assert list(_ranking(amps, [3600.0, 7200.0, 1800.0, DAY_SECONDS])) \
        == [3, 1, 0, 2]
    # A one-event cell over two whole weeks: 1/672 up to rounding.
    amps = np.array([0.0014880952380952443, 0.0014880952380952417,
                     1 / 672])
    periods = [WEEK_SECONDS / 3, WEEK_SECONDS, WEEK_SECONDS / 2]
    assert list(_ranking(amps, periods)) == [1, 2, 0]


def test_ranking_orders_amplitudes_further_apart_by_amplitude():
    amps = np.array([1.0, 1.0 + 10 * TIE_RTOL, 0.5, 2.0])
    assert list(_ranking(amps, [400.0, 100.0, 300.0, 50.0])) == [3, 1, 0, 2]


def test_ranking_of_an_all_zero_row_is_longest_first():
    amps = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
    np.testing.assert_array_equal(_ranking(amps, [60.0, 3600.0, 600.0]),
                                  [[1, 2, 0], [2, 0, 1]])


def subset_prominent_period(series, candidates, exclude=()):
    """`prominent_period` as it ranked before the shared table: the
    spectrum of the candidates left after exclusion."""
    exclude = set(float(p) for p in exclude)
    remaining = [c for c in candidates if float(c) not in exclude]
    if not remaining:
        raise ValueError("all candidate periods are excluded")
    return spectrum(series, remaining).entries[0][0]


def test_prominent_period_matches_subset_ranking():
    rng = np.random.default_rng(2024)
    for trial in range(24):
        n = int(rng.integers(20, 400))
        t = np.sort(rng.uniform(0, 14 * DAY_SECONDS, n))
        if trial % 3 == 0:
            t = np.round(t / 3600.0) * 3600.0  # repeated timestamps
        v = (rng.normal(0, 1, n) + np.cos(2 * np.pi * t / DAY_SECONDS)
             + 0.5 * np.cos(2 * np.pi * t / (8 * 3600.0)))
        s = ResidualSeries(t, v)
        cand = default_candidates(14 * DAY_SECONDS, WEEK_SECONDS, 168)
        ranked = spectrum(s, cand).periods
        for h in range(6):
            strongest = ranked[:h]
            drawn = list(rng.choice(cand, h, replace=False))
            for exclude in (strongest, drawn):
                assert (prominent_period(s, cand, exclude)
                        == subset_prominent_period(s, cand, exclude))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_candidate_periods_are_rejected(bad):
    t = np.arange(0.0, 7 * DAY_SECONDS, 1800.0)
    series = ResidualSeries(t, np.cos(2 * np.pi * t / DAY_SECONDS))
    for scan in (spectrum, prominent_period, spectral_sum):
        with pytest.raises(ValueError,
                           match="candidate periods must be positive and "
                                 "finite"):
            scan(series, [bad, DAY_SECONDS])
    with pytest.raises(ValueError, match="period must be positive and finite"):
        amplitude(series, bad)
