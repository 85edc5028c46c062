"""Circular time projection and vector layout bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertime import (
    Dataset,
    DimensionLayout,
    HypertimeProjection,
    assemble,
    project_times,
)

DAY = 86400.0


def project_time(t, proj):
    """One timestamp through the batch projection."""
    return project_times(np.array([t]), proj)[0]


def test_project_time_quarters():
    proj = HypertimeProjection((DAY,))
    np.testing.assert_allclose(project_time(0.0, proj), (1.0, 0.0),
                               atol=1e-12)
    np.testing.assert_allclose(project_time(DAY / 4, proj), (0.0, 1.0),
                               atol=1e-12)
    np.testing.assert_allclose(project_time(DAY / 2, proj), (-1.0, 0.0),
                               atol=1e-12)
    np.testing.assert_allclose(project_time(3 * DAY / 4, proj), (0.0, -1.0),
                               atol=1e-12)


def test_project_time_unit_norm():
    proj = HypertimeProjection((DAY, DAY / 3, 977.0))
    out = project_time(12345.6, proj)
    assert out.shape == (6,)
    for k in range(3):
        norm = np.hypot(out[2 * k], out[2 * k + 1])
        assert abs(norm - 1.0) < 1e-12


def test_project_time_periodic():
    proj = HypertimeProjection((DAY,))
    p1 = project_time(12345.0, proj)
    p2 = project_time(12345.0 + 3 * DAY, proj)
    np.testing.assert_allclose(p1, p2, atol=1e-9)


def test_project_times_matches_scalar():
    t = np.linspace(0, 2 * DAY, 11)
    proj = HypertimeProjection((DAY, DAY / 2))
    block = project_times(t, proj)
    assert block.shape == (11, 4)
    for i, ti in enumerate(t):
        np.testing.assert_allclose(block[i], project_time(ti, proj),
                                   atol=1e-12)
        for k, period in enumerate(proj.periods):
            phase = 2 * np.pi * ti / period
            np.testing.assert_allclose(block[i, 2 * k:2 * k + 2],
                                       (np.cos(phase), np.sin(phase)),
                                       atol=1e-12)


def loop_projection(times, proj):
    """The per-period loop one phase table replaced."""
    out = np.empty((times.shape[0], 2 * proj.h))
    for k, period in enumerate(proj.periods):
        phase = 2.0 * np.pi * times / period
        out[:, 2 * k] = np.cos(phase)
        out[:, 2 * k + 1] = np.sin(phase)
    return out


_times = st.lists(st.floats(-1e9, 1e9), max_size=40)
_periods = st.lists(st.floats(1.0, 1e7), max_size=6, unique=True)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_times, _periods)
def test_project_times_matches_per_period_loop_bit_for_bit(times, periods):
    t = np.array(times, dtype=float)
    proj = HypertimeProjection(tuple(periods))
    got = project_times(t, proj)
    assert got.shape == (t.size, 2 * proj.h)
    assert np.array_equal(got.view(np.uint64),
                          loop_projection(t, proj).view(np.uint64))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(-1e7, 1e7), st.floats(60.0, 1e6))
def test_project_times_is_periodic(t, period):
    # t and t + P have phases 2 pi apart up to the rounding of t + P, of
    # the product and of the quotient: a few ulps of the phase.  So the
    # pairs agree to 1e-14 times (1 + |phase|), a margin of ~45 ulps.
    proj = HypertimeProjection((period,))
    a, b = project_times(np.array([t, t + period]), proj)
    phase = 2.0 * np.pi * (abs(t) + period) / period
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14 * (1.0 + phase))


def test_projection_validation():
    with pytest.raises(ValueError):
        HypertimeProjection((0.0,))
    with pytest.raises(ValueError):
        HypertimeProjection((-5.0,))
    with pytest.raises(ValueError):
        HypertimeProjection((DAY, DAY))


def test_projection_extension():
    proj = HypertimeProjection(())
    assert proj.h == 0
    ext = proj.extended(DAY)
    assert ext.h == 1
    assert ext.periods == (DAY,)
    assert proj.periods == ()
    with pytest.raises(ValueError):
        ext.extended(DAY)


def test_layout_indices_valued():
    lay = DimensionLayout(True, 2, 2)
    assert lay.width == 1 + 2 + 4
    assert lay.value_index == 0
    np.testing.assert_array_equal(lay.spatial_indices, [1, 2])
    assert lay.temporal_pairs == [(3, 4), (5, 6)]


def test_layout_indices_event():
    lay = DimensionLayout(False, 2, 1)
    assert lay.width == 4
    assert lay.value_index is None
    np.testing.assert_array_equal(lay.spatial_indices, [0, 1])
    assert lay.temporal_pairs == [(2, 3)]


def test_layout_extension():
    # extending the projection by one period adds one (cos, sin) pair
    ds = Dataset(np.array([0.0, DAY / 4]), np.zeros((2, 1)),
                 np.array([0.5, 0.25]))
    _, lay = assemble(ds, HypertimeProjection())
    _, ext = assemble(ds, HypertimeProjection().extended(DAY))
    assert ext.n_periods == 1
    assert ext.width == lay.width + 2
    assert lay.n_periods == 0


def test_extend_vectors():
    # the new period's pair is appended after the existing columns
    ds = Dataset(np.array([0.0, DAY / 4, DAY / 2]),
                 np.arange(6.0).reshape(3, 2), None)
    vecs, _ = assemble(ds, HypertimeProjection())
    out, _ = assemble(ds, HypertimeProjection().extended(DAY))
    assert out.shape == (3, 4)
    np.testing.assert_array_equal(out[:, :2], vecs)
    np.testing.assert_allclose(out[:, 2], [1.0, 0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(out[:, 3], [0.0, 1.0, 0.0], atol=1e-12)


def test_extend_vectors_empty():
    ds = Dataset(np.zeros(0), np.zeros((0, 2)), None)
    out, _ = assemble(ds, HypertimeProjection((DAY,)))
    assert out.shape == (0, 4)


def test_assemble_valued():
    t = np.array([0.0, DAY / 4])
    ds = Dataset(t, np.array([[2.0], [3.0]]), np.array([0.5, 0.25]))
    vecs, lay = assemble(ds, HypertimeProjection((DAY,)))
    assert vecs.shape == (2, 4)
    assert lay.has_value and lay.spatial_dim == 1 and lay.n_periods == 1
    np.testing.assert_allclose(vecs[0], [0.5, 2.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(vecs[1], [0.25, 3.0, 0.0, 1.0], atol=1e-12)


def test_assemble_event():
    t = np.array([0.0, DAY / 2])
    ds = Dataset(t, np.array([[2.0, 1.0], [3.0, 4.0]]), None)
    vecs, lay = assemble(ds, HypertimeProjection(()))
    assert vecs.shape == (2, 2)
    assert not lay.has_value
    np.testing.assert_array_equal(vecs, ds.coords)
