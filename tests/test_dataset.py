"""Dataset container, CSV round trips, and standardization."""

import numpy as np
import pytest

from hypertime import (
    Dataset,
    EVENT,
    SpatialStats,
    VALUED,
    load_csv,
    save_csv,
    split_by_time,
    standardize,
)


def make_valued(n=10, d=2, seed=0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0, 1000, n))
    return Dataset(t, rng.normal(0, 1, (n, d)), rng.uniform(0, 1, n))


def test_dataset_modes():
    t = np.array([0.0, 1.0])
    x = np.zeros((2, 1))
    assert Dataset(t, x, np.array([0.5, 0.5])).mode == VALUED
    assert Dataset(t, x, None).mode == EVENT


def test_dataset_basic_properties():
    ds = make_valued(n=8, d=3)
    assert len(ds) == 8
    assert ds.spatial_dim == 3
    assert ds.duration == pytest.approx(ds.times[-1] - ds.times[0])


def test_dataset_rejects_bad_shapes():
    t = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        Dataset(t, np.zeros((3, 1)), None)
    with pytest.raises(ValueError):
        Dataset(t, np.zeros((2, 1)), np.array([1.0]))
    # 1-d coords of matching length are promoted to one spatial dim
    assert Dataset(t, np.zeros(2), None).spatial_dim == 1
    with pytest.raises(ValueError):
        Dataset(t, np.zeros(3), None)


def test_dataset_rejects_non_finite():
    t = np.array([0.0, np.nan])
    with pytest.raises(ValueError):
        Dataset(t, np.zeros((2, 0)), None)
    with pytest.raises(ValueError):
        Dataset(np.array([0.0, 1.0]), np.array([[np.inf], [0.0]]), None)
    with pytest.raises(ValueError):
        Dataset(np.array([0.0, 1.0]), np.zeros((2, 0)),
                np.array([0.0, np.nan]))


def test_load_csv_sorts_and_parses(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("t,a,x1\n10.0,0.5,1.0\n5.0,0.25,2.0\n")
    ds = load_csv(p)
    assert ds.mode == VALUED
    np.testing.assert_array_equal(ds.times, [5.0, 10.0])
    np.testing.assert_array_equal(ds.values, [0.25, 0.5])
    np.testing.assert_array_equal(ds.coords[:, 0], [2.0, 1.0])


def test_load_csv_event_mode(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("t,x1,x2\n1.0,0.0,0.5\n2.0,1.0,1.5\n")
    ds = load_csv(p)
    assert ds.mode == EVENT
    assert ds.spatial_dim == 2


def test_load_csv_temporal_only(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("t,a\n1.0,0.5\n2.0,0.75\n")
    ds = load_csv(p)
    assert ds.spatial_dim == 0
    assert ds.coords.shape == (2, 0)


def test_load_csv_header_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,q\n1,2\n")
    with pytest.raises(ValueError, match="unknown column"):
        load_csv(bad)
    bad.write_text("a,x1\n1,2\n")
    with pytest.raises(ValueError, match="'t'"):
        load_csv(bad)
    bad.write_text("t,a,a\n1,2,3\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_csv(bad)
    bad.write_text("t,a,x2\n1,2,3\n")
    with pytest.raises(ValueError, match="x1"):
        load_csv(bad)


def test_load_csv_row_errors_name_lines(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("t,a\n1,2\n3\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(p)
    p.write_text("t,a\n1,2\n3,zap\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(p)


@pytest.mark.parametrize("text", [
    "t,a,x1\n1,2,0\nnan,2,0\n",
    "t,a,x1\n1,2,0\n3,nan,0\n",
    "t,a,x1\n1,2,0\n3,inf,0\n",
    "t,a,x1\n1,2,0\n3,2,-inf\n",
    "t,x1,x2\n1,0,0\n3,0,nan\n",
], ids=["t-nan", "a-nan", "a-inf", "x1-inf", "x2-nan"])
def test_load_csv_non_finite_fields_name_lines(tmp_path, text):
    p = tmp_path / "nf.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match="line 3: non-finite"):
        load_csv(p)


def test_load_csv_empty_errors(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError):
        load_csv(p)
    p.write_text("t,a\n")
    with pytest.raises(ValueError):
        load_csv(p)


def test_load_csv_schema_for_headerless(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    ds = load_csv(p, schema=["t", "x1"])
    assert ds.mode == EVENT
    np.testing.assert_array_equal(ds.times, [1.0, 3.0])
    with pytest.raises(ValueError):
        load_csv(p, schema=["t", "a", "x1"])


def test_save_load_round_trip(tmp_path):
    ds = make_valued(n=17, d=2, seed=3)
    p = tmp_path / "rt.csv"
    save_csv(ds, p)
    back = load_csv(p)
    np.testing.assert_array_equal(back.times, ds.times)
    np.testing.assert_array_equal(back.coords, ds.coords)
    np.testing.assert_array_equal(back.values, ds.values)


def test_save_load_round_trip_event(tmp_path):
    ds = Dataset(np.array([0.0, 2.0]), np.array([[1.0], [3.0]]), None)
    p = tmp_path / "ev.csv"
    save_csv(ds, p)
    back = load_csv(p)
    assert back.mode == EVENT
    np.testing.assert_array_equal(back.coords, ds.coords)


def test_split_by_time_boundary_goes_right():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    ds = Dataset(t, np.zeros((4, 0)), np.zeros(4))
    left, right = split_by_time(ds, 2.0)
    np.testing.assert_array_equal(left.times, [0.0, 1.0])
    np.testing.assert_array_equal(right.times, [2.0, 3.0])


def test_split_by_time_empty_side_errors():
    ds = Dataset(np.array([1.0, 2.0]), np.zeros((2, 0)), None)
    with pytest.raises(ValueError):
        split_by_time(ds, 0.5)
    with pytest.raises(ValueError):
        split_by_time(ds, 10.0)


def test_spatial_stats_from_dataset():
    ds = make_valued(n=50, d=2, seed=1)
    st = SpatialStats.from_dataset(ds)
    np.testing.assert_allclose(st.mean, ds.coords.mean(axis=0))
    np.testing.assert_allclose(st.std, ds.coords.std(axis=0))


def test_spatial_stats_zero_std_clamped():
    ds = Dataset(np.array([0.0, 1.0]), np.array([[5.0], [5.0]]), None)
    st = SpatialStats.from_dataset(ds)
    assert st.std[0] == 1.0


def test_spatial_stats_identity():
    st = SpatialStats.identity(3)
    np.testing.assert_array_equal(st.mean, np.zeros(3))
    np.testing.assert_array_equal(st.std, np.ones(3))


def test_standardize_transforms_coords_only():
    ds = make_valued(n=30, d=2, seed=2)
    st = SpatialStats.from_dataset(ds)
    out = standardize(ds, st)
    np.testing.assert_array_equal(out.times, ds.times)
    np.testing.assert_array_equal(out.values, ds.values)
    np.testing.assert_allclose(out.coords.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.coords.std(axis=0), 1.0, atol=1e-12)


def test_standardize_keeps_event_values_none():
    ds = Dataset(np.array([0.0, 1.0]), np.array([[1.0], [3.0]]), None)
    out = standardize(ds, SpatialStats.from_dataset(ds))
    assert out.values is None
