"""Dataset container, CSV round trips, and standardization."""

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypertime import dataset as dataset_mod
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


def test_load_csv_over_long_field_names_line(tmp_path):
    p = tmp_path / "long.csv"
    p.write_text("t,a\n1,2\n3," + "9" * 140_000 + "\n")
    limit = csv.field_size_limit()
    with pytest.raises(ValueError, match=f"^line 3: field longer than "
                                         f"{limit} characters$"):
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


def _row_loop(path, schema=None):
    """The row-by-row CSV reader that `load_csv` falls back to, kept here
    as the reference its fast path must match."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                rows.append((line_no, row))
        except csv.Error:
            raise ValueError(f"line {len(rows) + 1}: field longer than "
                             f"{csv.field_size_limit()} characters") from None
    rows = [(i, r) for i, r in rows if r]
    if not rows:
        raise ValueError("empty file")
    if schema is None:
        header_line, header = rows[0]
        data_rows = rows[1:]
    else:
        header_line, header = 0, list(schema)
        data_rows = rows
    t_idx, a_idx, x_idxs = dataset_mod._column_roles(header, header_line or 1)
    width = len(header)
    if not data_rows:
        raise ValueError("no data rows")
    cols = [t_idx] + ([] if a_idx is None else [a_idx]) + x_idxs
    kinds = (["timestamp"] + ([] if a_idx is None else ["value"])
             + ["spatial coordinate"] * len(x_idxs))
    table = np.empty((len(data_rows), len(cols)))
    for k, (line_no, row) in enumerate(data_rows):
        if len(row) != width:
            raise ValueError(
                f"line {line_no}: expected {width} fields, got {len(row)}"
            )
        try:
            fields = [float(row[i]) for i in cols]
        except ValueError:
            raise ValueError(f"line {line_no}: non-numeric field") from None
        if not all(map(math.isfinite, fields)):
            kind = next(kind for kind, v in zip(kinds, fields)
                        if not math.isfinite(v))
            raise ValueError(f"line {line_no}: non-finite {kind}")
        table[k] = fields
    order = np.argsort(table[:, 0], kind="stable")
    return Dataset(
        table[order, 0],
        table[order, len(cols) - len(x_idxs):],
        None if a_idx is None else table[order, 1],
    )


def _assert_loads_like_row_loop(path, schema=None):
    """`load_csv` returns the reference's Dataset bit for bit, or raises
    the reference's exception type with its message."""
    try:
        want = _row_loop(path, schema)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            load_csv(path, schema)
        assert str(got.value) == str(exc)
        return exc
    got = load_csv(path, schema)
    assert got.mode == want.mode
    for a, b in ((got.times, want.times), (got.coords, want.coords),
                 (got.values, want.values)):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return None


_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-10**20, 10**20)).map(repr)
# Fields float() reads but numpy's reader refuses.
_ODD_NUMBERS = st.sampled_from(["1_000", '"1.5"', "\u0661", "\xa03 ",
                                " +.5", "-0", "1e-400"])
_BAD_FIELDS = st.sampled_from(["nan", "inf", "-inf", "1e500", '"2,5"', "",
                               "  ", "abc", "0x10", "\x1c1", "1\x00"])
_HEADERS = [["t"], ["t", "a"], ["a", "t"], ["t", "x1"], ["t", "a", "x1", "x2"],
            ["x1", "t", "x2"], ["t", "q"]]


@st.composite
def _csv_texts(draw):
    """(text, schema) of a measurement CSV: plain, or with fields and line
    ends only the row loop reads, or with errors anywhere."""
    header = draw(st.sampled_from(_HEADERS))
    schema = draw(st.sampled_from([None, header]))
    width = len(header)
    kind = draw(st.sampled_from(["plain", "odd", "bad"]))
    fields = {"plain": _NUMBERS,
              "odd": st.one_of(_NUMBERS, _ODD_NUMBERS),
              "bad": st.one_of(_NUMBERS, _ODD_NUMBERS, _BAD_FIELDS)}[kind]
    widths = [width] * 4 + ([width - 1, width + 1] if kind == "bad" else [])
    lines = [] if schema is not None else [",".join(header)]
    lines = [""] * draw(st.integers(0, 2)) + lines
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from(widths))
        lines.append(",".join(draw(st.lists(fields, min_size=n, max_size=n))))
        if kind != "plain" and draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(
                [""] if kind == "odd" else ["", " ", "\t", ","])))
    ends = ["\n"] if kind == "plain" else ["\n", "\n", "\r\n", "\r"]
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, schema


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_texts())
def test_load_csv_matches_row_loop(tmp_path, case):
    text, schema = case
    p = tmp_path / "g.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    exc = _assert_loads_like_row_loop(p, schema)
    if isinstance(exc, ValueError):
        msg = str(exc)
        assert (msg.startswith("line ") or msg in ("empty file",
                                                   "no data rows")), msg


def test_load_csv_parses_plain_files_without_the_row_loop(tmp_path,
                                                          monkeypatch):
    def refuse(text, schema):
        raise AssertionError("row loop used")

    monkeypatch.setattr(dataset_mod, "_row_table", refuse)
    p = tmp_path / "plain.csv"
    p.write_text("\nt,a,x1\n10.0,0.5,1e3\r\n\n5, -0.25 ,2\n")
    ds = load_csv(p)
    np.testing.assert_array_equal(ds.times, [5.0, 10.0])
    np.testing.assert_array_equal(ds.values, [-0.25, 0.5])
    np.testing.assert_array_equal(ds.coords[:, 0], [2.0, 1000.0])
    p.write_text("3,1\n1,2\n")
    ds = load_csv(p, schema=["t", "x1"])
    np.testing.assert_array_equal(ds.times, [1.0, 3.0])


@pytest.mark.parametrize("text", [
    "t,a\n1,\x1c2\n",             # float() refuses \x1c, numpy strips it
    "t,a\n1," + "0" * 140_000 + "\n",  # longer than csv's field limit
], ids=["separator", "long-field"])
def test_load_csv_rejects_what_numpy_alone_would_read(tmp_path, text):
    p = tmp_path / "n.csv"
    p.write_text(text)
    assert _assert_loads_like_row_loop(p) is not None


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
