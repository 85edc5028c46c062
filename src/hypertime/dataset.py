"""Loading, validation, splitting, and scaling of timestamped measurements.

A dataset is either *valued* (each record carries a scalar reading ``a``
taken at time ``t`` and spatial position ``x``) or *event* (records are
bare occurrences at ``(t, x)``, e.g. detections of a person at a place).
Valued datasets feed regression-style models, event datasets feed
count/density models; everything downstream branches on ``Dataset.mode``.

`load_csv` parses a file with numpy's C reader when it is plain numbers,
and otherwise row by row with the csv module; the row loop accepts what
``float()`` accepts, reports the first bad line, and is the reference
the C path must match: the same Dataset bit for bit, or no answer.
"""

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

VALUED = "valued"
EVENT = "event"


class Dataset:
    """Immutable collection of measurements stored as flat arrays.

    Parameters
    ----------
    times : array_like, shape (l,)
        Timestamps in seconds.  Any epoch; only differences matter.
    coords : array_like, shape (l, d) or None
        Spatial coordinates.  ``None`` or empty means no spatial dims.
    values : array_like, shape (l,) or None
        Scalar readings.  ``None`` marks an event dataset.
    """

    def __init__(self, times, coords=None, values=None):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        l = times.shape[0]
        if coords is None:
            coords = np.empty((l, 0))
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords.reshape(l, 1)
        if coords.shape[0] != l:
            raise ValueError("coords length does not match times")
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.shape != (l,):
                raise ValueError("values length does not match times")
            if not np.all(np.isfinite(values)):
                raise ValueError("non-finite value entry")
        if not np.all(np.isfinite(times)):
            raise ValueError("non-finite timestamp")
        if not np.all(np.isfinite(coords)):
            raise ValueError("non-finite spatial coordinate")
        self.times = times
        self.coords = coords
        self.values = values
        times.setflags(write=False)
        coords.setflags(write=False)
        if values is not None:
            values.setflags(write=False)

    def __len__(self):
        return self.times.shape[0]

    @property
    def spatial_dim(self) -> int:
        return self.coords.shape[1]

    @property
    def mode(self) -> str:
        return EVENT if self.values is None else VALUED

    @property
    def duration(self) -> float:
        """Span max(t) - min(t); zero for a single record."""
        if len(self) == 0:
            raise ValueError("empty dataset has no duration")
        return float(self.times.max() - self.times.min())

    def __repr__(self):
        return (
            f"Dataset(mode={self.mode!r}, n={len(self)}, "
            f"spatial_dim={self.spatial_dim})"
        )


def _column_roles(names, line_no):
    """Map header names to (t_idx, a_idx, x_idxs); names are authoritative."""
    t_idx = None
    a_idx = None
    x_by_rank = {}
    for i, name in enumerate(names):
        name = name.strip()
        if name == "t":
            if t_idx is not None:
                raise ValueError(f"line {line_no}: duplicate column 't'")
            t_idx = i
        elif name == "a":
            if a_idx is not None:
                raise ValueError(f"line {line_no}: duplicate column 'a'")
            a_idx = i
        elif name.startswith("x") and name[1:].isdigit():
            rank = int(name[1:])
            if rank in x_by_rank:
                raise ValueError(f"line {line_no}: duplicate column {name!r}")
            x_by_rank[rank] = i
        else:
            raise ValueError(f"line {line_no}: unknown column {name!r}")
    if t_idx is None:
        raise ValueError(f"line {line_no}: missing column 't'")
    ranks = sorted(x_by_rank)
    if ranks != list(range(1, len(ranks) + 1)):
        raise ValueError(f"line {line_no}: spatial columns must be x1..xd")
    return t_idx, a_idx, [x_by_rank[r] for r in ranks]


def load_csv(path, schema=None) -> Dataset:
    """Read a measurement CSV and return a Dataset sorted ascending by t.

    The expected layout is ``t`` first, then ``a`` for valued data, then
    ``x1..xd``.  A header row is required unless `schema` supplies the
    column names for a headerless file.  Mode is inferred from the
    presence of an ``a`` column.  Malformed input raises ``ValueError``
    naming the offending 1-based line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    # Table columns: t, then a (valued data only), then x1..xd.
    table, valued = _c_table(text, schema) or _row_table(text, schema)
    # Stable sort keeps the file order of duplicate timestamps.
    order = np.argsort(table[:, 0], kind="stable")
    return Dataset(
        table[order, 0],
        table[order, 1 + valued:],
        table[order, 1] if valued else None,
    )


# Python float() rejects these separators, which numpy strips as
# whitespace around a number.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _c_table(text, schema):
    """``(table, valued)`` as `_row_table` returns it, parsed by numpy's
    C reader, or None where only the row loop can tell the answer.

    numpy converts each field with the routine float() uses but accepts
    less: it raises on quotes, underscores, non-ASCII digits and lone
    ``\\r`` line ends.  Wherever else the row loop raises, numpy raises
    too or returns no rows, the wrong width or a non-finite entry, and
    each of those is refused here.  The two inputs numpy reads and the
    loop refuses are screened out first: the separators above, and a
    field longer than ``csv.field_size_limit()``.
    """
    if any(c in text for c in _NUMPY_ONLY_SPACE) or _has_long_line(text):
        return None
    buf = io.StringIO(text, newline="")
    try:
        header = (list(schema) if schema is not None
                  else next(filter(None, csv.reader(buf)), None))
        if header is None:
            return None
        t_idx, a_idx, x_idxs = _column_roles(header, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data"
            raw = np.loadtxt(buf, delimiter=",", comments=None, ndmin=2,
                             dtype=float)
    except Exception:  # the row loop words every error
        return None
    if (raw.shape[0] == 0 or raw.shape[1] != len(header)
            or not np.isfinite(raw).all()):
        return None
    cols = [t_idx] + ([] if a_idx is None else [a_idx]) + x_idxs
    return raw[:, cols], a_idx is not None


def _has_long_line(text):
    """Whether a line of `text` may hold more characters than csv.reader
    accepts in one field (lines are split at ``\\n`` and measured in
    UTF-8 bytes, so the answer errs towards yes)."""
    limit = csv.field_size_limit()
    if len(text) <= limit:
        return False
    data = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero(data == 10)
    return bool(np.diff(ends, prepend=-1, append=data.size).max() > limit)


def _row_table(text, schema):
    """Parse `text` row by row: the (rows, 1 + valued + d) table in
    column order t, a, x1..xd, and whether an ``a`` column is present.
    Raises the line-numbered ``ValueError`` of the first bad line."""
    rows, line_no = [], 0
    try:
        for line_no, row in enumerate(
                csv.reader(io.StringIO(text, newline="")), start=1):
            if row:
                rows.append((line_no, row))
    except csv.Error as exc:
        why = (f"field longer than {csv.field_size_limit()} characters"
               if "field limit" in str(exc) else str(exc))
        raise ValueError(f"line {line_no + 1}: {why}") from None
    if not rows:
        raise ValueError("empty file")
    if schema is None:
        header_line, header = rows[0]
        data_rows = rows[1:]
    else:
        header_line, header = 0, list(schema)
        data_rows = rows
    t_idx, a_idx, x_idxs = _column_roles(header, header_line or 1)
    width = len(header)
    if not data_rows:
        raise ValueError("no data rows")

    # Table columns: t, then a (valued data only), then x1..xd.
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
    return table, a_idx is not None


def save_csv(dataset: Dataset, path) -> None:
    """Write `dataset` with the canonical header; floats use repr precision."""
    valued = dataset.mode == VALUED
    header = ["t"] + ["a"] * valued + [f"x{d + 1}"
                                       for d in range(dataset.spatial_dim)]
    columns = [dataset.times, *[dataset.values] * valued, *dataset.coords.T]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(map(repr, c.tolist()) for c in columns)))


def split_by_time(dataset: Dataset, boundary: float):
    """Split into (t < boundary, t >= boundary); either side empty is an error."""
    mask = dataset.times < boundary
    n_first = int(mask.sum())
    if n_first == 0:
        raise ValueError("split boundary leaves the first partition empty")
    if n_first == len(dataset):
        raise ValueError("split boundary leaves the second partition empty")
    vals = dataset.values
    return tuple(Dataset(dataset.times[m], dataset.coords[m],
                         None if vals is None else vals[m])
                 for m in (mask, ~mask))


@dataclass(frozen=True)
class SpatialStats:
    """Per-dimension location/scale of the spatial coordinates."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be 1-d arrays of equal length")
        if np.any(std <= 0):
            raise ValueError("std entries must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "SpatialStats":
        """Compute per-dim mean/std; degenerate (zero) std is clamped to 1."""
        if len(dataset) == 0:
            raise ValueError("cannot compute statistics of an empty dataset")
        mean = dataset.coords.mean(axis=0)
        std = dataset.coords.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        return cls(mean, std)

    @classmethod
    def identity(cls, spatial_dim: int) -> "SpatialStats":
        return cls(np.zeros(spatial_dim), np.ones(spatial_dim))


def standardize(dataset: Dataset, stats: SpatialStats) -> Dataset:
    """Return a copy with each spatial coordinate mapped to (x - mean) / std.

    Timestamps and values are untouched.  `stats` must match the dataset's
    spatial dimensionality.
    """
    if stats.mean.shape[0] != dataset.spatial_dim:
        raise ValueError(
            f"stats cover {stats.mean.shape[0]} dims, "
            f"dataset has {dataset.spatial_dim}"
        )
    coords = (dataset.coords - stats.mean) / stats.std
    return Dataset(dataset.times.copy(), coords, None if dataset.values is None else dataset.values.copy())
