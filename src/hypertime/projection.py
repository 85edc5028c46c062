"""Projection of linear time onto circular coordinates.

Each modelled period T contributes one unit-circle pair
``(cos(2*pi*t/T), sin(2*pi*t/T))``, so a timestamp never leaves the
circle and phases separated by a full period coincide exactly.  Model
vectors are laid out as ``[a?] + [x1..xd] + [cos,sin per period]``; the
:class:`DimensionLayout` records which index plays which role.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, VALUED

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class HypertimeProjection:
    """Ordered set of distinct positive periods, in seconds."""

    periods: tuple[float, ...] = ()

    def __post_init__(self):
        periods = tuple(float(p) for p in self.periods)
        if any(not np.isfinite(p) or p <= 0 for p in periods):
            raise ValueError("periods must be finite and positive")
        if len(set(periods)) != len(periods):
            raise ValueError("periods must be distinct")
        object.__setattr__(self, "periods", periods)

    @property
    def h(self) -> int:
        return len(self.periods)

    def extended(self, period: float) -> "HypertimeProjection":
        """New projection with `period` appended."""
        return HypertimeProjection(self.periods + (float(period),))


@dataclass(frozen=True)
class DimensionLayout:
    """Index bookkeeping for one model vector.

    Width is ``has_value + spatial_dim + 2 * n_periods``; the value (if
    any) sits at index 0, spatial coordinates follow, and each period
    owns a trailing (cos, sin) pair.
    """

    has_value: bool
    spatial_dim: int
    n_periods: int

    def __post_init__(self):
        if self.spatial_dim < 0 or self.n_periods < 0:
            raise ValueError("spatial_dim and n_periods must be >= 0")

    @property
    def width(self) -> int:
        return int(self.has_value) + self.spatial_dim + 2 * self.n_periods

    @property
    def value_index(self) -> int | None:
        return 0 if self.has_value else None

    @property
    def spatial_indices(self) -> range:
        start = int(self.has_value)
        return range(start, start + self.spatial_dim)

    @property
    def temporal_pairs(self) -> list[tuple[int, int]]:
        start = int(self.has_value) + self.spatial_dim
        return [(start + 2 * k, start + 2 * k + 1) for k in range(self.n_periods)]


def project_times(times, projection: HypertimeProjection) -> np.ndarray:
    """Shape (l, 2h): cos and sin of one (l, h) phase table, interleaved."""
    times = np.asarray(times, dtype=float)
    out = np.empty((times.shape[0], 2 * projection.h))
    phase = np.divide(TWO_PI * times[:, None], projection.periods,
                      out=out[:, 1::2])  # until the sines replace them
    np.cos(phase, out=out[:, 0::2])
    np.sin(phase, out=phase)
    return out


def assemble(dataset: Dataset, projection: HypertimeProjection):
    """Build model vectors for every record.

    Returns ``(vectors, layout)`` where valued datasets contribute the
    reading at index 0 followed by spatial coordinates and circular
    pairs; event datasets skip the value slot.
    """
    has_value = dataset.mode == VALUED
    layout = DimensionLayout(has_value, dataset.spatial_dim, projection.h)
    parts = []
    if has_value:
        parts.append(dataset.values.reshape(-1, 1))
    parts.append(dataset.coords)
    parts.append(project_times(dataset.times, projection))
    vectors = np.hstack(parts) if parts else np.empty((len(dataset), 0))
    return vectors, layout
