"""Error metrics, grid bookkeeping, and model comparison utilities.

Valued models are scored by RMSE against held-out readings.  Event
models are scored on spatio-temporal count grids, plain arrays of their
`GridSpec`'s shape: observed counts come from half-open binning of test
events (`grid_count`), predictions from whichever model is under test
(`per_cell_baseline` for the baselines), and grids compare by RMSE over
their cells.  Method rankings across folds are settled by paired
two-sided t-tests.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _sstats

from .baselines import BaselineConfig, make_baseline
from .dataset import Dataset

_EDGE_EPS = 1e-12


def rmse(predictions, truth) -> float:
    """Root mean squared difference of two equally long vectors."""
    predictions = np.asarray(predictions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predictions.shape != truth.shape or predictions.ndim != 1:
        raise ValueError("predictions and truth must be 1-d and equally long")
    if predictions.shape[0] == 0:
        raise ValueError("empty input")
    diff = predictions - truth
    return float(np.sqrt(np.mean(diff * diff)))


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatio-temporal grid over a bounding box.

    Cells are half-open along every axis: a point on a shared edge
    belongs to the higher cell, and a point at the upper box boundary
    falls outside.
    """

    spatial_lo: np.ndarray
    spatial_hi: np.ndarray
    n_spatial: tuple[int, ...]
    t_lo: float
    t_hi: float
    n_temporal: int

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.spatial_lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.spatial_hi, dtype=float))
        n = tuple(int(k) for k in np.atleast_1d(self.n_spatial))
        if lo.shape != hi.shape or len(n) != lo.shape[0]:
            raise ValueError("inconsistent spatial specification")
        if np.any(hi <= lo) and lo.size:
            raise ValueError("spatial_hi must exceed spatial_lo")
        if any(k < 1 for k in n) or self.n_temporal < 1:
            raise ValueError("cell counts must be >= 1")
        if self.t_hi <= self.t_lo:
            raise ValueError("t_hi must exceed t_lo")
        object.__setattr__(self, "spatial_lo", lo)
        object.__setattr__(self, "spatial_hi", hi)
        object.__setattr__(self, "n_spatial", n)

    @classmethod
    def from_cell_size(cls, spatial_lo, spatial_hi, t_lo, t_hi,
                       spatial_edge, temporal_edge,
                       expand: bool = True) -> "GridSpec":
        """Cover the box with cells of the requested size.

        With ``expand=True`` the upper bounds grow to the next cell
        boundary so cells keep the requested edge exactly; otherwise the
        box is kept and the edges shrink to divide it evenly.
        """
        lo = np.atleast_1d(np.asarray(spatial_lo, dtype=float))
        hi = np.atleast_1d(np.asarray(spatial_hi, dtype=float))
        if spatial_edge <= 0 or temporal_edge <= 0:
            raise ValueError("cell sizes must be positive")
        ns = tuple(max(int(np.ceil((b - a) / spatial_edge - _EDGE_EPS)), 1)
                   for a, b in zip(lo, hi))
        nt = max(int(np.ceil((t_hi - t_lo) / temporal_edge - _EDGE_EPS)), 1)
        if expand:
            hi = lo + np.asarray(ns, dtype=float) * spatial_edge
            t_hi = t_lo + nt * temporal_edge
        return cls(lo, hi, ns, float(t_lo), float(t_hi), nt)

    @property
    def spatial_dim(self) -> int:
        return self.spatial_lo.shape[0]

    @property
    def spatial_edges(self) -> np.ndarray:
        return (self.spatial_hi - self.spatial_lo) / np.asarray(self.n_spatial)

    @property
    def temporal_edge(self) -> float:
        return (self.t_hi - self.t_lo) / self.n_temporal

    @property
    def cell_volume(self) -> float:
        vol = float(np.prod(self.spatial_edges)) if self.spatial_dim else 1.0
        return vol * self.temporal_edge

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_spatial + (self.n_temporal,)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def spatial_centers(self, dim: int) -> np.ndarray:
        edge = self.spatial_edges[dim]
        return self.spatial_lo[dim] + (np.arange(self.n_spatial[dim]) + 0.5) * edge

    @property
    def temporal_centers(self) -> np.ndarray:
        return self.t_lo + (np.arange(self.n_temporal) + 0.5) * self.temporal_edge


def grid_count(events: Dataset, spec: GridSpec) -> np.ndarray:
    """Bin events into the grid; out-of-box events are dropped.

    Returns the counts, shaped as `spec.shape`; their total equals the
    number of events inside the half-open box.
    """
    if events.spatial_dim != spec.spatial_dim:
        raise ValueError("event dimensionality does not match grid")
    idxs = []
    inside = np.ones(len(events), dtype=bool)
    for d in range(spec.spatial_dim):
        rel = (events.coords[:, d] - spec.spatial_lo[d]) / spec.spatial_edges[d]
        k = np.floor(rel).astype(int)
        inside &= (k >= 0) & (k < spec.n_spatial[d])
        idxs.append(k)
    rel_t = (events.times - spec.t_lo) / spec.temporal_edge
    kt = np.floor(rel_t).astype(int)
    inside &= (kt >= 0) & (kt < spec.n_temporal)
    idxs.append(kt)
    flat = np.ravel_multi_index(tuple(k[inside] for k in idxs), spec.shape)
    counts = np.bincount(flat, minlength=spec.n_cells).astype(float)
    return counts.reshape(spec.shape)


# ---------------------------------------------------------------------------
# method comparison


@dataclass(frozen=True)
class PairResult:
    """Paired t-test of one ordered method pair."""

    t: float
    p: float
    significant: bool
    degenerate: bool = False


@dataclass
class ComparisonReport:
    """Per-method errors plus the full pairwise significance matrix."""

    methods: list[str]
    per_fold: dict[str, np.ndarray]
    mean_errors: dict[str, float]
    matrix: dict[tuple[str, str], PairResult]
    edges: list[tuple[str, str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready form with a nested matrix."""
        nested: dict[str, dict] = {m: {} for m in self.methods}
        for (a, b), res in self.matrix.items():
            nested[a][b] = {
                "t": res.t,
                "p": res.p,
                "significant": res.significant,
                "degenerate": res.degenerate,
            }
        return {
            "methods": list(self.methods),
            "fold_errors": {m: [float(e) for e in v]
                            for m, v in self.per_fold.items()},
            "mean_errors": {m: float(v) for m, v in self.mean_errors.items()},
            "matrix": nested,
            "dominance_edges": [list(e) for e in self.edges],
        }


def pairwise_ttests(per_fold_errors: dict, alpha: float = 0.05) -> ComparisonReport:
    """Two-sided paired t-tests over per-fold errors of several methods.

    A dominance edge A -> B is recorded when A's mean error is lower and
    the paired difference is significant at `alpha`.  A pair whose
    differences have zero variance is flagged degenerate and never forms
    an edge.
    """
    methods = list(per_fold_errors)
    if len(methods) < 2:
        raise ValueError("need at least two methods")
    folds = {m: np.asarray(v, dtype=float) for m, v in per_fold_errors.items()}
    lengths = {v.shape[0] for v in folds.values()}
    if len(lengths) != 1:
        raise ValueError("methods have differing fold counts")
    f = lengths.pop()
    if f < 2:
        raise ValueError("need at least two folds")
    mean_errors = {m: float(v.mean()) for m, v in folds.items()}
    matrix = {}
    edges = []
    for a in methods:
        for b in methods:
            if a == b:
                continue
            d = folds[a] - folds[b]
            sd = float(d.std(ddof=1))
            if sd == 0.0:
                matrix[(a, b)] = PairResult(0.0, 1.0, False, degenerate=True)
                continue
            t = float(d.mean() / (sd / np.sqrt(f)))
            p = float(2.0 * _sstats.t.sf(abs(t), f - 1))
            significant = p < alpha
            matrix[(a, b)] = PairResult(t, p, significant)
            if significant and mean_errors[a] < mean_errors[b]:
                edges.append((a, b))
    return ComparisonReport(methods, folds, mean_errors, matrix, edges)


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass
class SweepResult:
    best: object
    scores: list[tuple[object, float]]
    failures: list[tuple[object, str]] = field(default_factory=list)


def _default_scorer(predictor, validation: Dataset) -> float:
    coords = validation.coords if validation.spatial_dim else None
    preds = np.atleast_1d(predictor.predict(coords, validation.times))
    return rmse(preds, validation.values)


def sweep(train: Dataset, validation: Dataset, factory, params,
          scorer=None) -> SweepResult:
    """Score ``factory(train, p)`` on the validation data for every p.

    Returns the argmin parameter; ties go to the earlier (smaller)
    parameter.  A parameter whose construction or scoring raises is
    skipped with a warning; if every parameter fails, the sweep fails.
    """
    params = list(params)
    if not params:
        raise ValueError("empty parameter range")
    scorer = scorer or _default_scorer
    scores: list[tuple[object, float]] = []
    failures: list[tuple[object, str]] = []
    best = None
    best_score = np.inf
    for p in params:
        try:
            predictor = factory(train, p)
            score = float(scorer(predictor, validation))
        except Exception as exc:  # noqa: BLE001 - sweep isolates failures
            warnings.warn(f"sweep: parameter {p!r} failed: {exc}")
            failures.append((p, str(exc)))
            continue
        scores.append((p, score))
        if score < best_score:
            best, best_score = p, score
    if best is None:
        raise ValueError("every parameter in the sweep failed")
    return SweepResult(best, scores, failures)


# ---------------------------------------------------------------------------
# per-cell baselines for event grids


def per_cell_baseline(train_events: Dataset, spec: GridSpec,
                      cfg: BaselineConfig, candidates=None) -> np.ndarray:
    """Grid predictions, shaped as `spec.shape`, from an independent
    baseline per spatial cell.

    For every spatial cell, the training events are binned over the
    training period (same spatial layout and temporal edge as `spec`),
    the configured baseline is fitted to that per-bin count series, and
    its predictions at the grid's temporal bin centers become p_g.
    The training period is the span of the training events.  All cells
    are fitted at once (`RowsPredictor`), each exactly as on its own.
    """
    if train_events.mode != "event":
        raise ValueError("per_cell_baseline expects event data")
    t0 = float(train_events.times.min())
    t1 = float(train_events.times.max())
    n_train_bins = max(int(np.ceil((t1 - t0) / spec.temporal_edge - _EDGE_EPS)), 1)
    train_spec = GridSpec(
        spec.spatial_lo, spec.spatial_hi, spec.n_spatial,
        t0, t0 + n_train_bins * spec.temporal_edge, n_train_bins,
    )
    counts = grid_count(train_events, train_spec)
    fits = make_baseline((train_spec.temporal_centers,
                          counts.reshape(-1, n_train_bins)), cfg, candidates)
    return fits.predict(None, spec.temporal_centers).reshape(spec.shape)
