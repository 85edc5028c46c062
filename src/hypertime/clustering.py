"""Gaussian mixture fitting over mixed linear/circular vector spaces.

Two fitting routes produce the same :class:`MixtureModel` structure: EM
seeded by farthest-point initialization (`em_fit_stable`), and a k-means
pass under a mixed metric followed by EM refinement (`km_fit`).  Both
watch the covariance spectra for collapse (a component shrinking onto a
few points or onto a lower-dimensional sheet), retry with fresh seeds,
and as a last resort constrain covariances to diagonal matrices.

Distances mix two geometries: value and spatial coordinates compare by
Euclidean distance, while each circular (cos, sin) pair compares by
cosine dissimilarity so that phases a full period apart coincide.

Every Gaussian evaluation goes through one :class:`MixtureCore`: per
component the log-weight, the lower Cholesky factor of the covariance
and the log-normaliser, plus, for a valued mixture, the factors of the
marginal over the non-value dimensions and the regression of the value
on them.  A :class:`MixtureModel` builds its core on the first
evaluation (or on `MixtureModel.core`) and keeps it: a component edited
before that is honoured, one edited after it is not.  Each EM iteration
builds a core from its current parameters for the E-step.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .projection import DimensionLayout

_LOG_2PI = float(np.log(2.0 * np.pi))
_TINY = np.finfo(float).tiny


@dataclass
class FitConfig:
    """Knobs shared by both fitting backends."""

    n_clusters: int = 2
    max_iter: int = 100
    tol: float = 1e-6
    max_restarts: int = 5
    eig_floor: float = 1e-6
    cond_ceiling: float = 1e10
    seed: int = 42
    backend: str = "em"

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.eig_floor <= 0:
            raise ValueError("eig_floor must be positive")
        if self.cond_ceiling <= 1:
            raise ValueError("cond_ceiling must exceed 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backend not in ("em", "km"):
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass
class GaussianComponent:
    """One weighted Gaussian; covariance is symmetric positive definite
    for fitted models (eigenvalues clamped to the configured floor)."""

    weight: float
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        d = self.mean.shape[0]
        if self.covariance.shape != (d, d):
            raise ValueError("covariance shape does not match mean")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def logpdf(self, points) -> np.ndarray:
        """Log density at each row of `points` (shape (N, dim))."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        chol, norm = _factor(self.covariance)
        return _logpdf_at(points - self.mean, chol, norm)


def _factor(cov):
    """Lower Cholesky factor of `cov` and the log-normaliser
    ``dim * log(2 pi) + log det cov`` of a Gaussian with that covariance."""
    chol = np.linalg.cholesky(cov)
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    return chol, cov.shape[0] * _LOG_2PI + logdet


def _logpdf_at(diff, chol, norm):
    """Gaussian log density at deviations `diff` (N, dim) from the mean."""
    if diff.shape[1] == 0:
        return np.zeros(diff.shape[0])
    dev = solve_triangular(chol, diff.T, lower=True)
    quad = np.einsum("ij,ij->j", dev, dev)
    return -0.5 * (norm + quad)


def _logsumexp(a, axis):
    """``scipy.special.logsumexp(a, axis=axis)`` of a real array, bit for bit.

    Scipy's formula: with m entries equal to the maximum and s the sum of
    exp(a - max) over the other entries, the result is
    ``log1p(s / m) + log(m) + max``; where that is not finite it is
    ``log(sum(exp(a)))``.  The sums run along `axis` in `a`'s own memory
    layout, so a caller must pass the layout scipy was given.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis=axis, keepdims=True)
        at_top = a == top
        m = at_top.sum(axis=axis, keepdims=True, dtype=float)
        s = np.exp(np.where(at_top, -np.inf, a) - top).sum(
            axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + top
        bad = ~np.isfinite(out)
        if bad.any():
            direct = np.log(np.exp(a).sum(axis=axis, keepdims=True))
            out = np.where(bad, direct, out)
    return out.squeeze(axis)


class MixtureCore:
    """Factors of a Gaussian mixture, computed once per parameter set.

    Per component: the log-weight, the mean, the lower Cholesky factor of
    the covariance and the log-normaliser.  With `valued`, dimension 0
    is the value and the core also holds, per component, the factors of
    the marginal over the remaining ("rest") dimensions and the
    regression coefficients beta of the value on them.
    """

    def __init__(self, weights, means, covs, valued=False):
        self.weights = list(weights)
        self.log_weights = [np.log(w) for w in self.weights]
        self.means = [np.array(m, dtype=float) for m in means]
        self.factors = []
        # Per component of a valued mixture: (rest mean, rest Cholesky
        # factor, rest log-normaliser, beta or None without rest dims).
        self.rest = []
        for j, cov in enumerate(covs):
            cov = np.asarray(cov, dtype=float)
            try:
                self.factors.append(_factor(cov))
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"components[{j}].covariance is not positive definite"
                ) from None
            if valued:
                s_rr = cov[1:, 1:]
                beta = np.linalg.solve(s_rr, cov[1:, 0]) if s_rr.size else None
                self.rest.append((self.means[j][1:], *_factor(s_rr), beta))

    def log_joint(self, points, components_first=False) -> np.ndarray:
        """``log w_j + log N_j(x)`` for every row x of `points` (N, dim)
        and component j: shape (N, k), or (k, N) with `components_first`."""
        k, n = len(self.means), points.shape[0]
        out = np.empty((k, n)) if components_first else np.empty((n, k))
        cols = out if components_first else out.T
        for j in range(k):
            cols[j] = self.log_weights[j] + _logpdf_at(
                points - self.means[j], *self.factors[j])
        return out

    def value_terms(self, rest_pts):
        """Per row of `rest_pts`: ``(sum_j w_j q_j c_j, sum_j w_j q_j)``,
        where q_j is component j's marginal density over the rest
        dimensions and c_j the conditional mean of the value given them."""
        n = rest_pts.shape[0]
        unscaled, mass = np.zeros(n), np.zeros(n)
        for w, full_mean, (mean, chol, norm, beta) in zip(
                self.weights, self.means, self.rest):
            diff = rest_pts - mean
            wq = w * np.exp(_logpdf_at(diff, chol, norm))
            if beta is None:
                c = np.full(n, full_mean[0])
            else:
                c = full_mean[0] + diff @ beta
            unscaled += wq * c
            mass += wq
        return unscaled, mass


@dataclass
class FitLog:
    """Trace of one fitting run."""

    iterations: int
    log_likelihood: float
    ll_trace: list[float]
    restarts: int = 0
    diagonal_fallback: bool = False
    # Per-component (min, max) covariance eigenvalues of the final
    # maximization step, before flooring was applied.
    raw_eigenvalues: list[tuple[float, float]] | None = None


@dataclass
class MixtureModel:
    """Weighted Gaussian mixture plus the layout its vectors follow."""

    components: list[GaussianComponent]
    layout: DimensionLayout
    fit_log: FitLog | None = None
    _core: MixtureCore | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        widths = {c.dim for c in self.components}
        if widths != {self.layout.width}:
            raise ValueError("component dimension does not match layout")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    @property
    def core(self) -> MixtureCore:
        """The mixture's factors, built on first use and then kept."""
        if self._core is None:
            self._core = MixtureCore(
                [c.weight for c in self.components],
                [c.mean for c in self.components],
                [c.covariance for c in self.components],
                valued=self.layout.has_value)
        return self._core

    def logpdf(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return _logsumexp(self.core.log_joint(points, components_first=True),
                          axis=0)

    def pdf(self, points) -> np.ndarray:
        return np.exp(self.logpdf(points))


# ---------------------------------------------------------------------------
# mixed metric


def _pairwise_mixed(points, centers, layout: DimensionLayout) -> np.ndarray:
    """Distance matrix (N, K) under the mixed metric."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    linear = [layout.value_index] if layout.has_value else []
    linear += list(layout.spatial_indices)
    if linear:
        diff = points[:, None, linear] - centers[None, :, linear]
        dist = np.sqrt((diff * diff).sum(axis=-1))
    else:
        dist = np.zeros((points.shape[0], centers.shape[0]))
    for ci, si in layout.temporal_pairs:
        p = points[:, (ci, si)]
        c = centers[:, (ci, si)]
        pn = np.hypot(p[:, 0], p[:, 1])
        cn = np.hypot(c[:, 0], c[:, 1])
        dots = p @ c.T
        denom = np.outer(pn, cn)
        # Zero-norm pairs carry no phase; score them as fully dissimilar.
        cos = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        dist += 1.0 - cos
    return dist


def mixed_distance(p, q, layout: DimensionLayout) -> float:
    """Euclidean over value+spatial indices plus, per circular pair,
    one minus the cosine similarity of the (cos, sin) sub-vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (layout.width,) or q.shape != (layout.width,):
        raise ValueError("vector width does not match layout")
    return float(_pairwise_mixed(p[None, :], q[None, :], layout)[0, 0])


# ---------------------------------------------------------------------------
# initialization

def _lexicographic_order(points) -> np.ndarray:
    # Primary key is column 0, then column 1, ...
    return np.lexsort(points.T[::-1])


def _seed_centers(points, layout, n, rng) -> np.ndarray:
    """Farthest-point seeding under the mixed metric.

    Candidates are scanned in lexicographic order, so the outcome is
    invariant to a permutation of the input rows for a fixed seed.
    """
    sorted_pts = points[_lexicographic_order(points)]
    first = int(rng.integers(sorted_pts.shape[0]))
    centers = [sorted_pts[first]]
    if n > 1:
        dist = _pairwise_mixed(sorted_pts, sorted_pts[first][None, :], layout)[:, 0]
        for _ in range(n - 1):
            nxt = int(np.argmax(dist))
            centers.append(sorted_pts[nxt])
            extra = _pairwise_mixed(sorted_pts, sorted_pts[nxt][None, :], layout)[:, 0]
            dist = np.minimum(dist, extra)
    return np.asarray(centers)


def _renormalize_pairs(centers, layout) -> np.ndarray:
    centers = centers.copy()
    for ci, si in layout.temporal_pairs:
        norm = np.hypot(centers[:, ci], centers[:, si])
        ok = norm > 0
        centers[ok, ci] /= norm[ok]
        centers[ok, si] /= norm[ok]
        centers[~ok, ci] = 1.0
        centers[~ok, si] = 0.0
    return centers


def kmeans_init(points, layout: DimensionLayout, n: int, seed=42,
                max_iter: int = 100):
    """Lloyd iterations under the mixed metric.

    Returns ``(centers, assignments)``.  Centers are per-cluster means
    with every circular pair re-normalized back onto the unit circle;
    a cluster that loses all members is re-seeded from the point
    farthest from its current center.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if n < 1:
        raise ValueError("n must be >= 1")
    if points.shape[0] < n:
        raise ValueError("fewer points than clusters")
    if points.shape[1] != layout.width:
        raise ValueError("vector width does not match layout")
    rng = np.random.default_rng(seed)
    centers = _renormalize_pairs(_seed_centers(points, layout, n, rng), layout)
    assign = None
    for _ in range(max_iter):
        dists = _pairwise_mixed(points, centers, layout)
        new_assign = dists.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=n)
        if np.any(counts == 0):
            own = dists[np.arange(points.shape[0]), new_assign]
            taken: set[int] = set()
            for j in np.flatnonzero(counts == 0):
                order = np.argsort(-own, kind="stable")
                pick = next(
                    (int(i) for i in order
                     if int(i) not in taken and counts[new_assign[i]] > 1),
                    int(order[0]),
                )
                centers[j] = points[pick]
                taken.add(pick)
            continue
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        sums = np.zeros((n, points.shape[1]))
        np.add.at(sums, assign, points)
        centers = _renormalize_pairs(sums / counts[:, None], layout)
    return centers, assign


# ---------------------------------------------------------------------------
# EM core


def _floor_covariance(cov, floor, diagonal=False):
    """Clamp eigenvalues to `floor`; returns (floored, raw_min, raw_max)."""
    if diagonal:
        raw = np.diag(cov).copy()
        return np.diag(np.maximum(raw, floor)), float(raw.min()), float(raw.max())
    vals, vecs = np.linalg.eigh(cov)
    floored = (vecs * np.maximum(vals, floor)) @ vecs.T
    return 0.5 * (floored + floored.T), float(vals.min()), float(vals.max())


def _hard_moments(points, assign, n, floor, centers, diagonal=False):
    """Initial (weights, means, covs, raw_eigs) from a hard assignment."""
    n_pts, dim = points.shape
    global_cov = np.cov(points, rowvar=False).reshape(dim, dim)
    counts = np.bincount(assign, minlength=n).astype(float)
    weights = np.maximum(counts, 1e-10)
    weights /= weights.sum()
    means = np.empty((n, dim))
    covs = np.empty((n, dim, dim))
    raw = []
    for j in range(n):
        members = points[assign == j]
        if members.shape[0] == 0:
            means[j] = centers[j]
            cov = global_cov
        else:
            means[j] = members.mean(axis=0)
            diff = members - means[j]
            cov = diff.T @ diff / members.shape[0]
        if diagonal:
            cov = np.diag(np.diag(cov))
        covs[j], lo, hi = _floor_covariance(cov, floor, diagonal)
        raw.append((lo, hi))
    return weights, means, covs, raw


def _m_step(points, resp, floor, diagonal):
    nk = resp.sum(axis=0) + 10.0 * np.finfo(float).eps
    weights = nk / nk.sum()
    means = (resp.T @ points) / nk[:, None]
    n, dim = means.shape
    covs = np.empty((n, dim, dim))
    raw = []
    for j in range(n):
        diff = points - means[j]
        cov = (resp[:, j][:, None] * diff).T @ diff / nk[j]
        cov = 0.5 * (cov + cov.T)
        if diagonal:
            cov = np.diag(np.diag(cov))
        covs[j], lo, hi = _floor_covariance(cov, floor, diagonal)
        raw.append((lo, hi))
    return weights, means, covs, raw


def _em_loop(points, params, cfg, diagonal):
    """Iterate EM from `params`; the likelihood trace is non-decreasing.

    If an update ever lowers the log-likelihood (possible once the
    eigenvalue floor starts rewriting covariances) the loop reverts to
    the previous parameters and stops, so the returned parameters always
    correspond to the last trace entry.
    """
    n_pts = points.shape[0]
    trace: list[float] = []
    prev_params = params
    for it in range(cfg.max_iter + 1):
        weights, means, covs, _ = params
        log_joint = MixtureCore(weights, means, covs).log_joint(points)
        log_norm = _logsumexp(log_joint, axis=1)
        ll = float(log_norm.sum())
        if trace and ll < trace[-1] - 1e-9:
            params = prev_params
            break
        converged = bool(trace) and abs(ll - trace[-1]) <= cfg.tol * n_pts
        trace.append(ll)
        if converged or it == cfg.max_iter:
            break
        prev_params = params
        resp = np.exp(log_joint - log_norm[:, None])
        params = _m_step(points, resp, cfg.eig_floor, diagonal)
    return params, trace


def _package(params, layout, trace, restarts, fallback) -> MixtureModel:
    weights, means, covs, raw = params
    comps = [
        GaussianComponent(float(weights[j]), means[j], covs[j])
        for j in range(means.shape[0])
    ]
    log = FitLog(
        iterations=len(trace),
        log_likelihood=trace[-1],
        ll_trace=trace,
        restarts=restarts,
        diagonal_fallback=fallback,
        raw_eigenvalues=[(float(lo), float(hi)) for lo, hi in raw],
    )
    return MixtureModel(comps, layout, log)


def _check_points(points, layout, cfg):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != layout.width:
        raise ValueError("vector width does not match layout")
    if points.shape[0] < cfg.n_clusters:
        raise ValueError("fewer points than clusters")
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite entry in points")
    return points


def _default_init(points, layout, cfg, attempt, diagonal):
    rng = np.random.default_rng([cfg.seed, attempt])
    centers = _seed_centers(points, layout, cfg.n_clusters, rng)
    assign = _pairwise_mixed(points, centers, layout).argmin(axis=1)
    return _hard_moments(points, assign, cfg.n_clusters, cfg.eig_floor,
                         centers, diagonal)


def _km_init(points, layout, cfg, attempt, diagonal):
    centers, assign = kmeans_init(points, layout, cfg.n_clusters,
                                  seed=[cfg.seed, attempt])
    return _hard_moments(points, assign, cfg.n_clusters, cfg.eig_floor,
                         centers, diagonal)


def detect_instability(model: MixtureModel, floor: float,
                       ceiling: float) -> bool:
    """True when any component covariance collapsed during fitting.

    Uses the pre-flooring eigenvalues recorded by the fit when present,
    otherwise the eigenvalues of the stored covariances.
    """
    log = model.fit_log
    if log is not None and log.raw_eigenvalues is not None:
        stats = log.raw_eigenvalues
    else:
        stats = []
        for comp in model.components:
            vals = np.linalg.eigvalsh(comp.covariance)
            stats.append((float(vals.min()), float(vals.max())))
    for lo, hi in stats:
        if lo < floor:
            return True
        if hi / max(lo, _TINY) > ceiling:
            return True
    return False


def em_fit_stable(points, layout: DimensionLayout, cfg: FitConfig,
                  _init=_default_init) -> MixtureModel:
    """EM with covariance-collapse handling.

    Unstable fits are retried with fresh seeded initializations up to
    ``cfg.max_restarts`` times; if none stabilizes, the final fit is
    redone with covariances constrained to diagonal matrices and the
    ``diagonal_fallback`` flag is set.
    """
    points = _check_points(points, layout, cfg)
    for attempt in range(cfg.max_restarts + 1):
        params = _init(points, layout, cfg, attempt, diagonal=False)
        params, trace = _em_loop(points, params, cfg, diagonal=False)
        model = _package(params, layout, trace, restarts=attempt, fallback=False)
        if not detect_instability(model, cfg.eig_floor, cfg.cond_ceiling):
            return model
    params = _init(points, layout, cfg, cfg.max_restarts + 1, diagonal=True)
    params, trace = _em_loop(points, params, cfg, diagonal=True)
    return _package(params, layout, trace, restarts=cfg.max_restarts,
                    fallback=True)


def km_fit(points, layout: DimensionLayout, cfg: FitConfig) -> MixtureModel:
    """k-means under the mixed metric, then EM refinement."""
    return em_fit_stable(points, layout, cfg, _init=_km_init)
