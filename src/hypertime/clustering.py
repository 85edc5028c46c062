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
before that is honoured, one edited after it is not.  Densities solve
against the cached factor with LAPACK's ``dtrtrs`` directly, as
``scipy.linalg.solve_triangular`` would, checking only that the points
are finite.  Each EM E-step builds a core and its components-first
(k, N) table, one row per component, and sums across the rows in the
order numpy sums a row of an (N, k) table (`_row_sum`); cores factor,
and M-steps floor, all k covariances in one stacked LAPACK call.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

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
        return _logpdf_at(points - self.mean, *_factor(self.covariance))


def _factor(cov):
    """Lower Cholesky factor of `cov` and the log-normaliser
    ``dim * log(2 pi) + log det cov`` of a Gaussian with that covariance;
    for a (k, dim, dim) stack, the k factors and log-normalisers."""
    chol = np.linalg.cholesky(cov)
    if not np.isfinite(chol).all():
        raise np.linalg.LinAlgError("covariance has a non-finite entry")
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(-1)
    return chol, cov.shape[-1] * _LOG_2PI + logdet


def _logpdf_at(diff, chol, norm):
    """Gaussian log density at deviations `diff` (N, dim) from the mean."""
    dev = _whiten(diff, chol)
    return -0.5 * (norm + np.einsum("ij,ij->j", dev, dev))


def _whiten(diff, chol):
    """``chol^-1 diff.T`` (dim, N) for deviations `diff` (N, dim).

    Calls LAPACK's ``dtrtrs`` the way
    ``scipy.linalg.solve_triangular(chol, diff.T, lower=True)`` calls it,
    so the result is that formula's bit for bit; only the wrapper's
    per-call checks are left out.
    """
    if not np.isfinite(diff).all():
        raise ValueError("cannot evaluate a Gaussian at a non-finite point")
    if diff.size == 0:
        return np.zeros(diff.shape[::-1])
    if chol.flags.f_contiguous:
        dev, info = dtrtrs(chol, diff.T, lower=1, trans=0)
    else:
        # dtrtrs expects Fortran order: solve the transposed system.
        dev, info = dtrtrs(chol.T, diff.T, lower=0, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info {info}")
    return dev


def _logsumexp(a, axis, total=None):
    """``scipy.special.logsumexp(a, axis=axis)`` of a real array, bit for bit.

    Scipy's formula: with m entries equal to the maximum and s the sum of
    exp(a - max) over the other entries, the result is
    ``log1p(s / m) + log(m) + max``; where that is not finite it is
    ``log(sum(exp(a)))``.  The sums run along `axis` in `a`'s own memory
    layout, so a caller must pass the layout scipy was given, or a
    `total` that sums along `axis` in that order, keeping the axis.
    """
    total = total or (lambda x: x.sum(axis=axis, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis=axis, keepdims=True)
        at_top = a == top
        m = at_top.sum(axis=axis, keepdims=True, dtype=float)
        s = total(np.exp(np.where(at_top, -np.inf, a) - top))
        out = np.log1p(s / m) + np.log(m) + top
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(total(np.exp(a))), out)
    return out.squeeze(axis)


def _row_sum(a):
    """``np.ascontiguousarray(a.T).sum(axis=1)`` of a (k, N) array, shape
    (1, N), without the transpose: numpy sums a row in sequence below 8
    entries, else in 8 accumulators (entry i into i mod 8) combined
    pairwise and then the rest, and halves rows over 128 entries first."""
    k, n = a.shape
    if k < 8:
        return a.sum(axis=0, keepdims=True)
    if k > 128:
        return np.ascontiguousarray(a.T).sum(axis=1)[None]
    tail = k - k % 8
    acc = a[:tail].reshape(-1, 8, n).sum(axis=0)
    out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) \
        + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for row in a[tail:]:
        out += row
    return out[None]


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
        covs = np.asarray(covs, dtype=float)
        try:
            self.factors = list(zip(*_factor(covs)))
        except np.linalg.LinAlgError:
            for j, cov in enumerate(covs):  # name the first failing one
                try:
                    _factor(cov)
                except np.linalg.LinAlgError:
                    raise np.linalg.LinAlgError(
                        f"components[{j}].covariance is not positive "
                        "definite") from None
            raise
        # Per component of a valued mixture: (rest mean, rest Cholesky
        # factor, rest log-normaliser, beta; empty without rest dims).
        self.rest = []
        if valued:
            s_rr = covs[:, 1:, 1:]
            betas = np.linalg.solve(s_rr, covs[:, 1:, :1])[..., 0]
            self.rest = list(zip([m[1:] for m in self.means], *_factor(s_rr),
                                 betas))

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
    # Why EM stopped: "tol", "max_iter" or "reverted"; never saved.
    stop: str | None = None


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

    def product_pdf(self, spatial, temporal):
        """``pdf(times)``: the (B, P, t) densities at every pairing of the P
        points of `spatial` (B, P, s), the first s coordinates, with the
        times `temporal[:, times]` of the same box, the rest.

        Each cached factor splits as ``L = [[L_ss, 0], [L_ts, L_tt]]``, so
        the whitened deviation of a pair (x, h) is ``(z, u - V)`` with
        ``z = L_ss^-1 (x - mu_s)`` and ``V = L_tt^-1 L_ts z`` solved once
        per point, ``u = L_tt^-1 (h - mu_t)`` once per time, and the
        quadratic form ``|z|^2 + |V|^2 + |u|^2 - 2 V.u`` of all pairs
        takes one matrix product.  A box of one point or one time shares
        nothing, so its pairs go through `pdf` as rows.  The expansion
        rounds to about eps * (|V|^2 + |u|^2) in the log density, so a
        component tight in time loses digits: 1e-14 relative on fitted
        event models, 8e-14 with every temporal variance shrunk 100-fold.
        """
        n_box, n_pts, s = spatial.shape
        n_t = temporal.shape[1]
        if n_pts == 1 or n_t == 1:
            rows = np.empty((n_box, n_pts, n_t, self.layout.width))
            rows[..., :s] = spatial[:, :, None]
            rows[..., s:] = temporal[:, None]

            def pdf(times):
                pts = rows[:, :, times]
                b, p, t, w = pts.shape
                flat = pts.reshape(b * p * t, w)
                return self.pdf(flat).reshape(pts.shape[:3])
            return pdf
        terms = []
        core = self.core
        for lw, mean, (chol, norm) in zip(core.log_weights, core.means,
                                          core.factors):
            z = _whiten((spatial - mean[:s]).reshape(n_box * n_pts, s),
                        chol[:s, :s])
            sol = _whiten(np.vstack([
                (temporal - mean[s:]).reshape(n_box * n_t, -1),
                z.T @ chol[s:, :s].T]), chol[s:, s:])
            u = sol[:, :n_box * n_t].reshape(-1, n_box, n_t)
            v = sol[:, n_box * n_t:].reshape(-1, n_box, n_pts)
            # Per point lw - (norm + |z|^2 + |V|^2) / 2 and per time
            # -|u|^2 / 2; each pair adds V.u.
            per_pt = lw - 0.5 * (norm + (z * z).sum(axis=0)
                                 + (v * v).sum(axis=0).reshape(-1))
            terms.append((per_pt.reshape(n_box, n_pts, 1),
                          v.transpose(1, 2, 0),
                          -0.5 * (u * u).sum(axis=0)[:, None],
                          u.transpose(1, 0, 2)))

        def pdf(times):
            out = np.empty((len(terms), n_box, n_pts, len(range(n_t)[times])))
            for j, (per_pt, v, per_t, u) in enumerate(terms):
                np.matmul(v, u[..., times], out=out[j])
                out[j] += per_pt
                out[j] += per_t[..., times]
            return np.exp(_logsumexp(out, axis=0))
        return pdf


# ---------------------------------------------------------------------------
# mixed metric


def _pairwise_mixed(points, centers, layout: DimensionLayout) -> np.ndarray:
    """Distance matrix (N, K) under the mixed metric."""
    linear = [layout.value_index] if layout.has_value else []
    linear += list(layout.spatial_indices)
    diff = points[:, None, linear] - centers[None, :, linear]
    dist = np.sqrt((diff * diff).sum(axis=-1))
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

def _seed_centers(points, layout, n, rng) -> np.ndarray:
    """Farthest-point seeding under the mixed metric.

    Candidates are scanned in lexicographic order, so the outcome is
    invariant to a permutation of the input rows for a fixed seed.
    """
    # Primary key is column 0, then column 1, ...
    sorted_pts = points[np.lexsort(points.T[::-1])]
    centers = [sorted_pts[int(rng.integers(sorted_pts.shape[0]))]]
    dist = np.inf
    for _ in range(n - 1):
        extra = _pairwise_mixed(sorted_pts, centers[-1][None, :], layout)
        dist = np.minimum(dist, extra[:, 0])
        centers.append(sorted_pts[int(np.argmax(dist))])
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


def _floor_covariance(covs, floor, diagonal=False):
    """Clamp the eigenvalues of each of the (k, d, d) `covs` (with
    `diagonal`, its diagonal) to `floor`; also returns the raw (min, max)."""
    if diagonal:
        raw = np.diagonal(covs, axis1=1, axis2=2)
        floored = np.maximum(raw, floor)[..., None] * np.eye(covs.shape[-1])
    else:
        raw, vecs = np.linalg.eigh(covs)
        floored = (vecs * np.maximum(raw, floor)[:, None]) \
            @ vecs.swapaxes(1, 2)
        floored = 0.5 * (floored + floored.swapaxes(1, 2))
    return floored, list(zip(raw.min(axis=1).tolist(),
                             raw.max(axis=1).tolist()))


def _hard_moments(points, assign, n, floor, centers, diagonal=False):
    """Initial (weights, means, covs, raw_eigs) from a hard assignment."""
    n_pts, dim = points.shape
    global_cov = np.cov(points, rowvar=False).reshape(dim, dim)
    counts = np.bincount(assign, minlength=n).astype(float)
    weights = np.maximum(counts, 1e-10)
    weights /= weights.sum()
    means = np.empty((n, dim))
    covs = np.empty((n, dim, dim))
    for j in range(n):
        members = points[assign == j]
        if members.shape[0] == 0:
            means[j] = centers[j]
            covs[j] = global_cov
        else:
            means[j] = members.mean(axis=0)
            diff = members - means[j]
            covs[j] = diff.T @ diff / members.shape[0]
    return weights, means, *_floor_covariance(covs, floor, diagonal)


def _m_step(points, resp, floor, diagonal):
    """M-step on (k, N) `resp`, summing nk and means in (N, k) order."""
    resp_nk = np.ascontiguousarray(resp.T)
    nk = resp_nk.sum(axis=0) + 10.0 * np.finfo(float).eps
    weights = nk / nk.sum()
    means = (resp_nk.T @ points) / nk[:, None]
    n, dim = means.shape
    covs = np.empty((n, dim, dim))
    for j in range(n):
        diff = points - means[j]
        covs[j] = (resp[j][:, None] * diff).T @ diff / nk[j]
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    return weights, means, *_floor_covariance(covs, floor, diagonal)


def _em_loop(points, params, cfg, diagonal):
    """Iterate EM from `params`; the likelihood trace is non-decreasing.

    If an update ever lowers the log-likelihood (possible once the
    eigenvalue floor starts rewriting covariances) the loop reverts to
    the previous parameters and stops, so the returned parameters always
    correspond to the last trace entry.  Returns ``(params, trace,
    stop)`` with `stop` as in `FitLog.stop`.
    """
    n_pts = points.shape[0]
    trace: list[float] = []
    prev_params = params
    for it in range(cfg.max_iter + 1):
        log_joint = MixtureCore(*params[:3]).log_joint(
            points, components_first=True)
        log_norm = _logsumexp(log_joint, axis=0, total=_row_sum)
        ll = float(log_norm.sum())
        if trace and ll < trace[-1] - 1e-9:
            return prev_params, trace, "reverted"
        converged = bool(trace) and abs(ll - trace[-1]) <= cfg.tol * n_pts
        trace.append(ll)
        if converged or it == cfg.max_iter:
            return params, trace, "tol" if converged else "max_iter"
        prev_params = params
        resp = np.exp(log_joint - log_norm)
        params = _m_step(points, resp, cfg.eig_floor, diagonal)


def _package(params, trace, stop, layout, restarts,
             fallback) -> MixtureModel:
    weights, means, covs, raw = params
    comps = [GaussianComponent(float(w), m, c)
             for w, m, c in zip(weights, means, covs)]
    log = FitLog(
        iterations=len(trace),
        log_likelihood=trace[-1],
        ll_trace=trace,
        restarts=restarts,
        diagonal_fallback=fallback,
        raw_eigenvalues=raw,
        stop=stop,
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
        vals = np.linalg.eigvalsh([c.covariance for c in model.components])
        stats = zip(vals.min(axis=1), vals.max(axis=1))
    return any(lo < floor or hi / max(lo, _TINY) > ceiling
               for lo, hi in stats)


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
        model = _package(*_em_loop(points, params, cfg, diagonal=False),
                         layout, restarts=attempt, fallback=False)
        if not detect_instability(model, cfg.eig_floor, cfg.cond_ceiling):
            return model
    params = _init(points, layout, cfg, cfg.max_restarts + 1, diagonal=True)
    return _package(*_em_loop(points, params, cfg, diagonal=True), layout,
                    restarts=cfg.max_restarts, fallback=True)


def km_fit(points, layout: DimensionLayout, cfg: FitConfig) -> MixtureModel:
    """k-means under the mixed metric, then EM refinement."""
    return em_fit_stable(points, layout, cfg, _init=_km_init)
