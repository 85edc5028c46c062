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

Every Gaussian evaluation goes through one :class:`MixtureCore`, which
stacks the k components: log-weights (k,), means (k, d), the inverses of
the lower Cholesky factors of the covariances (k, d, d) and the
log-normalisers (k,), plus, for a valued mixture, the same factors of
the marginal over the non-value dimensions and the regression of the
value on them.  A :class:`MixtureModel` builds its core on the first
evaluation (or on `MixtureModel.core`) and keeps it: a component edited
before that is honoured, one edited after it is not.  All k components
whiten their deviations in one batched product with the inverse factors,
so a density costs one matrix product and a max-shifted logsumexp over
the (k, N) table, built in place, after one check that the points are
finite.  A large batch of points is evaluated in column blocks, so that
memory does not grow with k.  An EM iteration takes that table as its
E-step; the exponentials the logsumexp leaves in it, over their sums,
are the M-step's responsibilities.  Both steps write their (k, d, N)
deviations into one pair of arrays kept for the whole fit; the M-step
runs the stacked `eigh` floor only where a Cholesky factoring fails,
and at d = 1 clamps the 1 x 1 covariances instead.

EM is accelerated by SQUAREM's SqS3 cycle (Varadhan & Roland, Scand. J.
Statistics 35, 2008) over the stacked (weights, means, covariances): two
EM steps theta0 -> theta1 -> theta2, the point ``theta0 + 2 s r + s^2
v``, with ``r = theta1 - theta0``, ``v = theta2 - 2 theta1 + theta0``
and ``s = |r|/|v|`` clamped to [1, limit], then one EM step from that
point.  At s = 1 the point is theta2.  The limit starts at 1 and grows
4-fold each time it binds on a used point.  A point is used only if its
weights are positive, no eigenvalue of its covariances is at or below
the floor and its log-likelihood is not below theta1's; otherwise the
cycle goes on from theta2 and the limit shrinks 4-fold, never below 1.
So the likelihood trace never decreases and ends at the returned
parameters.  It holds one entry per parameter set the fit moved through,
including used extrapolated points; `FitLog.iterations` is its length
and `FitConfig.max_iter` caps it at ``max_iter + 1``.  A rejected
point's likelihood evaluation is not in it.
"""

from dataclasses import dataclass, field

import numpy as np

from .projection import DimensionLayout

_LOG_2PI = float(np.log(2.0 * np.pi))
_TINY = np.finfo(float).tiny
# An unstable EM fit is retried from this many fresh initializations; a
# covariance whose eigenvalue ratio exceeds the ceiling counts as unstable.
MAX_RESTARTS = 5
COND_CEILING = 1e10
# SQUAREM's step limit starts at 1, plain EM, and grows by the factor each
# time it binds; each rejected extrapolation shrinks it, never below 1.
_STEP_START = 1.0
_STEP_FACTOR = 4.0


@dataclass
class FitConfig:
    """Knobs shared by both fitting backends."""

    n_clusters: int = 2
    max_iter: int = 100
    tol: float = 1e-6
    eig_floor: float = 1e-6
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
        core = MixtureCore([1.0], [self.mean], [self.covariance])
        return core.log_joint(_columns(points))[0]


def _columns(points):
    """The rows of `points` (N, dim) as columns (dim, N), after checking
    that every entry is finite."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(points).all():
        raise ValueError("cannot evaluate a Gaussian at a non-finite point")
    return points.T


def _cholesky(cov):
    """Lower Cholesky factor of `cov` (or of each of a stack), None if
    one is not positive definite."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return None
    return chol if np.isfinite(chol).all() else None


def _inverse_factor(covs):
    """For a (k, dim, dim) stack of covariances: the inverses of their
    lower Cholesky factors (k, dim, dim) and the log-normalisers
    ``dim * log(2 pi) + log det cov`` (k,)."""
    chol = _cholesky(covs)
    if chol is None:
        j = next(j for j, cov in enumerate(covs) if _cholesky(cov) is None)
        raise np.linalg.LinAlgError(
            f"components[{j}].covariance is not positive definite")
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(-1)
    # The inverse of a lower factor is lower; pivoting in `inv` can leave
    # rounding noise above the diagonal.
    return np.tril(np.linalg.inv(chol)), covs.shape[-1] * _LOG_2PI + logdet


def _log_joint(diff, log_weights, inv_chol, norms, out=None):
    """``log w - (norm + |M diff|^2) / 2`` (k, N), built in place: the
    weighted log densities at the deviations `diff` (k, dim, N) from the k
    means; the whitened deviations go to `out` if given."""
    dev = np.matmul(inv_chol, diff, out=out)
    table = np.einsum("kdn,kdn->kn", dev, dev)
    table += norms[:, None]
    table *= -0.5
    table += log_weights[:, None]
    return table


# Densities at a batch of points are evaluated over column blocks of at
# most this many (component, dimension, point) entries, so that their
# memory does not grow with the number of components.
_BLOCK_ENTRIES = 1 << 20


def _blocks(cols, k):
    """Consecutive column blocks of `cols` (dim, N) whose (k, dim, block)
    arrays hold at most `_BLOCK_ENTRIES` entries; one block if N = 0."""
    step = max(1, _BLOCK_ENTRIES // (k * max(cols.shape[0], 1)))
    return [cols[:, i:i + step] for i in range(0, max(cols.shape[1], 1), step)]


def _logsumexp(a, keep=False):
    """``log(sum(exp(a - top))) + top`` along axis 0, `top` the maximum,
    overwriting `a` with ``exp(a - top)``; `keep` also returns those and
    their sums.  A non-finite `top` shifts by 0, which gives scipy's -inf,
    inf or NaN for a column of -inf, with +inf, or with NaN."""
    top = a.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        exps = np.exp(np.subtract(a, top, out=a), out=a)
        sums = exps.sum(axis=0)
        out = np.log(sums) + top
    return (out, exps, sums) if keep else out


class MixtureCore:
    """Stacked factors of a Gaussian mixture, computed once per parameter
    set.

    Over the k components: `log_weights` (k,), `means` (k, dim),
    `inv_chol` (k, dim, dim), the inverses of the lower Cholesky factors
    of the covariances, and `norms` (k,), the log-normalisers.  With
    `valued`, dimension 0 is the value and the core also holds the same
    two factors of the marginals over the remaining ("rest") dimensions,
    and `betas` (k, rest), the regression coefficients of the value on
    them.
    """

    def __init__(self, weights, means, covs, valued=False):
        self.log_weights = np.log(np.array(weights, dtype=float))
        self.means = np.array(means, dtype=float)
        covs = np.asarray(covs, dtype=float)
        self.inv_chol, self.norms = _inverse_factor(covs)
        if valued:
            s_rr = covs[:, 1:, 1:]
            self.betas = np.linalg.solve(s_rr, covs[:, 1:, :1])[..., 0]
            self.rest_inv_chol, self.rest_norms = _inverse_factor(s_rr)

    def log_joint(self, cols, work=(None, None)) -> np.ndarray:
        """``log w_j + log N_j(x)`` (k, N) for every column x of `cols`
        (dim, N) and component j.  `work`, a pair of (k, dim, N) arrays,
        takes the deviations in place of two new arrays."""
        diff = np.subtract(cols[None], self.means[:, :, None], out=work[0])
        return _log_joint(diff, self.log_weights, self.inv_chol, self.norms,
                          out=work[1])

    def value_terms(self, rest_pts):
        """Per row of `rest_pts`: ``(sum_j w_j q_j c_j, sum_j w_j q_j)``,
        where q_j is component j's marginal density over the rest
        dimensions and c_j the conditional mean of the value given them."""
        cols = _columns(rest_pts)
        # Made before the blocks' temporaries: no join copy, less peak RSS.
        unscaled, mass = np.empty((2, cols.shape[1]))
        j = 0
        for block in _blocks(cols, len(self.log_weights)):
            i, j = j, j + block.shape[1]
            diff = block[None] - self.means[:, 1:, None]
            # Unshifted: a max shift cannot stop these sums underflowing.
            wq = _log_joint(diff, self.log_weights, self.rest_inv_chol,
                            self.rest_norms)
            wq = np.exp(wq, out=wq)
            c = self.means[:, :1] + (self.betas[:, None] @ diff)[:, 0]
            (wq * c).sum(axis=0, out=unscaled[i:j])
            wq.sum(axis=0, out=mass[i:j])
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
        logs = [_logsumexp(self.core.log_joint(cols))
                for cols in _blocks(_columns(points), self.n)]
        return logs[0] if len(logs) == 1 else np.concatenate(logs)

    def pdf(self, points) -> np.ndarray:
        return np.exp(self.logpdf(points))

    def product_pdf(self, spatial, temporal):
        """``pdf(times)``: the (B, P, t) densities at every pairing of the P
        points of `spatial` (B, P, s), the first s coordinates, with the
        times `temporal[:, times]` of the same box, the rest.

        Each inverse factor splits as ``M = [[M_ss, 0], [M_ts, M_tt]]``,
        with ``M_ss = L_ss^-1``, ``M_tt = L_tt^-1`` and ``M_ts = -L_tt^-1
        L_ts L_ss^-1``.  So the whitened deviation of a pair (x, h) is
        ``(z, W + u)``, with ``(z, W) = M[:, :s] (x - mu_s)`` once per
        point and ``u = M_tt (h - mu_t)`` once per time, and the quadratic
        form ``|z|^2 + |W|^2 + |u|^2 + 2 W.u`` of all pairs takes one
        batched matrix product.  The expansion rounds to about eps *
        (|W|^2 + |u|^2) in the log density, so a component tight in time
        loses digits: 1e-14 relative on fitted event models, 8e-14 with
        every temporal variance shrunk 100-fold.
        """
        n_box, n_pts, s = spatial.shape
        n_t = temporal.shape[1]
        core, k = self.core, self.n
        zw = core.inv_chol[:, :, :s] @ (
            _columns(spatial.reshape(-1, s))[None] - core.means[:, :s, None])
        u = core.inv_chol[:, s:, s:] @ (
            _columns(temporal.reshape(n_box * n_t, -1))[None]
            - core.means[:, s:, None])
        # Per point lw - (norm + |z|^2 + |W|^2) / 2 and per time
        # -|u|^2 / 2; each pair adds -W.u.
        per_pt = (core.log_weights[:, None] - 0.5 * (
            core.norms[:, None] + np.einsum("kdn,kdn->kn", zw, zw))
        ).reshape(k, n_box, n_pts, 1)
        per_t = -0.5 * np.einsum("kdn,kdn->kn", u, u).reshape(k, n_box, 1, n_t)
        neg_w = np.ascontiguousarray(
            -zw[:, s:].reshape(k, -1, n_box, n_pts).transpose(0, 2, 3, 1))
        u = np.ascontiguousarray(
            u.reshape(k, -1, n_box, n_t).transpose(0, 2, 1, 3))

        def pdf(times):
            out = np.matmul(neg_w, u[..., times])
            out += per_pt
            out += per_t[..., times]
            # In place: one more table-sized array raises grids' peak RSS.
            return np.exp(_logsumexp(out))
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
    farthest from its current center.  With fewer distinct points than
    clusters, some stay empty in the assignments to the last centers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    points = _check_points(points, layout, n)
    rng = np.random.default_rng(seed)
    centers = _renormalize_pairs(_seed_centers(points, layout, n, rng), layout)
    assign = None
    for _ in range(max_iter):
        dists = _pairwise_mixed(points, centers, layout)
        new_assign = dists.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=n)
        if np.any(counts == 0):
            own = dists[np.arange(points.shape[0]), new_assign]
            # Farthest first, ties in lexicographic order as in seeding.
            order = np.lexsort((*points.T[::-1], -own))
            taken: set[int] = set()
            for j in np.flatnonzero(counts == 0):
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
    if assign is None:
        assign = _pairwise_mixed(points, centers, layout).argmin(axis=1)
    return centers, assign


# ---------------------------------------------------------------------------
# EM core


def _clears_floor(covs, floor):
    """Whether every eigenvalue of the (k, d, d) `covs` is above `floor`:
    a Cholesky factoring of ``covs - floor * I`` fails exactly when one is
    at or below it; at d = 1 the entries themselves decide."""
    if covs.shape[-1] == 1:
        return bool((covs[:, 0, 0] > floor).all())
    return _cholesky(covs - floor * np.eye(covs.shape[-1])) is not None


def _floor_covariance(covs, floor, diagonal=False):
    """Clamp the eigenvalues of each of the (k, d, d) `covs` (with
    `diagonal`, or at d = 1, its diagonal) to `floor`; also returns the
    raw (min, max), or None when `covs` pass unchanged (`_clears_floor`)."""
    if not diagonal and _clears_floor(covs, floor):
        return covs, None
    if diagonal or covs.shape[-1] == 1:
        raw = np.diagonal(covs, axis1=1, axis2=2)
        floored = np.maximum(raw, floor)[..., None] * np.eye(covs.shape[-1])
    else:
        raw, vecs = np.linalg.eigh(covs)
        floored = (vecs * np.maximum(raw, floor)[:, None]) \
            @ vecs.swapaxes(1, 2)
        floored = 0.5 * (floored + floored.swapaxes(1, 2))
    return floored, _extremes(raw)


def _extremes(vals):
    return list(zip(vals.min(axis=1).tolist(), vals.max(axis=1).tolist()))


def _hard_moments(points, assign, cfg, centers, diagonal=False):
    """Initial (weights, means, covs, raw_eigs) from a hard assignment."""
    n, dim = cfg.n_clusters, points.shape[1]
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
    return weights, means, *_floor_covariance(covs, cfg.eig_floor, diagonal)


def _m_step(points, cols, resp, work, floor, diagonal):
    """M-step on the (k, N) responsibilities `resp` of the rows of
    `points` (N, dim), whose columns (dim, N) are `cols`; `work` is as in
    `MixtureCore.log_joint`."""
    nk = resp.sum(axis=1) + 10.0 * np.finfo(float).eps
    weights = nk / nk.sum()
    means = (resp @ points) / nk[:, None]
    diff = np.subtract(cols[None], means[:, :, None], out=work[0])
    weighted = np.multiply(resp[:, None], diff, out=work[1])
    covs = weighted @ diff.swapaxes(1, 2) / nk[:, None, None]
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    return weights, means, *_floor_covariance(covs, floor, diagonal)


def _extrapolate(theta0, theta1, theta2, limit):
    """SQUAREM's SqS3 point ``theta0 + 2 s r + s^2 v`` over the stacked
    (weights, means, covs) of two EM steps theta0 -> theta1 -> theta2, with
    ``r = theta1 - theta0``, ``v = theta2 - 2 theta1 + theta0`` and ``s =
    |r|/|v|`` clamped to [1, `limit`]; also returns whether the limit
    bound."""
    r = [b - a for a, b in zip(theta0[:3], theta1[:3])]
    v = [c - b - x for b, c, x in zip(theta1[:3], theta2[:3], r)]
    sr2 = sum(float((x * x).sum()) for x in r)
    sv2 = sum(float((x * x).sum()) for x in v)
    step = min(limit, max(1.0, float(np.sqrt(sr2 / sv2)))) if sv2 > 0 \
        else limit
    point = [a + (2.0 * step) * x + (step * step) * y
             for a, x, y in zip(theta0[:3], r, v)]
    return (*point, None), step == limit


def _em_loop(points, params, cfg, diagonal):
    """SQUAREM-accelerated EM from `params`, cycle by cycle as the module
    docstring describes.

    If an EM step ever lowers the log-likelihood (possible once the
    eigenvalue floor starts rewriting covariances) the loop returns the
    parameters before it and stops, so the returned parameters always
    correspond to the last trace entry.  Returns ``(params, trace,
    stop)`` with `stop` as in `FitLog.stop`.
    """
    n_pts, dim = points.shape
    cols = np.ascontiguousarray(points.T)
    # One pair of (k, dim, N) arrays serves every step.  New ones on each
    # step made glibc hand the freed heap top back to the OS every time,
    # and the page faults (about 660 a step at k = 8, dim = 11, N = 2,016)
    # took as long as the arithmetic.
    work = np.empty((2, len(params[0]), dim, n_pts))

    def e_step(params):
        """The log-likelihood at `params` and the responsibilities."""
        log_norm, exps, sums = _logsumexp(
            MixtureCore(*params[:3]).log_joint(cols, work), keep=True)
        return float(log_norm.sum()), np.divide(exps, sums, out=exps)

    def m_step(resp):
        return _m_step(points, cols, resp, work, cfg.eig_floor, diagonal)

    def record(ll):
        """Append `ll` to the trace; the reason to stop there, if any."""
        converged = abs(ll - trace[-1]) <= cfg.tol * n_pts
        trace.append(ll)
        if converged or len(trace) > cfg.max_iter:
            return "tol" if converged else "max_iter"
        return None

    def advance(old, new):
        """The E-step at `new`, one EM step on from `old`: `new` (or `old`
        if the step lost likelihood), the responsibilities at `new` and
        the reason to stop, if any."""
        ll, resp = e_step(new)
        if ll < trace[-1] - 1e-9:
            return old, resp, "reverted"
        return new, resp, record(ll)

    ll, resp = e_step(params)
    trace = [ll]
    limit = _STEP_START
    while True:
        theta0 = params
        params, resp, stop = advance(theta0, m_step(resp))
        if stop:
            return params, trace, stop
        theta1, theta2 = params, m_step(resp)
        point, bound = _extrapolate(theta0, theta1, theta2, limit)
        ll = -np.inf
        if (point[0] > 0).all() and _clears_floor(point[2], cfg.eig_floor):
            ll, resp = e_step(point)
        if ll >= trace[-1]:
            stop = record(ll)
            if stop:
                return point, trace, stop
            if bound:
                limit *= _STEP_FACTOR
            params, resp, stop = advance(point, m_step(resp))
        else:
            limit = max(_STEP_START, limit / _STEP_FACTOR)
            params, resp, stop = advance(theta1, theta2)
        if stop:
            return params, trace, stop


def _package(params, trace, stop, layout, restarts,
             fallback) -> MixtureModel:
    weights, means, covs, raw = params  # raw None: covs are not floored
    raw = raw or _extremes(np.linalg.eigvalsh(covs))
    comps = [GaussianComponent(float(w), m, c)
             for w, m, c in zip(weights, means, covs)]
    return MixtureModel(comps, layout, FitLog(
        len(trace), trace[-1], trace, restarts, fallback, raw, stop))


def _check_points(points, layout, n):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != layout.width:
        raise ValueError("vector width does not match layout")
    if points.shape[0] < n:
        raise ValueError("fewer points than clusters")
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite entry in points")
    return points


def _default_init(points, layout, cfg, attempt, diagonal):
    rng = np.random.default_rng([cfg.seed, attempt])
    centers = _seed_centers(points, layout, cfg.n_clusters, rng)
    assign = _pairwise_mixed(points, centers, layout).argmin(axis=1)
    return _hard_moments(points, assign, cfg, centers, diagonal)


def _km_init(points, layout, cfg, attempt, diagonal):
    centers, assign = kmeans_init(points, layout, cfg.n_clusters,
                                  seed=[cfg.seed, attempt])
    return _hard_moments(points, assign, cfg, centers, diagonal)


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
        stats = _extremes(np.linalg.eigvalsh(
            [c.covariance for c in model.components]))
    return any(lo < floor or hi / max(lo, _TINY) > ceiling
               for lo, hi in stats)


def em_fit_stable(points, layout: DimensionLayout, cfg: FitConfig,
                  _init=_default_init) -> MixtureModel:
    """EM with covariance-collapse handling.

    Unstable fits are retried with fresh seeded initializations up to
    `MAX_RESTARTS` times; if none stabilizes, the final fit is
    redone with covariances constrained to diagonal matrices and the
    ``diagonal_fallback`` flag is set.
    """
    points = _check_points(points, layout, cfg.n_clusters)
    for attempt in range(MAX_RESTARTS + 1):
        params = _init(points, layout, cfg, attempt, diagonal=False)
        model = _package(*_em_loop(points, params, cfg, diagonal=False),
                         layout, restarts=attempt, fallback=False)
        if not detect_instability(model, cfg.eig_floor, COND_CEILING):
            return model
    params = _init(points, layout, cfg, MAX_RESTARTS + 1, diagonal=True)
    return _package(*_em_loop(points, params, cfg, diagonal=True), layout,
                    restarts=MAX_RESTARTS, fallback=True)


def km_fit(points, layout: DimensionLayout, cfg: FitConfig) -> MixtureModel:
    """k-means under the mixed metric, then EM refinement."""
    return em_fit_stable(points, layout, cfg, _init=_km_init)
