"""Mixture fitting: EM, stability handling, and mixed-metric k-means."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from hypertime import (
    DimensionLayout,
    FitConfig,
    GaussianComponent,
    MixtureModel,
    detect_instability,
    em_fit_stable,
    km_fit,
    kmeans_init,
    mixed_distance,
)
from hypertime import clustering
from hypertime.clustering import (COND_CEILING, MixtureCore, _default_init,
                                  _em_loop, _inverse_factor, _log_joint,
                                  _logsumexp, _pairwise_mixed)

VALUE_ONLY = DimensionLayout(True, 0, 0)
VALUE_1D = DimensionLayout(True, 1, 0)


def blobs_1d(seed=5, n=200):
    rng = np.random.default_rng(seed)
    pts = np.concatenate([rng.normal(-10, 1, n), rng.normal(10, 1, n)])
    return pts[:, None]


def ring_points(seed=0, n=60):
    rng = np.random.default_rng(seed)
    th = rng.uniform(0, 2 * np.pi, n)
    a = rng.normal(0, 1, n)
    return np.column_stack([a, np.cos(th), np.sin(th)])


def sorted_means(model):
    return np.array(sorted(tuple(c.mean) for c in model.components))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(n_clusters=0)
    with pytest.raises(ValueError):
        FitConfig(tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(backend="other")


def test_component_logpdf_matches_scipy():
    rng = np.random.default_rng(8)
    for _ in range(5):
        dim = rng.integers(1, 5)
        mean = rng.normal(0, 2, dim)
        root = rng.normal(0, 1, (dim, dim))
        cov = root @ root.T + 0.5 * np.eye(dim)
        comp = GaussianComponent(1.0, mean, cov)
        x = rng.normal(0, 2, (7, dim))
        expect = stats.multivariate_normal(mean, cov).logpdf(x)
        np.testing.assert_allclose(comp.logpdf(x), expect, atol=1e-10)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def conditioned_cov(rng, dim, cond):
    """A random covariance with eigenvalues spread from 1 down to 1/cond."""
    q, _ = np.linalg.qr(rng.normal(0, 1, (dim, dim)))
    cov = (q * np.logspace(0, -np.log10(cond), dim)) @ q.T
    return 0.5 * (cov + cov.T)


def random_mixture(rng, layout, k):
    comps = []
    for _ in range(k):
        root = rng.normal(0, 1, (layout.width, layout.width))
        cov = root @ root.T + 0.3 * np.eye(layout.width)
        comps.append(GaussianComponent(rng.uniform(0.2, 1.0),
                                       rng.normal(0, 1, layout.width), cov))
    total = sum(c.weight for c in comps)
    for c in comps:
        c.weight /= total
    return MixtureModel(comps, layout)


def scipy_logpdf(comp, pts):
    """`multivariate_normal.logpdf` of one component at the rows of `pts`
    (0 throughout for zero dimensions, which scipy does not take)."""
    if comp.dim == 0:
        return np.zeros(len(pts))
    return stats.multivariate_normal(comp.mean, comp.covariance).logpdf(pts)


def stacked_logpdf(mix, pts):
    """The mixture log density through scipy: each component's
    `multivariate_normal.logpdf`, then `logsumexp` across components."""
    stacked = np.stack([np.log(c.weight) + scipy_logpdf(c, pts)
                        for c in mix.components])
    return logsumexp(stacked.reshape(mix.n, -1), axis=0)


def hard_rows(rng, n, k):
    """Random log-joint rows with tied maxima, rows whose exponentials
    underflow, and rows that are -inf in some or all entries."""
    a = rng.normal(-5, 20, (n, k))
    a[: n // 8] = np.round(a[: n // 8])           # frequent ties
    a[n // 8: n // 4, :] = a[n // 8: n // 4, :1]  # every entry tied
    a[n // 4: n // 3] -= 1e4                      # exp underflows to 0
    a[n // 3: n // 3 + 5, 0] = -np.inf
    a[n // 3 + 5: n // 3 + 10] = -np.inf
    return a


def added_in_row_order(rows):
    """The sum of `rows` as a component-by-component loop adds them."""
    total = np.zeros(np.shape(rows)[1:])
    for row in rows:
        total += row
    return total


def plain_logsumexp(rows):
    """The max-shifted logsumexp across `rows`, one row at a time; also
    returns the shifted exponentials and their sums."""
    top = rows[0].copy()
    for row in rows[1:]:
        top = np.maximum(top, row)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        exps = [np.exp(row - top) for row in rows]
        sums = added_in_row_order(exps)
        return np.log(sums) + top, exps, sums


@pytest.mark.parametrize("k", range(1, 11))
def test_logsumexp_matches_scipy_bit_for_bit(k):
    # The (k, n) table every caller passes, reduced along axis 0: bit for
    # bit the row-by-row transcription, and scipy's logsumexp of the same
    # array bit for bit on non-finite columns and within 1e-15 relative
    # on the others (scipy adds exp(a - max) in another order).  The
    # absolute 1e-15 near 0 is 1e-15 relative in the sum of exponentials
    # (worst seen: 3.7e-16).
    rng = np.random.default_rng(100 + k)
    cols = np.ascontiguousarray(hard_rows(rng, 4000, k).T)
    expect = logsumexp(cols, axis=0)
    plain, exps, sums = plain_logsumexp(cols)
    got, got_exps, got_sums = _logsumexp(cols.copy(), keep=True)
    assert got.shape == (4000,)
    assert same_bits(got, plain) and same_bits(got_exps, exps)
    assert same_bits(got_sums, sums)
    assert same_bits(_logsumexp(cols.copy()), plain)
    finite = np.isfinite(expect)
    assert same_bits(got[~finite], expect[~finite])
    np.testing.assert_allclose(got[finite], expect[finite], rtol=1e-15,
                               atol=1e-15)


@pytest.mark.parametrize("k", [*range(1, 18), 130])
def test_row_sum_adds_in_numpys_row_order(k):
    # Sums across the k components run along axis 0 of a (k, n) array,
    # which numpy adds row after row for every k, unlike a sum along a
    # row (8 accumulators from 8 entries, halving above 128).  So the
    # stacked sums equal a loop over the components, bit for bit.
    rng = np.random.default_rng(300 + k)
    a = rng.normal(0, 1, (k, 3000)) * 10.0 ** rng.integers(-8, 9, (k, 3000))
    a[:, :20] = -0.0
    a[1:, 20:40] = -0.0
    a[0, 40], a[-1, 41], a[k // 2, 42] = np.inf, -np.inf, np.nan
    a[0, 43], a[-1, 43] = np.inf, -np.inf
    a[:, 44] = np.inf
    with np.errstate(invalid="ignore"):
        assert same_bits(a.sum(axis=0), added_in_row_order(a))
    # logsumexp's sums, non-finite columns included.
    assert same_bits(_logsumexp(a.copy()), plain_logsumexp(a)[0])
    # scipy's results where a column holds +inf or NaN, or only -inf.
    expect = logsumexp(a, axis=0)
    bad = ~np.isfinite(expect)
    assert bad.sum() == (4 if k > 1 else 5)
    assert same_bits(_logsumexp(a.copy())[bad], expect[bad])
    # A valued mixture's conditional-mean terms, against each component
    # on its own.
    lay = DimensionLayout(True, 1, 1)
    mix = random_mixture(rng, lay, k)
    rest = rng.normal(0, 2, (500, lay.width - 1))
    alone = [MixtureModel([c], lay).core for c in mix.components]
    for j, got in enumerate(mix.core.value_terms(rest)):
        parts = np.stack([core.value_terms(rest)[j] for core in alone])
        assert same_bits(got, added_in_row_order(parts))


def solved_logpdf(diff, chol, norm):
    """The Gaussian log density through scipy's solve_triangular, the
    formula the inverse factor replaces."""
    if diff.shape[1] == 0:
        return np.zeros(diff.shape[0])
    dev = solve_triangular(chol, diff.T, lower=True)
    quad = np.einsum("ij,ij->j", dev, dev)
    return -0.5 * (norm + quad)


@pytest.mark.parametrize("cond", [1e1, 1e6, COND_CEILING])
@pytest.mark.parametrize("dim", range(1, 12))
def test_inverse_factor_matches_solve_triangular(dim, cond):
    # Up to the condition number at which a fit counts as unstable, the
    # quadratic form through the explicit inverse factor stays within
    # 1e-10 relative of the triangular solve (worst seen: 1.3e-11).
    rng = np.random.default_rng(200 + dim)
    cov = conditioned_cov(rng, dim, cond)
    chol = np.linalg.cholesky(cov)
    inv_chol, norm = _inverse_factor(cov[None])
    assert not np.triu(inv_chol[0], 1).any()
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    np.testing.assert_allclose(norm[0], dim * np.log(2 * np.pi) + logdet,
                               rtol=1e-14, atol=1e-12)
    for n in (0, 1, 2, 1000):
        diff = rng.multivariate_normal(np.zeros(dim), cov, n) * 3.0
        got = _log_joint(diff.T[None], np.zeros(1), inv_chol, norm)[0]
        assert got.shape == (n,)
        quad = -2.0 * got - norm[0]
        expect = -2.0 * solved_logpdf(diff, chol, norm[0]) - norm[0]
        np.testing.assert_allclose(quad, expect, rtol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_logpdf_at_rejects_non_finite_rows(bad):
    # Every density evaluation checks its points once, by name.
    lay = DimensionLayout(True, 1, 1)
    mix = random_mixture(np.random.default_rng(3), lay, 2)
    pts = np.zeros((4, lay.width))
    pts[2, 1] = bad
    for evaluate in (mix.components[0].logpdf, mix.logpdf,
                     lambda p: mix.core.value_terms(p[:, 1:]),
                     lambda p: mix.product_pdf(p[None, :, :1],
                                               p[None, :, 1:])):
        with pytest.raises(ValueError, match="^cannot evaluate a Gaussian "
                                             "at a non-finite point$"):
            evaluate(pts)


@pytest.mark.parametrize("layout", [
    DimensionLayout(False, 0, 0), DimensionLayout(False, 2, 1),
    DimensionLayout(True, 0, 1), DimensionLayout(True, 1, 2)])
def test_mixture_logpdf_matches_scipy(layout):
    rng = np.random.default_rng(layout.width)
    for k in (1, 3, 10):
        mix = random_mixture(rng, layout, k)
        pts = rng.normal(0, 3, (2_000, layout.width))
        # An absolute 1e-12 in the log is 1e-12 relative in the density.
        np.testing.assert_allclose(mix.logpdf(pts), stacked_logpdf(mix, pts),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("layout", [
    DimensionLayout(False, 0, 0), DimensionLayout(False, 2, 1),
    DimensionLayout(True, 0, 1), DimensionLayout(True, 1, 2)])
def test_mixture_logpdf_matches_component_stack_bit_for_bit(layout):
    # The stacked core gives each component's own density, and sums them
    # as the max-shifted logsumexp does, one component at a time.
    rng = np.random.default_rng(layout.width)
    for k in (1, 3, 10):
        mix = random_mixture(rng, layout, k)
        # Enough rows that the widest layout is evaluated in two blocks
        # at k = 10.
        pts = rng.normal(0, 3, (20_000, layout.width))
        stacked = np.stack([np.log(c.weight) + c.logpdf(pts)
                            for c in mix.components])
        assert same_bits(mix.logpdf(pts), plain_logsumexp(stacked)[0])


def test_density_blocks_give_the_unblocked_values(monkeypatch):
    # Points are evaluated over column blocks; a block's width may change
    # the kernel BLAS picks, but nothing beyond rounding.
    rng = np.random.default_rng(23)
    lay = DimensionLayout(True, 1, 2)
    mix = random_mixture(rng, lay, 3)
    pts = rng.normal(0, 2, (1001, lay.width))
    whole = mix.logpdf(pts), *mix.core.value_terms(pts[:, 1:])
    monkeypatch.setattr(clustering, "_BLOCK_ENTRIES", 100)
    blocked = MixtureModel(mix.components, lay)
    assert len(clustering._blocks(pts.T, 3)) > 100
    for got, expect in zip((blocked.logpdf(pts),
                            *blocked.core.value_terms(pts[:, 1:])), whole):
        np.testing.assert_allclose(got, expect, rtol=1e-14)


def test_value_terms_are_zero_where_every_density_underflows():
    # At 1e160 every squared deviation overflows to inf, so each log term
    # is -inf and both sums are 0, as each w_j q_j is.
    lay = DimensionLayout(True, 1, 1)
    mix = random_mixture(np.random.default_rng(5), lay, 3)
    rest = np.array([[1e160, 0.0, 1.0], [0.0, 0.0, 1.0]])
    unscaled, mass = mix.core.value_terms(rest)
    assert unscaled[0] == mass[0] == 0.0
    assert np.isfinite(unscaled[1]) and mass[1] > 0.0


def test_mixture_logpdf_near_the_condition_ceiling():
    # scipy's multivariate_normal treats a covariance at cond 1e10 as
    # singular, so the oracle is the triangular solve per component,
    # held to the quadratic form's 1e-10.
    rng = np.random.default_rng(17)
    lay = DimensionLayout(True, 1, 2)
    covs = [conditioned_cov(rng, lay.width, c) for c in (1e2, COND_CEILING)]
    comps = [GaussianComponent(w, rng.normal(0, 1, lay.width), cov)
             for w, cov in zip((0.3, 0.7), covs)]
    mix = MixtureModel(comps, lay)
    pts = np.vstack([rng.multivariate_normal(c.mean, c.covariance, 500)
                     for c in comps])
    stacked = []
    for c in comps:
        chol = np.linalg.cholesky(c.covariance)
        norm = lay.width * np.log(2 * np.pi) + 2 * np.log(np.diag(chol)).sum()
        stacked.append(np.log(c.weight)
                       + solved_logpdf(pts - c.mean, chol, norm))
    np.testing.assert_allclose(mix.logpdf(pts), logsumexp(stacked, axis=0),
                               rtol=1e-10)


def test_em_log_joint_matches_component_formula():
    # The E-step's (k, n) table is each component's log density under
    # scipy plus its log-weight.
    rng = np.random.default_rng(41)
    lay = DimensionLayout(True, 1, 1)
    mix = random_mixture(rng, lay, 4)
    weights = np.array([c.weight for c in mix.components])
    means = np.stack([c.mean for c in mix.components])
    covs = np.stack([c.covariance for c in mix.components])
    pts = rng.normal(0, 2, (300, lay.width))
    table = MixtureCore(weights, means, covs).log_joint(pts.T)
    expect = np.stack([np.log(weights[j]) + stats.multivariate_normal(
        means[j], covs[j]).logpdf(pts) for j in range(4)])
    np.testing.assert_allclose(table, expect, rtol=1e-12, atol=1e-12)


def test_mixture_core_is_built_on_first_use_and_kept():
    rng = np.random.default_rng(42)
    mix = random_mixture(rng, DimensionLayout(True, 0, 1), 2)
    pts = rng.normal(0, 1, (5, 3))
    # An edit before the first evaluation is honoured ...
    mix.components[0].mean[0] = 5.0
    before = mix.logpdf(pts)
    np.testing.assert_allclose(before, stacked_logpdf(mix, pts), rtol=1e-12,
                               atol=1e-12)
    # ... and the factors are not rebuilt afterwards.
    core = mix.core
    mix.components[0].mean[0] = -5.0
    assert mix.core is core
    assert same_bits(mix.logpdf(pts), before)


def random_spd(rng, dim):
    root = rng.normal(0, 1, (dim, dim))
    return root @ root.T + 0.3 * np.eye(dim)


@pytest.mark.parametrize("bad", ["indefinite", "nan"])
@pytest.mark.parametrize("j", range(4))
def test_stacked_factoring_names_the_failing_component(bad, j):
    rng = np.random.default_rng(j)
    covs = np.stack([random_spd(rng, 3) for _ in range(4)])
    covs[j] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    if bad == "nan":
        covs[j] = np.eye(3)
        covs[j, 2, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"^components\[{j}\]\.covariance is not positive"):
        MixtureCore(np.full(4, 0.25), rng.normal(0, 1, (4, 3)), covs)


def test_mixture_core_names_a_non_positive_definite_component():
    bad = GaussianComponent(0.5, np.zeros(2), np.array([[1.0, 2.0],
                                                        [2.0, 1.0]]))
    good = GaussianComponent(0.5, np.zeros(2), np.eye(2))
    mix = MixtureModel([good, bad], DimensionLayout(False, 2, 0))
    with pytest.raises(ValueError, match=r"components\[1\]"):
        mix.logpdf(np.zeros((1, 2)))


def test_mixed_distance_identical_points():
    lay = DimensionLayout(True, 1, 1)
    p = np.array([0.5, 2.0, 1.0, 0.0])
    assert mixed_distance(p, p, lay) == pytest.approx(0.0)


def test_mixed_distance_antipodal_pairs():
    lay = DimensionLayout(False, 0, 2)
    p = np.array([1.0, 0.0, 0.0, 1.0])
    q = np.array([-1.0, 0.0, 0.0, -1.0])
    assert mixed_distance(p, q, lay) == pytest.approx(4.0)


def test_mixed_distance_no_temporal_is_euclidean():
    lay = DimensionLayout(True, 2, 0)
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([1.0, 3.0, 4.0])
    assert mixed_distance(p, q, lay) == pytest.approx(5.0)


def test_mixed_distance_zero_norm_pair_counts_one():
    lay = DimensionLayout(False, 0, 1)
    p = np.array([0.0, 0.0])
    q = np.array([1.0, 0.0])
    assert mixed_distance(p, q, lay) == pytest.approx(1.0)


def test_mixed_distance_symmetry():
    lay = DimensionLayout(True, 1, 1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, q = rng.normal(0, 1, (2, 4))
        d1 = mixed_distance(p, q, lay)
        assert d1 >= 0
        assert d1 == pytest.approx(mixed_distance(q, p, lay))


def test_kmeans_init_single_cluster():
    pts = ring_points(seed=2)
    lay = DimensionLayout(True, 0, 1)
    centers, assign = kmeans_init(pts, lay, 1, seed=0)
    assert np.all(assign == 0)
    assert centers[0, 0] == pytest.approx(pts[:, 0].mean())
    assert np.hypot(centers[0, 1], centers[0, 2]) == pytest.approx(1.0)


def test_kmeans_init_separates_antipodal_groups():
    lay = DimensionLayout(False, 0, 1)
    pts = np.array([
        [1.0, 0.0], [0.99, 0.14], [0.99, -0.14], [0.95, 0.3],
        [-1.0, 0.0], [-0.99, 0.14], [-0.99, -0.14], [-0.95, 0.3],
    ])
    _, assign = kmeans_init(pts, lay, 2, seed=1)
    assert len(set(assign[:4])) == 1
    assert len(set(assign[4:])) == 1
    assert assign[0] != assign[4]


def test_kmeans_init_n_equals_points():
    pts = ring_points(seed=4, n=6)
    lay = DimensionLayout(True, 0, 1)
    centers, assign = kmeans_init(pts, lay, 6, seed=0)
    assert sorted(assign) == list(range(6))
    for j in range(6):
        members = pts[assign == j]
        assert members.shape[0] == 1
        d = mixed_distance(members[0], centers[j], lay)
        assert d == pytest.approx(0.0, abs=1e-9)


def test_kmeans_init_deterministic():
    pts = ring_points(seed=9, n=50)
    lay = DimensionLayout(True, 0, 1)
    c1, a1 = kmeans_init(pts, lay, 4, seed=3)
    c2, a2 = kmeans_init(pts, lay, 4, seed=3)
    np.testing.assert_array_equal(c1, c2)
    np.testing.assert_array_equal(a1, a2)


def test_em_fit_separated_blobs():
    pts = blobs_1d()
    model = em_fit_stable(pts, VALUE_ONLY, FitConfig(n_clusters=2, seed=42))
    means = sorted(c.mean[0] for c in model.components)
    assert abs(means[0] - pts[:200].mean()) < 0.3
    assert abs(means[1] - pts[200:].mean()) < 0.3
    assert sum(c.weight for c in model.components) == pytest.approx(1.0,
                                                                    abs=1e-9)


def test_em_fit_single_component_closed_form():
    pts = blobs_1d(seed=1)
    model = em_fit_stable(pts, VALUE_ONLY, FitConfig(n_clusters=1, seed=0))
    comp = model.components[0]
    assert comp.weight == pytest.approx(1.0, abs=1e-9)
    assert comp.mean[0] == pytest.approx(pts.mean(), abs=1e-9)
    assert comp.covariance[0, 0] == pytest.approx(pts.var(), rel=1e-9)


def test_em_fit_rejects_too_few_points():
    pts = np.zeros((5, 1)) + np.arange(5)[:, None]
    with pytest.raises(ValueError):
        em_fit_stable(pts, VALUE_ONLY, FitConfig(n_clusters=10))


def test_em_fit_monotone_trace():
    rng = np.random.default_rng(12)
    pts = rng.normal(0, 1, (150, 2))
    pts[:50] += [4.0, 0.0]
    pts[50:100] += [0.0, 4.0]
    model = em_fit_stable(pts, VALUE_1D, FitConfig(n_clusters=3, seed=2))
    trace = np.asarray(model.fit_log.ll_trace)
    assert np.all(np.diff(trace) >= -1e-6)
    assert model.fit_log.log_likelihood == pytest.approx(trace[-1])


def test_em_fit_respects_covariance_floor():
    cfg = FitConfig(n_clusters=2, seed=0, eig_floor=1e-6)
    pts = blobs_1d(seed=7)
    model = em_fit_stable(pts, VALUE_ONLY, cfg)
    for comp in model.components:
        eig = np.linalg.eigvalsh(comp.covariance)
        assert eig.min() >= cfg.eig_floor * (1 - 1e-12)


def test_detect_instability_cases():
    ok = GaussianComponent(1.0, np.zeros(2), np.eye(2))
    from hypertime import MixtureModel
    lay = DimensionLayout(True, 1, 0)
    healthy = MixtureModel([ok], lay, None)
    assert not detect_instability(healthy, 1e-9, 1e10)

    tiny = GaussianComponent(1.0, np.zeros(2), np.diag([1.0, 1e-15]))
    assert detect_instability(MixtureModel([tiny], lay, None), 1e-9, 1e10)

    spread = GaussianComponent(1.0, np.zeros(2), np.diag([1e6, 1e-6]))
    assert detect_instability(MixtureModel([spread], lay, None), 1e-9, 1e10)


def test_em_fit_stable_healthy_equals_plain():
    pts = blobs_1d(seed=3)
    cfg = FitConfig(n_clusters=2, seed=11)
    stable = em_fit_stable(pts, VALUE_ONLY, cfg)
    # No restart and no fallback: the result is the first plain EM run.
    assert stable.fit_log.restarts == 0
    assert not stable.fit_log.diagonal_fallback
    np.testing.assert_allclose(sorted_means(stable)[:, 0],
                               [pts[:200].mean(), pts[200:].mean()], atol=0.3)


def test_em_fit_stable_degenerate_duplicates():
    rng = np.random.default_rng(6)
    pts = np.vstack([np.tile([[1.0, 2.0]], (100, 1)),
                     rng.normal(0, 1, (100, 2))])
    model = em_fit_stable(pts, VALUE_1D, FitConfig(n_clusters=2, seed=1))
    for comp in model.components:
        assert np.all(np.isfinite(comp.mean))
        assert np.all(np.isfinite(comp.covariance))
        assert comp.weight > 0
    floored = any(
        min(lo for lo, _ in [pair]) <= 1e-6
        for comp_eigs in model.fit_log.raw_eigenvalues
        for pair in [comp_eigs]
    )
    assert model.fit_log.diagonal_fallback or floored


def test_em_fit_stable_seed_robustness():
    pts = blobs_1d(seed=8)
    m1 = em_fit_stable(pts, VALUE_ONLY, FitConfig(n_clusters=2, seed=1))
    m2 = em_fit_stable(pts, VALUE_ONLY, FitConfig(n_clusters=2, seed=2))
    np.testing.assert_allclose(sorted_means(m1), sorted_means(m2), atol=0.3)


def test_permutation_invariance():
    rng = np.random.default_rng(10)
    pts = rng.normal(0, 1, (120, 2))
    pts[:60] += [4.0, 0.0]
    perm = rng.permutation(120)
    for fit in (em_fit_stable, km_fit):
        cfg = FitConfig(n_clusters=2, seed=9)
        a = fit(pts, VALUE_1D, cfg)
        b = fit(pts[perm], VALUE_1D, cfg)
        np.testing.assert_allclose(sorted_means(a), sorted_means(b),
                                   atol=1e-8)


def test_km_fit_matches_em_on_blobs():
    pts = blobs_1d(seed=5)
    cfg = FitConfig(n_clusters=2, seed=42)
    km = km_fit(pts, VALUE_ONLY, cfg)
    em = em_fit_stable(pts, VALUE_ONLY, cfg)
    np.testing.assert_allclose(sorted_means(km), sorted_means(em), atol=0.3)


def test_km_fit_single_component_equals_em():
    pts = ring_points(seed=1)
    lay = DimensionLayout(True, 0, 1)
    cfg = FitConfig(n_clusters=1, seed=0)
    km = km_fit(pts, lay, cfg)
    em = em_fit_stable(pts, lay, cfg)
    np.testing.assert_allclose(km.components[0].mean, em.components[0].mean,
                               atol=1e-9)
    np.testing.assert_allclose(km.components[0].covariance,
                               em.components[0].covariance, atol=1e-9)


def test_km_fit_deterministic_log():
    pts = ring_points(seed=13, n=80)
    lay = DimensionLayout(True, 0, 1)
    cfg = FitConfig(n_clusters=3, seed=21)
    a = km_fit(pts, lay, cfg)
    b = km_fit(pts, lay, cfg)
    assert a.fit_log.iterations == b.fit_log.iterations
    np.testing.assert_array_equal(a.fit_log.ll_trace, b.fit_log.ll_trace)
    assert a.fit_log.log_likelihood == b.fit_log.log_likelihood


def test_points_validated():
    with pytest.raises(ValueError):
        em_fit_stable(np.array([[np.nan]]), VALUE_ONLY,
                      FitConfig(n_clusters=1))
    with pytest.raises(ValueError):
        em_fit_stable(np.zeros((4, 3)), VALUE_ONLY, FitConfig(n_clusters=1))
    # k-means checks its points as EM does.
    with pytest.raises(ValueError, match="^non-finite entry in points$"):
        kmeans_init(np.array([[np.inf], [1.0]]), VALUE_ONLY, 1)
    with pytest.raises(ValueError, match="^fewer points than clusters$"):
        kmeans_init(np.zeros((2, 1)), VALUE_ONLY, 3)


# ---------------------------------------------------------------------------
# EM oracles, one component at a time.  The slow formula: an (n, k) table
# through the triangular solve and scipy's logsumexp, with the eigenvalue
# floor applied by `eigh` on every step, which the stacked EM meets to
# rounding.  The exact one: a (k, n) table, each row through its own
# inverse Cholesky factor, the max-shifted logsumexp row by row, and the
# floor only on steps where some covariance has an eigenvalue at or below
# it, which the stacked EM meets bit for bit, for every k and both
# covariance forms.


def ref_log_joint(weights, means, covs, points):
    """``log w_j + log N_j(x)`` as an (n, k) table, column by column."""
    out = np.empty((points.shape[0], len(means)))
    for j in range(len(means)):
        chol = np.linalg.cholesky(covs[j])
        norm = (covs[j].shape[0] * float(np.log(2.0 * np.pi))
                + 2.0 * float(np.log(np.diag(chol)).sum()))
        out[:, j] = np.log(weights[j]) + solved_logpdf(points - means[j],
                                                       chol, norm)
    return out


def ref_floor(cov, floor, diagonal):
    if diagonal:
        raw = np.diag(cov).copy()
        return np.diag(np.maximum(raw, floor)), float(raw.min()), float(raw.max())
    vals, vecs = np.linalg.eigh(cov)
    floored = (vecs * np.maximum(vals, floor)) @ vecs.T
    return 0.5 * (floored + floored.T), float(vals.min()), float(vals.max())


def floor_fires(covs, floor):
    """Whether some covariance has an eigenvalue at or below `floor`, by
    the Cholesky factoring of each covariance less the floor."""
    for cov in covs:
        try:
            chol = np.linalg.cholesky(cov - floor * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            return True
        if not np.isfinite(chol).all():
            return True
    return False


def floored_where_it_fires(covs, floor, diagonal):
    """`ref_floor` of each covariance when the floor fires on any of them
    (or for the diagonal form), with the raw (min, max) pairs; otherwise
    the covariances as they are, with None for the pairs."""
    if not diagonal and not floor_fires(covs, floor):
        return np.array(covs), None
    out = [ref_floor(cov, floor, diagonal) for cov in covs]
    return np.array([o[0] for o in out]), [o[1:] for o in out]


def with_raw_pairs(params):
    """`params` with the (min, max) eigenvalues of its covariances, one
    covariance at a time, where its raw pairs are None, as a fit reports
    them."""
    if params[3] is not None:
        return params
    vals = [np.linalg.eigvalsh(cov) for cov in params[2]]
    return (*params[:3], [(float(v.min()), float(v.max())) for v in vals])


def ref_seed_centers(points, layout, n, rng):
    sorted_pts = points[np.lexsort(points.T[::-1])]
    first = int(rng.integers(sorted_pts.shape[0]))
    centers = [sorted_pts[first]]
    if n > 1:
        dist = _pairwise_mixed(sorted_pts, sorted_pts[first][None, :],
                               layout)[:, 0]
        for _ in range(n - 1):
            nxt = int(np.argmax(dist))
            centers.append(sorted_pts[nxt])
            extra = _pairwise_mixed(sorted_pts, sorted_pts[nxt][None, :],
                                    layout)[:, 0]
            dist = np.minimum(dist, extra)
    return np.asarray(centers)


def ref_init(points, layout, cfg, attempt, diagonal):
    """Farthest-point seeding and hard-assignment moments."""
    n = cfg.n_clusters
    centers = ref_seed_centers(points, layout, n,
                               np.random.default_rng([cfg.seed, attempt]))
    assign = _pairwise_mixed(points, centers, layout).argmin(axis=1)
    n_pts, dim = points.shape
    global_cov = np.cov(points, rowvar=False).reshape(dim, dim)
    counts = np.bincount(assign, minlength=n).astype(float)
    weights = np.maximum(counts, 1e-10)
    weights /= weights.sum()
    means = np.empty((n, dim))
    covs = []
    for j in range(n):
        members = points[assign == j]
        if members.shape[0] == 0:
            means[j] = centers[j]
            cov = global_cov
        else:
            means[j] = members.mean(axis=0)
            diff = members - means[j]
            cov = diff.T @ diff / members.shape[0]
        covs.append(np.diag(np.diag(cov)) if diagonal else cov)
    return weights, means, *floored_where_it_fires(covs, cfg.eig_floor,
                                                   diagonal)


def ref_m_step(points, resp, floor, diagonal):
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
        covs[j], lo, hi = ref_floor(cov, floor, diagonal)
        raw.append((lo, hi))
    return weights, means, covs, raw


def exact_log_joint(weights, means, covs, cols):
    """``log w_j + log N_j(x)`` as a (k, n) table, row by row, for the
    columns x of `cols` (dim, n)."""
    out = np.empty((len(means), cols.shape[1]))
    for j in range(len(means)):
        chol = np.linalg.cholesky(covs[j])
        norm = (covs[j].shape[0] * float(np.log(2.0 * np.pi))
                + 2.0 * np.log(np.diag(chol)).sum())
        dev = np.tril(np.linalg.inv(chol)) @ (cols - means[j][:, None])
        out[j] = np.log(weights[j]) - 0.5 * (
            norm + np.einsum("dn,dn->n", dev, dev))
    return out


def exact_m_step(points, resp, floor, diagonal):
    """The M-step on (k, n) responsibilities, one covariance at a time."""
    nk = resp.sum(axis=1) + 10.0 * np.finfo(float).eps
    weights = nk / nk.sum()
    means = (resp @ points) / nk[:, None]
    covs = []
    cols = np.ascontiguousarray(points.T)
    for j in range(len(means)):
        diff = cols - means[j][:, None]
        cov = (resp[j] * diff) @ diff.T / nk[j]
        cov = 0.5 * (cov + cov.T)
        covs.append(np.diag(np.diag(cov)) if diagonal else cov)
    return weights, means, *floored_where_it_fires(covs, floor, diagonal)


def ref_em_loop(points, params, cfg, diagonal, exact=False):
    """EM through the slow formula, or with `exact` through the exact
    oracle."""
    cols = np.ascontiguousarray(points.T)

    def e_step(weights, means, covs):
        """The log-likelihood terms and the responsibilities."""
        if exact:
            log_norm, exps, sums = plain_logsumexp(
                exact_log_joint(weights, means, covs, cols))
            return log_norm, np.array(exps) / sums
        log_joint = ref_log_joint(weights, means, covs, points)
        log_norm = logsumexp(log_joint, axis=1, keepdims=True)
        return log_norm, np.exp(log_joint - log_norm)

    m_step = exact_m_step if exact else ref_m_step
    n_pts = points.shape[0]
    trace = []
    prev_params = params
    for it in range(cfg.max_iter + 1):
        log_norm, resp = e_step(*params[:3])
        ll = float(log_norm.sum())
        if trace and ll < trace[-1] - 1e-9:
            params = prev_params
            break
        converged = bool(trace) and abs(ll - trace[-1]) <= cfg.tol * n_pts
        trace.append(ll)
        if converged or it == cfg.max_iter:
            break
        prev_params = params
        params = m_step(points, resp, cfg.eig_floor, diagonal)
    return params, trace


def ref_squarem_loop(points, params, cfg, diagonal):
    """SQUAREM's SqS3 cycle written out over the exact oracle's steps:
    theta1 and theta2 by EM, the extrapolated point, and one EM step from
    that point if its weights are positive, no eigenvalue of its
    covariances is at or below the floor and its log-likelihood is not
    below theta1's; otherwise the cycle goes on from theta2."""
    cols = np.ascontiguousarray(points.T)
    tol = cfg.tol * points.shape[0]

    def e_step(params):
        log_norm, exps, sums = plain_logsumexp(
            exact_log_joint(*params[:3], cols))
        return float(log_norm.sum()), np.array(exps) / sums

    def m_step(resp):
        return exact_m_step(points, resp, cfg.eig_floor, diagonal)

    ll, resp = e_step(params)
    trace = [ll]
    limit = 1.0
    while True:
        theta0, ll0 = params, trace[-1]
        theta1 = m_step(resp)
        ll1, resp = e_step(theta1)
        if ll1 < ll0 - 1e-9:
            return theta0, trace, "reverted"
        trace.append(ll1)
        if abs(ll1 - ll0) <= tol:
            return theta1, trace, "tol"
        if len(trace) == cfg.max_iter + 1:
            return theta1, trace, "max_iter"
        theta2 = m_step(resp)
        r = [theta1[i] - theta0[i] for i in range(3)]
        v = [(theta2[i] - theta1[i]) - r[i] for i in range(3)]
        sr2 = float(np.sum(r[0] * r[0])) + float(np.sum(r[1] * r[1])) \
            + float(np.sum(r[2] * r[2]))
        sv2 = float(np.sum(v[0] * v[0])) + float(np.sum(v[1] * v[1])) \
            + float(np.sum(v[2] * v[2]))
        step = limit if sv2 == 0 else float(np.clip(np.sqrt(sr2 / sv2), 1.0,
                                                    limit))
        point = [theta0[i] + (2.0 * step) * r[i] + (step * step) * v[i]
                 for i in range(3)]
        point.append(None)
        used = np.all(point[0] > 0) and not floor_fires(point[2],
                                                       cfg.eig_floor)
        if used:
            ll_point, resp = e_step(point)
            used = ll_point >= ll1
        if used:
            trace.append(ll_point)
            if abs(ll_point - ll1) <= tol:
                return point, trace, "tol"
            if len(trace) == cfg.max_iter + 1:
                return point, trace, "max_iter"
            if step == limit:
                limit *= 4.0
            prev, ll_prev, params = point, ll_point, m_step(resp)
        else:
            limit = max(1.0, limit / 4.0)
            prev, ll_prev, params = theta1, ll1, theta2
        ll, resp = e_step(params)
        if ll < ll_prev - 1e-9:
            return prev, trace, "reverted"
        trace.append(ll)
        if abs(ll - ll_prev) <= tol:
            return params, trace, "tol"
        if len(trace) == cfg.max_iter + 1:
            return params, trace, "max_iter"


def assert_same_params(got, expect):
    for g, e in zip(got[:3], expect[:3]):
        assert same_bits(g, e)
    # Both None where the floor left every covariance as it was.
    assert got[3] == expect[3]
    assert [type(v) for pair in got[3] or [] for v in pair] == \
        [float] * (2 * len(got[3] or []))


def assert_close_params(got, expect, rtol):
    """Weights, means, covariances and raw eigenvalues (as the fit reports
    them) agree to `rtol` relative to the largest entry of each."""
    got, expect = with_raw_pairs(got), with_raw_pairs(expect)
    for g, e in (*zip(got[:3], expect[:3]), (got[3], expect[3])):
        e = np.asarray(e)
        np.testing.assert_allclose(g, e, rtol=rtol,
                                   atol=rtol * np.abs(e).max())


# d = 1: the value alone; 3: value and one period; 11: value and five.
EM_LAYOUTS = {1: DimensionLayout(True, 0, 0), 3: DimensionLayout(True, 0, 1),
              11: DimensionLayout(True, 0, 5)}


def em_case(k, d, diagonal, max_iter=25):
    """k blobs of 300 points in d dimensions, a config and the start."""
    rng = np.random.default_rng(1000 * k + d)
    centers = rng.normal(0, 3, (k, d))
    pts = centers[rng.integers(0, k, 300)] + rng.normal(0, 1, (300, d))
    cfg = FitConfig(n_clusters=k, seed=k, max_iter=max_iter)
    return pts, _default_init(pts, EM_LAYOUTS[d], cfg, 0, diagonal), cfg


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("d", [1, 3, 11])
@pytest.mark.parametrize("k", range(1, 11))
def test_em_matches_column_by_column_reference(k, d, diagonal):
    pts, params, cfg = em_case(k, d, diagonal)
    assert_same_params(params, ref_init(pts, EM_LAYOUTS[d], cfg, 0, diagonal))
    # One step: the M-step's parameters and both log-likelihoods.
    one = replace(cfg, max_iter=1)
    got, trace, _ = _em_loop(pts, params, one, diagonal)
    want, want_trace = ref_em_loop(pts, params, one, diagonal)
    assert_close_params(got, want, 1e-12)
    np.testing.assert_allclose(trace, want_trace, rtol=1e-12)
    # The whole fit: at the same cap, the accelerated fit ends no lower
    # than plain EM through the slow formula, within the tolerance.
    got, trace, stop = _em_loop(pts, params, cfg, diagonal)
    want, want_trace = ref_em_loop(pts, params, cfg, diagonal)
    assert len(trace) <= cfg.max_iter + 1
    assert trace[-1] >= want_trace[-1] - cfg.tol * len(pts)
    converged = abs(trace[-1] - trace[-2]) <= cfg.tol * len(pts)
    assert stop == ("tol" if converged else "max_iter")


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("d", [1, 3, 11])
@pytest.mark.parametrize("k", range(1, 11))
def test_em_matches_column_by_column_reference_bit_for_bit(k, d, diagonal):
    pts, params, cfg = em_case(k, d, diagonal)
    got, trace, stop = _em_loop(pts, params, cfg, diagonal)
    want, want_trace, want_stop = ref_squarem_loop(pts, params, cfg,
                                                   diagonal)
    assert_same_params(got, want)
    assert same_bits(trace, want_trace)
    assert stop == want_stop
    converged = abs(trace[-1] - trace[-2]) <= cfg.tol * len(pts)
    assert stop == ("tol" if converged else "max_iter")


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("d", [1, 3, 11])
def test_em_one_step_is_plain_em_bit_for_bit(d, diagonal):
    # With max_iter = 1 no cycle gets to extrapolate.
    pts, params, cfg = em_case(4, d, diagonal, max_iter=1)
    got, trace, stop = _em_loop(pts, params, cfg, diagonal)
    want, want_trace = ref_em_loop(pts, params, cfg, diagonal, exact=True)
    assert_same_params(got, want)
    assert same_bits(trace, want_trace) and len(trace) == 2


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("spoil", ["negative-weight", "below-floor",
                                   "lower-likelihood"])
def test_rejected_extrapolation_falls_back_to_theta2(monkeypatch, spoil, d):
    # Every extrapolated point is spoiled, so every cycle goes on from
    # theta2 and the fit is plain EM bit for bit, its trace non-decreasing
    # (within the revert rule's 1e-9) and the step limit stuck at 1.  The
    # point of lower likelihood costs one E-step outside the trace; the
    # other two are turned down before their E-step.
    pts, params, cfg = em_case(4, d, False)
    real, offered, evaluations = clustering._extrapolate, [], []

    def spoiled(theta0, theta1, theta2, limit):
        point, bound = real(theta0, theta1, theta2, limit)
        weights, means, covs = (np.array(a) for a in point[:3])
        if spoil == "negative-weight":
            weights[0] = -1e-3
        elif spoil == "below-floor":
            vals, vecs = np.linalg.eigh(covs[1])
            covs[1] += (0.5 * cfg.eig_floor - vals[0]) * np.outer(
                vecs[:, 0], vecs[:, 0])
        else:
            means += 10.0
        offered.append(limit)
        return (weights, means, covs, None), bound

    def counted(a, keep=False):
        if keep:  # only EM's E-steps keep the exponentials
            evaluations.append(None)
        return real_logsumexp(a, keep)

    real_logsumexp = clustering._logsumexp
    monkeypatch.setattr(clustering, "_extrapolate", spoiled)
    monkeypatch.setattr(clustering, "_logsumexp", counted)
    got, trace, stop = _em_loop(pts, params, cfg, False)
    want, want_trace = ref_em_loop(pts, params, cfg, False, exact=True)
    assert_same_params(got, want)
    assert same_bits(trace, want_trace) and stop == "max_iter"
    assert np.diff(trace).min() >= -1e-9
    assert len(offered) == 12 and set(offered) == {1.0}
    extra = len(offered) if spoil == "lower-likelihood" else 0
    assert len(evaluations) == len(trace) + extra


def test_em_reverts_like_reference_bit_for_bit():
    # Started below the eigenvalue floor, the first update must floor the
    # variance and lose likelihood, so EM returns the start parameters.
    rng = np.random.default_rng(5)
    pts = rng.normal(0, 1e-3, (50, 1))
    start = (np.array([1.0]), np.zeros((1, 1)), np.full((1, 1, 1), 1e-6),
             [(1e-6, 1e-6)])
    cfg = FitConfig(n_clusters=1, eig_floor=0.1)
    got, trace, stop = _em_loop(pts, start, cfg, False)
    want, want_trace = ref_em_loop(pts, start, cfg, False, exact=True)
    assert stop == "reverted"
    assert got is start and want is start
    assert same_bits(trace, want_trace) and len(trace) == 1


def test_em_reverts_like_reference():
    # Started below the eigenvalue floor, the first update must floor the
    # variance and lose likelihood, so EM returns the start parameters.
    rng = np.random.default_rng(5)
    pts = rng.normal(0, 1e-3, (50, 1))
    start = (np.array([1.0]), np.zeros((1, 1)), np.full((1, 1, 1), 1e-6),
             [(1e-6, 1e-6)])
    cfg = FitConfig(n_clusters=1, eig_floor=0.1)
    got, trace, stop = _em_loop(pts, start, cfg, False)
    want, want_trace = ref_em_loop(pts, start, cfg, False)
    assert stop == "reverted"
    assert got is start and want is start
    assert len(trace) == 1 == len(want_trace)
    assert trace[0] == pytest.approx(want_trace[0], rel=1e-12)


def points_with_spectra(rng, spectra):
    """Per spectrum, 2 d points about a random mean whose covariance (with
    weights 1/(2 d)) has that spectrum along random axes: +- sqrt(d l) v
    for each eigenpair (l, v).  Returns the points and the one-hot (k, n)
    responsibilities."""
    d = len(spectra[0])
    groups = []
    for spectrum in spectra:
        axes, _ = np.linalg.qr(rng.normal(0, 1, (d, d)))
        steps = (axes * np.sqrt(d * np.asarray(spectrum))).T
        groups.append(rng.normal(0, 3, d) + np.vstack([steps, -steps]))
    resp = np.kron(np.eye(len(spectra)), np.ones(2 * d))
    return np.vstack(groups), resp


@pytest.mark.parametrize("scale", [0.5, 1 - 1e-9, 1 + 1e-9, 2.0])
@pytest.mark.parametrize("d", [1, 3, 11])
def test_floor_runs_eigh_only_where_it_fires(d, scale):
    # One component well above the floor, one with its smallest eigenvalue
    # at `scale` times it.  The M-step must give the covariances of the
    # floor applied by `eigh` on every step, and the fit the raw (min, max)
    # of `eigh`, both within 1e-12 of the largest entry, and the same
    # stability verdict.
    floor = 1e-6
    spectra = [np.logspace(-2, -3, d),
               np.r_[np.logspace(-2, -3, d)[:-1], scale * floor]]
    pts, resp = points_with_spectra(np.random.default_rng(d), spectra)
    cols = np.ascontiguousarray(pts.T)
    work = np.empty((2, 2, d, len(pts)))
    got = clustering._m_step(pts, cols, resp, work, floor, False)
    # With a zero floor the reference M-step leaves every covariance as
    # it is.
    unfloored = exact_m_step(pts, resp, 0.0, False)[2]
    expect = [ref_floor(cov, floor, False) for cov in unfloored]
    # The factoring decides as the eigenvalues do, even 1e-9 from the
    # floor; covariances it passes come back as they are.
    assert (got[3] is not None) == (scale < 1)
    if scale > 1:
        assert same_bits(got[2], unfloored)
    if d == 1:
        # The floor clamps the 1 x 1 entries as `eigh` does, bit for bit.
        assert same_bits(got[2], [e[0] for e in expect])
        assert got[3] is None or got[3] == [e[1:] for e in expect]
    model = clustering._package(got, [0.0], "tol", EM_LAYOUTS[d], 0, False)
    assert_close_params(
        (got[0], got[1], np.stack([c.covariance for c in model.components]),
         model.fit_log.raw_eigenvalues),
        (got[0], got[1], np.stack([e[0] for e in expect]),
         [e[1:] for e in expect]), 1e-12)
    reference = replace(model.fit_log,
                        raw_eigenvalues=[e[1:] for e in expect])
    assert detect_instability(model, floor, COND_CEILING) == \
        detect_instability(replace(model, fit_log=reference), floor,
                           COND_CEILING) == (scale < 1)


# ---------------------------------------------------------------------------
# why a fit stopped


def overlapping_1d():
    """Two overlapping blobs: EM takes 21 steps to meet the tolerance
    (plain EM took 85)."""
    rng = np.random.default_rng(1)
    return np.concatenate([rng.normal(-1, 1, 200),
                           rng.normal(1.5, 1, 200)])[:, None]


def test_fit_log_stop_tol():
    model = em_fit_stable(overlapping_1d(), VALUE_ONLY,
                          FitConfig(n_clusters=2, seed=42))
    assert model.fit_log.stop == "tol"
    assert model.fit_log.iterations == 21


def test_fit_log_stop_max_iter():
    model = em_fit_stable(overlapping_1d(), VALUE_ONLY,
                          FitConfig(n_clusters=2, seed=42, max_iter=5))
    assert model.fit_log.stop == "max_iter"
    assert model.fit_log.iterations == 6


def test_fit_log_stop_tol_at_exactly_max_iter():
    # The fit meets the tolerance on its last allowed step: "tol" wins.
    free = em_fit_stable(overlapping_1d(), VALUE_ONLY,
                         FitConfig(n_clusters=2, seed=42))
    steps = free.fit_log.iterations - 1
    capped = em_fit_stable(overlapping_1d(), VALUE_ONLY,
                           FitConfig(n_clusters=2, seed=42, max_iter=steps))
    assert capped.fit_log.stop == "tol"
    assert capped.fit_log.ll_trace == free.fit_log.ll_trace
    short = em_fit_stable(overlapping_1d(), VALUE_ONLY,
                          FitConfig(n_clusters=2, seed=42,
                                    max_iter=steps - 1))
    assert short.fit_log.stop == "max_iter"
    assert short.fit_log.ll_trace == free.fit_log.ll_trace[:-1]


def test_fit_log_stop_reverted():
    pts = np.random.default_rng(5).normal(0, 1e-3, (50, 1))

    def below_floor(points, layout, cfg, attempt, diagonal):
        return (np.array([1.0]), np.zeros((1, 1)), np.full((1, 1, 1), 1e-6),
                [(0.5, 0.5)])

    model = em_fit_stable(pts, VALUE_ONLY,
                          FitConfig(n_clusters=1, eig_floor=0.1),
                          _init=below_floor)
    assert model.fit_log.stop == "reverted"
    assert model.fit_log.iterations == 1
    assert model.components[0].covariance[0, 0] == 1e-6


# ---------------------------------------------------------------------------
# row order (property tests)


def _layout_points(rng, layout, rows, coarse):
    """`rows` vectors of `layout`, each circular pair on the unit circle;
    `coarse` draws from a few values so that rows and distances tie."""
    lin = int(layout.has_value) + layout.spatial_dim
    draw = rng.integers(0, 3, (rows, lin)).astype(float) if coarse \
        else rng.normal(0, 2, (rows, lin))
    phases = rng.integers(0, 4, (rows, layout.n_periods)) * (np.pi / 2) \
        if coarse else rng.uniform(0, 2 * np.pi, (rows, layout.n_periods))
    pairs = np.stack([np.cos(phases), np.sin(phases)], axis=2)
    return np.hstack([draw, pairs.reshape(rows, -1)])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 2),
       st.integers(0, 2), st.integers(1, 5), st.integers(5, 40),
       st.booleans())
def test_seeding_and_kmeans_init_ignore_row_order(
        data_seed, has_value, spatial_dim, n_periods, n, rows, coarse):
    layout = DimensionLayout(has_value, spatial_dim, n_periods)
    assume(layout.width > 0)
    rng = np.random.default_rng(data_seed)
    pts = _layout_points(rng, layout, rows, coarse)
    perm = rng.permutation(rows)
    seed = int(rng.integers(1000))
    np.testing.assert_array_equal(
        clustering._seed_centers(pts, layout, n, np.random.default_rng(seed)),
        clustering._seed_centers(pts[perm], layout, n,
                                 np.random.default_rng(seed)))
    centers, assign = kmeans_init(pts, layout, n, seed=seed)
    centers_p, assign_p = kmeans_init(pts[perm], layout, n, seed=seed)
    np.testing.assert_array_equal(assign_p, assign[perm])
    # Cluster sums run in row order, so centres agree to rounding.
    np.testing.assert_allclose(centers_p, centers, rtol=1e-12, atol=1e-12)
