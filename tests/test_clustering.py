"""Mixture fitting: EM, stability handling, and mixed-metric k-means."""

import numpy as np
import pytest
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
from hypertime.clustering import (MixtureCore, _factor, _logpdf_at,
                                  _logsumexp)

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


def stacked_logpdf(mix, pts):
    """The mixture log density as computed before the factor cache."""
    stacked = np.stack([np.log(c.weight) + c.logpdf(pts)
                        for c in mix.components])
    return logsumexp(stacked, axis=0)


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


@pytest.mark.parametrize("k", range(1, 11))
def test_logsumexp_matches_scipy_bit_for_bit(k):
    # Both layouts the call sites pass: EM's C-contiguous (n, k) reduced
    # along axis 1, and MixtureModel.logpdf's C-contiguous (k, n) reduced
    # along axis 0.  The two sum in different orders, so each is checked
    # against scipy on its own layout.
    rng = np.random.default_rng(100 + k)
    rows = hard_rows(rng, 4000, k)
    cols = np.ascontiguousarray(rows.T)
    assert same_bits(_logsumexp(rows, axis=1), logsumexp(rows, axis=1))
    assert same_bits(_logsumexp(cols, axis=0), logsumexp(cols, axis=0))


def solved_logpdf(diff, chol, norm):
    """The Gaussian log density through scipy's solve_triangular, the
    formula `_logpdf_at` replaces."""
    if diff.shape[1] == 0:
        return np.zeros(diff.shape[0])
    dev = solve_triangular(chol, diff.T, lower=True)
    quad = np.einsum("ij,ij->j", dev, dev)
    return -0.5 * (norm + quad)


@pytest.mark.parametrize("dim", range(1, 9))
def test_logpdf_at_matches_solve_triangular_bit_for_bit(dim):
    rng = np.random.default_rng(200 + dim)
    a = rng.normal(0, 1, (dim, dim))
    chol, norm = _factor(a @ a.T + 0.1 * np.eye(dim))
    for factor in (chol, np.asfortranarray(chol)):
        for n in (0, 1, 2, 1000):
            diff = rng.normal(0, 3, (n, dim))
            got = _logpdf_at(diff, factor, norm)
            assert got.shape == (n,)
            assert same_bits(got, solved_logpdf(diff, factor, norm))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_logpdf_at_rejects_non_finite_rows(bad):
    chol, norm = _factor(np.eye(3))
    diff = np.zeros((4, 3))
    diff[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        _logpdf_at(diff, chol, norm)


@pytest.mark.parametrize("layout", [
    DimensionLayout(False, 0, 0), DimensionLayout(False, 2, 1),
    DimensionLayout(True, 0, 1), DimensionLayout(True, 1, 2)])
def test_mixture_logpdf_matches_component_stack_bit_for_bit(layout):
    rng = np.random.default_rng(layout.width)
    for k in (1, 3, 10):
        mix = random_mixture(rng, layout, k)
        # Enough rows that a reduction in another order than scipy's
        # (k, n) axis-0 sum shows at k = 10.
        pts = rng.normal(0, 3, (20_000, layout.width))
        assert same_bits(mix.logpdf(pts), stacked_logpdf(mix, pts))


def test_em_log_joint_matches_component_formula():
    # The E-step's (n, k) table equals the per-component formula it
    # replaced, entry for entry.
    rng = np.random.default_rng(41)
    lay = DimensionLayout(True, 1, 1)
    mix = random_mixture(rng, lay, 4)
    weights = np.array([c.weight for c in mix.components])
    means = np.stack([c.mean for c in mix.components])
    covs = np.stack([c.covariance for c in mix.components])
    pts = rng.normal(0, 2, (300, lay.width))
    table = MixtureCore(weights, means, covs).log_joint(pts)
    expect = np.stack([np.log(weights[j])
                       + GaussianComponent(1.0, means[j], covs[j]).logpdf(pts)
                       for j in range(4)], axis=1)
    assert table.flags.c_contiguous
    assert same_bits(table, expect)


def test_mixture_core_is_built_on_first_use_and_kept():
    rng = np.random.default_rng(42)
    mix = random_mixture(rng, DimensionLayout(True, 0, 1), 2)
    pts = rng.normal(0, 1, (5, 3))
    # An edit before the first evaluation is honoured ...
    mix.components[0].mean[0] = 5.0
    before = mix.logpdf(pts)
    assert same_bits(before, stacked_logpdf(mix, pts))
    # ... and the factors are not rebuilt afterwards.
    core = mix.core
    mix.components[0].mean[0] = -5.0
    assert mix.core is core
    assert same_bits(mix.logpdf(pts), before)


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
