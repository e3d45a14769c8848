import math

import numpy as np
import pytest

import gmm_oracle
from segphrase.gmm import (
    VARIANCE_FLOOR,
    GaussianMixture,
    TooFewSamplesError,
    _component_log_pdf,
    _pairwise_sum,
    fit,
    log_density_many,
)


def test_degenerate_cluster_gets_floor():
    v = np.array([0.3, 0.7, 0.1])
    g = fit(np.tile(v, (20, 1)), 1, seed=0)
    assert np.allclose(g.means[0], v)
    assert np.allclose(g.variances[0], VARIANCE_FLOOR)
    assert g.weights[0] == pytest.approx(1.0)


def test_two_separated_clouds_recover_centroids():
    rng = np.random.default_rng(0)
    a = rng.normal(-10.0, 0.1, size=(200, 2))
    b = rng.normal(10.0, 0.1, size=(200, 2))
    g = fit(np.vstack([a, b]), 2, seed=1)
    # oracle: per-cloud sample means
    targets = sorted([a.mean(axis=0)[0], b.mean(axis=0)[0]])
    got = sorted(g.means[:, 0])
    assert abs(got[0] - targets[0]) < 1e-3
    assert abs(got[1] - targets[1]) < 1e-3


def test_k1_closed_form():
    rng = np.random.default_rng(2)
    pts = rng.random((50, 3))
    g = fit(pts, 1, seed=0)
    assert np.allclose(g.means[0], pts.mean(axis=0), atol=1e-12)
    assert np.allclose(
        g.variances[0], np.maximum(pts.var(axis=0), VARIANCE_FLOOR), atol=1e-12
    )


def test_too_few_samples():
    with pytest.raises(TooFewSamplesError):
        fit(np.zeros((2, 3)), 5, seed=0)


def test_deterministic_given_seed():
    rng = np.random.default_rng(3)
    pts = rng.random((100, 4))
    g1 = fit(pts, 3, seed=42)
    g2 = fit(pts, 3, seed=42)
    assert np.array_equal(g1.weights, g2.weights)
    assert np.array_equal(g1.means, g2.means)
    assert np.array_equal(g1.variances, g2.variances)


def test_weights_form_simplex():
    rng = np.random.default_rng(4)
    pts = rng.random((80, 2))
    g = fit(pts, 4, seed=0)
    assert g.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert (g.variances >= VARIANCE_FLOOR).all()


def standard_normal_1d():
    return GaussianMixture(
        np.array([1.0]), np.array([[0.0]]), np.array([[1.0]])
    )


def test_log_density_standard_normal_peak():
    g = standard_normal_1d()
    assert log_density_many(g, [[0.0]])[0] == pytest.approx(math.log(1 / math.sqrt(2 * math.pi)))


def test_log_density_quadratic_form():
    g = standard_normal_1d()
    assert log_density_many(g, [[2.0]])[0] == pytest.approx(
        math.log(1 / math.sqrt(2 * math.pi)) - 2.0
    )


def test_log_density_matches_extended_precision_sum():
    g = GaussianMixture(
        np.array([0.5, 0.5]), np.array([[0.0], [2.0]]), np.array([[1.0], [1.0]])
    )
    for x in (-1.0, 0.0, 0.7, 2.0, 5.0):
        direct = np.longdouble(0)
        for w, m, v in zip(g.weights, g.means[:, 0], g.variances[:, 0]):
            direct += np.longdouble(w) * np.exp(
                np.longdouble(-0.5) * (x - m) ** 2 / v
            ) / np.sqrt(np.longdouble(2 * np.pi) * v)
        assert log_density_many(g, [[x]])[0] == pytest.approx(float(np.log(direct)), abs=1e-12)


def _broadcast_log_pdf(means, variances, points):
    """The E-step's per-component log densities as one (N, k, dim) broadcast."""
    diff = points[:, None, :] - means[None, :, :]
    quad = (diff * diff / variances[None, :, :]).sum(axis=2)
    log_norm = (np.log(2.0 * np.pi * variances)).sum(axis=1)
    return -0.5 * (quad + log_norm[None, :])


@pytest.mark.parametrize("n,k,dim", [
    (800, 5, 24), (3000, 5, 24), (40, 1, 24), (40, 5, 1), (1, 1, 1), (3, 5, 24), (0, 2, 4),
    (257, 3, 9),
])
def test_component_log_pdf_bit_equal_to_broadcast(n, k, dim):
    rng = np.random.default_rng(n * 31 + k * 7 + dim)
    points = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
    means = rng.normal(size=(k, dim))
    variances = rng.uniform(VARIANCE_FLOOR, 5.0, size=(k, dim))
    got = _component_log_pdf(means, variances, np.ascontiguousarray(points.T))
    assert got.shape == (k, n)
    assert np.array_equal(got.T, _broadcast_log_pdf(means, variances, points))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_pairwise_sum_matches_ndarray_sum_bitwise():
    # the E-step's sums over dim and over k depend on reproducing numpy's
    # pairwise order exactly; a numpy that sums differently fails here
    rng = np.random.default_rng(13)
    for length in range(1, 301):
        terms = rng.normal(size=(length, 6)) * 10.0 ** rng.integers(-6, 7, size=(length, 6))
        terms[:, 4] = -0.0
        terms[::3, 5] = -0.0
        want = np.ascontiguousarray(terms.T).sum(axis=-1)
        assert np.array_equal(_bits(_pairwise_sum(terms.copy())), _bits(want)), length


def _clouds(n, dim, rng):
    points = rng.normal(size=(n, dim)) * rng.uniform(0.05, 2.0, size=dim)
    points[: n // 3] += rng.uniform(-3.0, 3.0, size=dim)
    return points


def _assert_same_mixture(got, want):
    for field in ("weights", "means", "variances"):
        assert np.array_equal(_bits(getattr(got, field)), _bits(getattr(want, field))), field


@pytest.mark.parametrize("dim", [1, 3, 24, 130])
@pytest.mark.parametrize("k", [1, 5, 8, 9])
def test_fit_and_density_match_oracle_bitwise(dim, k):
    # 600 points span several column blocks where dim * k is large
    rng = np.random.default_rng(dim * 10 + k)
    points = _clouds(600, dim, rng)
    cold = fit(points, k, seed=[dim, k])
    _assert_same_mixture(cold, gmm_oracle.fit(points, k, seed=[dim, k]))
    # a warm refit from a perturbed start, on a shrunken pool
    start = GaussianMixture(cold.weights, cold.means + 0.1, cold.variances * 2.0)
    pool = points[::2]
    _assert_same_mixture(fit(pool, k, seed=0, start=start),
                         gmm_oracle.fit(pool, k, seed=0, start=start))
    probe = _clouds(257, dim, rng) * 3.0
    assert np.array_equal(_bits(log_density_many(cold, probe)),
                          _bits(gmm_oracle.log_density_many(cold, probe)))


def test_log_density_dimension_mismatch():
    with pytest.raises(ValueError):
        log_density_many(standard_normal_1d(), [[0.0, 0.0]])


def test_density_integrates_to_one_monte_carlo():
    g = GaussianMixture(
        np.array([0.3, 0.7]), np.array([[-2.0], [3.0]]), np.array([[0.5], [2.0]])
    )
    rng = np.random.default_rng(123)
    lo, hi = -12.0, 15.0
    xs = rng.uniform(lo, hi, size=(1_000_000, 1))
    estimate = (hi - lo) * np.exp(log_density_many(g, xs)).mean()
    assert abs(estimate - 1.0) < 0.01


def test_log_density_continuity():
    g = standard_normal_1d()
    eps = 1e-6
    for x in (-3.0, 0.0, 1.5):
        delta = abs(log_density_many(g, [[x + eps]])[0] - log_density_many(g, [[x]])[0])
        # |d/dx log N| = |x| locally; allow a small cushion
        assert delta <= (abs(x) + 1.0) * eps * 10


def test_fit_monotone_on_random_data():
    # the internal non-decrease assertion must never fire
    rng = np.random.default_rng(9)
    for trial in range(15):
        n = int(rng.integers(10, 200))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(n, 5) + 1))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.01, 3)
        fit(pts, k, seed=trial)


def test_warm_start_resumes_and_improves():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(100, 2))
    # a poor hand-built start: both components off to one side
    g0 = GaussianMixture(
        np.array([0.9, 0.1]), np.array([[3.0, 3.0], [4.0, -2.0]]), np.ones((2, 2))
    )
    g1 = fit(pts, 2, seed=0, start=g0)
    ll0 = log_density_many(g0, pts).sum()
    ll1 = log_density_many(g1, pts).sum()
    assert ll1 > ll0
