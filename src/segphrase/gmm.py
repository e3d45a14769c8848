"""Diagonal-covariance Gaussian mixtures fit by EM.

Fits are seeded with k-means++ from an explicit RNG seed and are fully
deterministic. Variances are floored rather than allowed to collapse;
the floored M-step is still the constrained maximizer, so the data
log-likelihood is non-decreasing per iteration (checked internally).
An existing mixture can be passed as the starting point, which is how
the latent trainer keeps its refits warm across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

VARIANCE_FLOOR = 1e-4
_MAX_ITERS = 100
_REL_TOL = 1e-6
_DEAD_MASS = 1e-12
# differences per block of the E-step's (dim, k, cols) temporary
_BLOCK_ELEMENTS = 1 << 16


class TooFewSamplesError(DataError):
    """Fewer samples than mixture components."""


@dataclass(frozen=True)
class GaussianMixture:
    weights: np.ndarray    # (k,) simplex
    means: np.ndarray      # (k, dim)
    variances: np.ndarray  # (k, dim), every entry >= the fit's floor

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _component_log_pdf(means, variances, columns):
    """(k, N) log N(point | component), diagonal covariances, for points
    given as the (dim, N) array `columns`.

    (x - m)**2 / v is evaluated component-major, as (dim, k, cols) blocks
    of at most _BLOCK_ELEMENTS differences, so each ufunc call runs over
    long contiguous planes; the sum over dim is `_pairwise_sum`, so every
    entry is bit-equal to the row-major (N, k, dim) broadcast summed with
    `ndarray.sum` over dim.
    """
    dim, n = columns.shape
    k = len(means)
    out = np.empty((k, n))
    step = max(1, _BLOCK_ELEMENTS // max(1, k * dim))
    diff = np.empty((dim, k, min(n, step)))
    means_t, variances_t = means.T[:, :, None], variances.T[:, :, None]
    log_norm = np.log(2.0 * np.pi * variances).sum(axis=1)[:, None]
    for c in range(0, n, step):
        d = diff[:, :, :min(step, n - c)]
        np.subtract(columns[:, None, c:c + step], means_t, out=d)
        np.square(d, out=d)
        d /= variances_t
        np.add(_pairwise_sum(d), log_norm, out=out[:, c:c + step])
    out *= -0.5
    return out


def _pairwise_sum(a):
    """Sum over axis 0, bit-equal to `ndarray.sum` along a contiguous axis
    of length len(a) at every position of a[0]. `a` is overwritten.

    The E-step's values depend on this reproducing the order of numpy's
    float add reduction (the `pairwise_sum` of its add loops): start from
    the identity 0.0; fewer than 8 terms add in sequence; up to 128 terms
    go into 8 running sums whose tree ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    the leftover terms then extend; longer runs split at half rounded
    down to a multiple of 8 and add the halves' sums. Done as whole-plane
    adds, it costs one ufunc call per 8 planes instead of one short inner
    loop per position.
    `tests/test_gmm.py::test_pairwise_sum_matches_ndarray_sum_bitwise`
    pins it against numpy for lengths 1 to 300; a numpy that sums in
    another order fails there by name.
    """
    n = len(a)
    if n >= 8:
        res = _pairwise_block(a)
        res += 0.0
        return res
    res = np.zeros(a.shape[1:])
    for plane in a:
        res += plane
    return res


def _pairwise_block(a):
    """numpy's pairwise sum of 8 or more planes, in place; a view into a."""
    n = len(a)
    if n > 128:
        half = n // 2
        half -= half % 8
        res = _pairwise_block(a[:half])
        res += _pairwise_block(a[half:])
        return res
    r = a[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r += a[i:i + 8]
    np.add(r[0::2], r[1::2], out=r[0::2])
    np.add(r[0::4], r[2::4], out=r[0::4])
    res = r[0]
    res += r[4]
    for plane in a[end:]:
        res += plane
    return res


def _log_sum_exp(planes):
    """log of the sum of exp over axis 0 of the (k, N) `planes`, as
    hi + log(sum(exp(planes - hi))) with hi the maximum; the sum is
    `_pairwise_sum`, so it is bit-equal to the same expression on the
    (N, k) transpose with `ndarray.sum` over k."""
    hi = planes.max(axis=0)
    shifted = planes - hi
    total = _pairwise_sum(np.exp(shifted, out=shifted))
    total = np.log(total, out=total)
    total += hi
    return total


def _kmeans_pp(points, k, rng):
    """k-means++ seeding: spread initial means by squared-distance sampling."""
    n = len(points)
    centers = [points[int(rng.integers(n))]]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers.append(points[pick])
        d2 = np.minimum(d2, ((points - centers[-1]) ** 2).sum(axis=1))
    return np.array(centers)


def fit(
    samples,
    k: int,
    seed,
    *,
    start: GaussianMixture | None = None,
) -> GaussianMixture:
    """EM fit of a k-component diagonal-covariance mixture.

    seed feeds the k-means++ initialization; when `start` is given the fit
    resumes from those parameters instead (and tolerates fewer samples
    than components, which a warm refit on a shrunken pool may see).
    """
    points = np.asarray(samples, dtype=np.float64)
    if points.ndim != 2:
        points = points.reshape(len(points), -1)
    n, dim = points.shape
    if start is None:
        if n < k:
            raise TooFewSamplesError(f"need at least {k} samples, got {n}")
        rng = np.random.default_rng(seed)
        means = _kmeans_pp(points, k, rng)
        var0 = np.maximum(points.var(axis=0), VARIANCE_FLOOR)
        variances = np.tile(var0, (k, 1))
        weights = np.full(k, 1.0 / k)
    else:
        if n < 1:
            raise TooFewSamplesError("cannot fit on an empty pool")
        if start.dim != dim or start.k != k:
            raise ValueError("warm start shape does not match request")
        weights = start.weights.copy()
        means = start.means.copy()
        variances = np.maximum(start.variances, VARIANCE_FLOOR)

    columns = np.ascontiguousarray(points.T)
    squares = points * points
    prev_ll = -np.inf
    for iteration in range(_MAX_ITERS):
        log_joint = _component_log_pdf(means, variances, columns)
        # dead components keep a representable but negligible weight
        log_joint += np.log(np.maximum(weights, 1e-300))[:, None]
        log_norm = _log_sum_exp(log_joint)
        ll = float(log_norm.sum())
        if ll + 1e-9 * (1.0 + abs(prev_ll)) < prev_ll:
            raise NumericalError(
                f"log-likelihood decreased during EM: {prev_ll} -> {ll}"
            )
        if iteration > 0 and abs(ll - prev_ll) <= _REL_TOL * abs(prev_ll):
            break
        prev_ll = ll

        # (N, k) row-major, so the M-step's sums run in the order they
        # always have
        resp = np.subtract(log_joint.T, log_norm[:, None], out=np.empty((n, k)))
        np.exp(resp, out=resp)
        mass = resp.sum(axis=0)
        alive = mass > _DEAD_MASS
        weights = mass / n
        weights = weights / weights.sum()
        new_means = means.copy()
        new_vars = variances.copy()
        new_means[alive] = (resp.T @ points)[alive] / mass[alive, None]
        sq = (resp.T @ squares)[alive] / mass[alive, None]
        new_vars[alive] = np.maximum(
            sq - new_means[alive] ** 2, VARIANCE_FLOOR
        )
        means, variances = new_means, new_vars

    return GaussianMixture(weights, means, variances)


def log_density_many(mixture: GaussianMixture, points) -> np.ndarray:
    """log of the mixture density at each row of points.

    Finite for a fitted mixture (variances floored) on bounded points; a
    mixture with extreme numbers can overflow to inf or nan.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != mixture.dim:
        raise ValueError("points must be (N, dim) with matching dimension")
    log_pdf = _component_log_pdf(
        mixture.means, mixture.variances, np.ascontiguousarray(points.T)
    )
    log_pdf += np.log(np.maximum(mixture.weights, 1e-300))[:, None]
    return _log_sum_exp(log_pdf)
