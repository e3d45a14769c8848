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
# differences per block of the E-step's (rows, k, dim) temporary
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


def _component_log_pdf(means, variances, points):
    """(N, k) log N(points | component), diagonal covariances.

    Rows go through in blocks of at most _BLOCK_ELEMENTS differences, so
    the (rows, k, dim) temporary stays small; each row's quadratic form
    is the same contiguous sum over dim as one broadcast over all N rows
    would take, so the values are bit-equal to it.
    """
    n, k = len(points), len(means)
    quad = np.empty((n, k))
    step = max(1, _BLOCK_ELEMENTS // max(1, k * points.shape[1]))
    diff = np.empty((min(n, step), k, points.shape[1]))
    for r in range(0, n, step):
        d = diff[:min(step, n - r)]
        np.subtract(points[r:r + step, None, :], means, out=d)
        d *= d
        d /= variances
        d.sum(axis=2, out=quad[r:r + step])
    log_norm = (np.log(2.0 * np.pi * variances)).sum(axis=1)
    return -0.5 * (quad + log_norm[None, :])


def _log_sum_exp(a, axis):
    hi = np.max(a, axis=axis, keepdims=True)
    return (hi + np.log(np.exp(a - hi).sum(axis=axis, keepdims=True))).squeeze(axis)


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

    squares = points * points
    prev_ll = -np.inf
    for iteration in range(_MAX_ITERS):
        log_pdf = _component_log_pdf(means, variances, points)
        # dead components keep a representable but negligible weight
        log_joint = log_pdf + np.log(np.maximum(weights, 1e-300))[None, :]
        log_norm = _log_sum_exp(log_joint, axis=1)
        ll = float(log_norm.sum())
        if ll + 1e-9 * (1.0 + abs(prev_ll)) < prev_ll:
            raise NumericalError(
                f"log-likelihood decreased during EM: {prev_ll} -> {ll}"
            )
        if iteration > 0 and abs(ll - prev_ll) <= _REL_TOL * abs(prev_ll):
            break
        prev_ll = ll

        resp = np.exp(log_joint - log_norm[:, None])
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
    """log of the mixture density at each row of points; always finite."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != mixture.dim:
        raise ValueError("points must be (N, dim) with matching dimension")
    log_pdf = _component_log_pdf(mixture.means, mixture.variances, points)
    log_w = np.log(np.maximum(mixture.weights, 1e-300))
    return _log_sum_exp(log_pdf + log_w[None, :], axis=1)
