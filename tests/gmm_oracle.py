"""Reference GMM E-step: per-component log densities on the row-major
(N, k, dim) layout, summed over dim and over k with `ndarray.sum` along
the last axis, and the EM fit and mixture density built on them. Kept as
first written, so tests can check `segphrase.gmm`'s expanded-form E-step
against it: densities within the error bound that
`segphrase.gmm._component_log_pdf` derives, fitted mixtures within a
relative tolerance.
"""

from __future__ import annotations

import numpy as np

from segphrase.gmm import (
    _DEAD_MASS,
    _MAX_ITERS,
    _REL_TOL,
    VARIANCE_FLOOR,
    GaussianMixture,
    _kmeans_pp,
)
from segphrase.errors import DataError, NumericalError

# differences per block of the E-step's (rows, k, dim) temporary
_BLOCK_ELEMENTS = 1 << 16


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


def fit(samples, k, seed, *, start=None):
    """EM fit of a k-component diagonal-covariance mixture."""
    points = np.asarray(samples, dtype=np.float64)
    if points.ndim != 2:
        points = points.reshape(len(points), -1)
    n, dim = points.shape
    if start is None:
        if n < k:
            raise DataError(f"need at least {k} samples, got {n}")
        rng = np.random.default_rng(seed)
        means = _kmeans_pp(points, k, rng)
        var0 = np.maximum(points.var(axis=0), VARIANCE_FLOOR)
        variances = np.tile(var0, (k, 1))
        weights = np.full(k, 1.0 / k)
    else:
        if n < 1:
            raise DataError("cannot fit on an empty pool")
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


def log_density_many(mixture, points):
    """log of the mixture density at each row of points."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != mixture.dim:
        raise ValueError("points must be (N, dim) with matching dimension")
    log_pdf = _component_log_pdf(mixture.means, mixture.variances, points)
    log_w = np.log(np.maximum(mixture.weights, 1e-300))
    return _log_sum_exp(log_pdf + log_w[None, :], axis=1)
