"""Diagonal-covariance Gaussian mixtures fit by EM.

Fits are seeded with k-means++ from an explicit RNG seed and are fully
deterministic. Variances are floored rather than allowed to collapse;
the floored M-step is still the constrained maximizer, so the data
log-likelihood is non-decreasing per iteration (checked internally).
An existing mixture can be passed as the starting point, which is how
the latent trainer keeps its refits warm across rounds. The E-step is two
matrix products, under the error bound that `_component_log_pdf` derives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

VARIANCE_FLOOR = 1e-4
_MAX_ITERS = 100
_REL_TOL = 1e-6
_DEAD_MASS = 1e-12


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


def _component_log_pdf(means, variances, points, squares):
    """(N, k) log N(point | component), diagonal covariances, for (N, dim)
    `points` and their `squares`: -0.5 * (x*x @ (1/v).T - 2 x @ (m/v).T
    + sum m*m/v + sum log 2 pi v), the -0.5 folded into the products'
    factors (a power of two, so exact).

    With Sx = sum x*x/v, Sm = sum m*m/v, T = sum |log 2 pi v| and u = eps/2,
    each entry is within (dim + 4) eps (Sx + Sm + T) of the row-major
    -0.5 * (sum (x - m)**2 / v + sum log 2 pi v) of `tests/gmm_oracle.py`,
    to first order: a length-dim dot product whose factors carry r
    roundings errs by at most (dim + r) u times its absolute terms' sum, in
    any order, fused or not. In halved units the products cost
    (dim + 2) u Sx/2, (dim + 1) u (Sx + Sm)/2 (as 2|x m| <= x*x + m*m) and
    (dim + 1) u Sm/2, the three adds joining them u (2 Sx + 2 Sm + T); the
    oracle's terms carry 4 roundings and sum to at most 2 (Sx + Sm), so it
    errs by (dim + 4) u (Sx + Sm) + u T/2; both sum the logs alike. This
    needs 1/v, m/v and m*m/v finite and normal, as v >= VARIANCE_FLOOR
    ensures on bounded data (fits floor variances, `spt.load_table` rejects
    lower ones; at v = 1e-320 1/v overflows and a point on its mean gives
    nan). BLAS orders the sums, so last bits may vary by BLAS build.
    """
    half_precision = -0.5 / variances
    scaled = means / variances
    const = (means * scaled).sum(axis=1) + np.log(2.0 * np.pi * variances).sum(axis=1)
    out = squares @ half_precision.T
    out += points @ scaled.T
    out -= 0.5 * const
    return out


def _log_sum_exp(log_joint):
    """log of the sum of exp over axis 1, shifted by each row's maximum.

    The max and the sum run over axis 0 of a component-major copy, several
    times faster than over the short axis 1 of the (N, k) array. numpy adds
    the k terms left to right either way for k < 8, so the result is the
    same to the bit; from k = 8 up axis 1 sums pairwise and the last bits
    may differ, within the bounds that tests/test_gmm.py checks.
    """
    columns = log_joint.T.copy()
    hi = columns.max(axis=0)
    return hi + np.log(np.exp(columns - hi).sum(axis=0))


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
    """EM fit of a k-component diagonal-covariance mixture to (N, dim) samples.

    seed feeds the k-means++ initialization; when `start` is given the fit
    resumes from those parameters instead (and tolerates fewer samples
    than components, which a warm refit on a shrunken pool may see).
    """
    points = np.asarray(samples, dtype=np.float64)
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
        log_joint = _component_log_pdf(means, variances, points, squares)
        # dead components keep a representable but negligible weight
        log_joint += np.log(np.maximum(weights, 1e-300))
        log_norm = _log_sum_exp(log_joint)
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
    """log of the mixture density at each row of points.

    Finite for a fitted mixture (variances floored) on bounded points; a
    mixture with extreme numbers can overflow to inf or nan.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != mixture.dim:
        raise ValueError("points must be (N, dim) with matching dimension")
    log_pdf = _component_log_pdf(mixture.means, mixture.variances, points, points * points)
    log_pdf += np.log(np.maximum(mixture.weights, 1e-300))
    return _log_sum_exp(log_pdf)
