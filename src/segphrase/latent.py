"""Foreground/background model learning from box supervision only.

Superpixel labels inside the box are unobserved, so training alternates:
refit the foreground mixture on currently-foreground superpixels pooled
over all instances (background likewise), then relabel every instance by
exact graph cut with superpixels outside the box fixed to background.
Fixed superpixels are eliminated exactly rather than penalised: they drop
out of the graph and the Potts weight of each edge to a free neighbour
moves into that neighbour's foreground cost, so every cut runs on the
in-box superpixels only. Refits resume from the previous round's
mixtures, which makes the pooled energy provably non-increasing across
rounds; that is checked each round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gmm
from .config import Config
from .errors import DataError, NumericalError
from .imaging import SuperpixelGraph
from .mrf import MrfProblem, energy, min_cut_infer

_MONOTONE_TOL = 1e-6


class CollapseError(NumericalError):
    """Training degenerated to all-foreground or all-background labels."""


class FeatureDimensionError(DataError, ValueError):
    """Superpixel features and model differ in dimension."""


@dataclass
class TrainingInstance:
    """One training image: its superpixel graph, box, and box overlap."""

    graph: SuperpixelGraph
    box: tuple[int, int, int, int]  # (x0, y0, x1, y1), half-open pixel range
    sp_in_box: np.ndarray           # (n,) fraction of each superpixel inside box


@dataclass
class ModelInfo:
    phrase: str = ""
    component_id: int = 0
    instances: int = 0
    iterations: int = 0
    energy_history: list[float] = field(default_factory=list)
    # em_learn's final labeling of each training instance, as
    # segment_instance gives it; never saved, loaded or compared
    labelings: list[np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass
class SegmentationModel:
    """Foreground/background mixture pair plus the pairwise scale."""

    theta_fg: gmm.GaussianMixture
    theta_bg: gmm.GaussianMixture
    lam: float
    info: ModelInfo = field(default_factory=ModelInfo)

    @property
    def dim(self) -> int:
        return self.theta_fg.dim


def box_overlap(graph: SuperpixelGraph, box) -> np.ndarray:
    """Fraction of each superpixel's area inside the half-open pixel box.

    The box is clipped to the image; an empty, inverted or wholly outside
    box overlaps nothing.
    """
    x0, y0, x1, y1 = (max(int(v), 0) for v in box)
    inside = graph.smap.labels[y0:y1, x0:x1].ravel()
    return np.bincount(inside, minlength=graph.n) / graph.areas


def check_box(box, width: int, height: int) -> None:
    """Raise a DataError unless the half-open pixel box has positive area
    inside a width x height image."""
    x0, y0, x1, y1 = (int(v) for v in box)
    if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
        raise DataError(f"box {box} invalid for {width}x{height} image")


def make_instance(graph: SuperpixelGraph, box) -> TrainingInstance:
    """Build a TrainingInstance, computing per-superpixel box overlap."""
    check_box(box, graph.smap.width, graph.smap.height)
    return TrainingInstance(graph, tuple(int(v) for v in box), box_overlap(graph, box))


def init_labels(inst: TrainingInstance, seed_shrink: float) -> np.ndarray:
    """Geometric seeding: a center-shrunk box marks confident foreground.

    Superpixels whose centroid falls in the box shrunk by seed_shrink about
    its center are foreground; superpixels entirely outside the box are
    background; the rest are foreground iff at least half their area is
    inside the box.
    """
    if not 0.0 < seed_shrink <= 1.0:
        raise ValueError("seed_shrink must be in (0, 1]")
    x0, y0, x1, y1 = inst.box
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    hx, hy = (x1 - x0) / 2.0 * seed_shrink, (y1 - y0) / 2.0 * seed_shrink
    cent = inst.graph.centroids
    in_seed = (
        (cent[:, 0] >= cx - hx)
        & (cent[:, 0] < cx + hx)
        & (cent[:, 1] >= cy - hy)
        & (cent[:, 1] < cy + hy)
    )
    labels = np.where(in_seed, 1, 0).astype(np.int8)
    labels[(~in_seed) & (inst.sp_in_box >= 0.5)] = 1
    labels[inst.sp_in_box == 0.0] = 0
    return labels


def pairwise_weights(graph: SuperpixelGraph, lam: float) -> np.ndarray:
    """Potts disagreement penalty per edge: high across weak boundaries."""
    return np.exp(-lam * graph.boundary_prob)


def _cut_free(unary, edges, weights, fixed) -> np.ndarray:
    """Exact min cut with the `fixed` nodes held at label 0.

    `unary` has rows for the free nodes only, in node order. Fixed nodes
    drop out of the graph: a free-fixed edge disagrees exactly when its
    free end takes label 1, so its weight moves into that end's label-1
    cost; a fixed-fixed edge always agrees and is dropped. The reduced
    problem's minimisers are the constrained problem's, ties included.
    """
    labels = np.zeros(len(fixed), dtype=np.int8)
    free = np.flatnonzero(~fixed)
    if not free.size:
        return labels
    pos = np.full(len(fixed), -1)
    pos[free] = np.arange(free.size)
    a, b = pos[edges[:, 0]], pos[edges[:, 1]]
    kept = (a >= 0) & (b >= 0)
    folded = (a >= 0) != (b >= 0)
    unary = unary.copy()
    unary[:, 1] += np.bincount(
        np.maximum(a, b)[folded], weights=weights[folded], minlength=free.size
    )
    problem = MrfProblem(
        free.size, unary, np.column_stack([a[kept], b[kept]]), weights[kept]
    )
    labels[free] = min_cut_infer(problem)
    return labels


def cut(model: SegmentationModel, graph: SuperpixelGraph, box=None) -> np.ndarray:
    """Exact MAP labeling under the model; with a half-open pixel `box`,
    superpixels with no pixel in it are fixed to 0 (GrabCut's box clamp).

    Mixture densities are evaluated for the free superpixels only; with
    every superpixel fixed the result is all background and no cut runs.
    """
    if graph.features.shape[1] != model.dim:
        raise FeatureDimensionError(
            f"graph feature dimension {graph.features.shape[1]} does not match "
            f"the model's {model.dim}"
        )
    fixed = np.zeros(graph.n, dtype=bool) if box is None else box_overlap(graph, box) == 0.0
    features = graph.features[~fixed]
    # negative log-densities as (cost-of-0, cost-of-1) rows; a loaded
    # model's finite but extreme numbers can overflow them to inf or nan
    with np.errstate(all="ignore"):
        unary = np.column_stack([
            -gmm.log_density_many(model.theta_bg, features),
            -gmm.log_density_many(model.theta_fg, features),
        ])
    if not np.isfinite(unary).all():
        raise NumericalError("mixture densities are not finite on this image's superpixels")
    return _cut_free(unary, graph.edges, pairwise_weights(graph, model.lam), fixed)


def _pools(instances, labelings):
    fg = [i.graph.features[l == 1] for i, l in zip(instances, labelings)]
    bg = [i.graph.features[l == 0] for i, l in zip(instances, labelings)]
    return np.concatenate(fg), np.concatenate(bg)


def em_learn(instances: list[TrainingInstance], config: Config) -> SegmentationModel:
    """Alternating refit/relabel training; deterministic given the seed.

    Reads config's gmm_k, em_max_iters, seed, lam and seed_shrink. The
    model's info.labelings holds each instance's final labeling. On an
    all-foreground or all-background collapse the run restarts once from
    init_labels with the seed shrink halved; a second collapse raises
    CollapseError.
    """
    if not instances:
        raise ValueError("need at least one training instance")
    dims = {i.graph.features.shape[1] for i in instances}
    if len(dims) != 1:
        raise ValueError("instances must share one feature dimension")

    try:
        return _em_run(instances, config, config.seed_shrink)
    except CollapseError:
        return _em_run(instances, config, config.seed_shrink / 2.0)


def _check_pools(labelings):
    pooled = np.concatenate(labelings)
    if pooled.min() == 1:
        raise CollapseError("label collapse: every superpixel is foreground")
    if pooled.max() == 0:
        raise CollapseError("label collapse: every superpixel is background")


def _em_run(instances, config, shrink) -> SegmentationModel:
    labelings = [init_labels(inst, shrink) for inst in instances]
    _check_pools(labelings)
    fixed_masks = [inst.sp_in_box == 0.0 for inst in instances]
    # every round cuts with the same Potts weights
    weights = [pairwise_weights(inst.graph, config.lam) for inst in instances]

    fg_pool, bg_pool = _pools(instances, labelings)
    theta_fg = gmm.fit(fg_pool, min(config.gmm_k, len(fg_pool)), [config.seed, 0])
    theta_bg = gmm.fit(bg_pool, min(config.gmm_k, len(bg_pool)), [config.seed, 1])
    history: list[float] = []
    iterations = 0
    for _round in range(config.em_max_iters):
        if _round:  # refit warm on the last round's labelings
            fg_pool, bg_pool = _pools(instances, labelings)
            theta_fg = gmm.fit(fg_pool, theta_fg.k, [config.seed, 0], start=theta_fg)
            theta_bg = gmm.fit(bg_pool, theta_bg.k, [config.seed, 1], start=theta_bg)

        total = 0.0
        new_labelings = []
        for inst, fixed, pairwise in zip(instances, fixed_masks, weights):
            graph = inst.graph
            free = ~fixed
            # fixed superpixels are labelled 0, so energy() of the full
            # problem (also the constrained problem's energy) gathers only
            # their label-0 cost: their label-1 cost is never read, and
            # the foreground density is evaluated on free ones only. This
            # is not `cut`, which evaluates the background density on the
            # free rows alone: those values are not bit-equal to the same
            # rows of this full evaluation, so the tables would move
            unary = np.zeros((graph.n, 2))
            unary[:, 0] = -gmm.log_density_many(theta_bg, graph.features)
            unary[free, 1] = -gmm.log_density_many(theta_fg, graph.features[free])
            labeling = _cut_free(unary[free], graph.edges, pairwise, fixed)
            new_labelings.append(labeling)
            total += energy(MrfProblem(graph.n, unary, graph.edges, pairwise), labeling)
        if history and total > history[-1] + _MONOTONE_TOL:
            raise NumericalError(
                f"pooled energy increased across EM rounds: {history[-1]} -> {total}"
            )
        history.append(total)
        iterations = _round + 1
        _check_pools(new_labelings)
        if all(np.array_equal(a, b) for a, b in zip(labelings, new_labelings)):
            labelings = new_labelings
            break
        labelings = new_labelings

    info = ModelInfo(
        instances=len(instances), iterations=iterations, energy_history=history
    )
    model = SegmentationModel(theta_fg, theta_bg, config.lam, info)
    # the last round cut every instance under the final mixtures; with no
    # round run, the labelings are still the initial ones
    info.labelings = (
        labelings if iterations else [segment_instance(model, inst) for inst in instances]
    )
    return model


def segment_instance(model: SegmentationModel, inst: TrainingInstance) -> np.ndarray:
    """Relabeling pass with the instance's outside-box superpixels fixed to 0."""
    return cut(model, inst.graph, inst.box)
