"""Declaration-rate curves and synthetic scenes.

The scene generator is the testing substrate for the whole pipeline: a
textured shape on a textured background with known pixel-exact ground
truth and its tight bounding box, reproducible from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import Image


# the fractions every CLI curve reports
DECLARATION_GRID = tuple((i + 1) / 10.0 for i in range(10))


def declaration_curve(scored, grid=DECLARATION_GRID) -> list[tuple[float, int]]:
    """Correct declarations among the top fraction of most-confident items.

    Items are ranked by |score| descending (ties keep input order); at each
    fraction f the top ceil(f*n) items declare by score sign (positive means
    the relation holds) and are counted correct against their gold boolean.
    """
    scored = list(scored)
    if not scored:
        raise ValueError("declaration_curve needs at least one scored item")
    scores = np.array([s for s, _ in scored], dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    gold = np.array([bool(g) for _, g in scored])
    order = np.argsort(-np.abs(scores), kind="stable")
    correct = (scores[order] > 0) == gold[order]
    cumulative = np.concatenate(([0], np.cumsum(correct)))
    out = []
    for f in grid:
        if not 0.0 < f <= 1.0:
            raise ValueError("declaration fractions must lie in (0, 1]")
        declared = math.ceil(f * len(scored))
        out.append((f, int(cumulative[declared])))
    return out


def write_curve_csv(curve, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("fraction,correct\n")
        for f, c in curve:
            fh.write(f"{f!r},{c}\n")


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------

SHAPES = ("ellipse", "rect", "blob")


@dataclass
class SceneConfig:
    size: int = 64
    fg_shape: str = "ellipse"   # one of SHAPES
    fg_texture: float = 0.75    # mean foreground intensity
    bg_texture: float = 0.25    # mean background intensity
    noise: float = 0.05         # Gaussian pixel noise sigma
    seed: int = 0

    def __post_init__(self):
        """Reject parameters that fail for every seed (ValueError)."""
        if not self.size >= 3:
            raise ValueError("scene size must be at least 3 pixels")
        if self.fg_shape not in SHAPES:
            raise ValueError(f"unknown fg_shape {self.fg_shape!r}")
        if not (0 <= self.noise < math.inf):
            raise ValueError("noise must be nonnegative and finite")
        if not (math.isfinite(self.fg_texture) and math.isfinite(self.bg_texture)):
            raise ValueError("textures must be finite")
        if abs(self.fg_texture - self.bg_texture) < 3.0 * self.noise:
            raise ValueError("textures must be separated by at least 3x the noise")


@dataclass
class SyntheticScene:
    image: Image
    gt_mask: np.ndarray                # (h, w) bool, pixel-exact
    box: tuple[int, int, int, int]     # tight bounding box of gt_mask
    config: SceneConfig


def _ellipse_mask(size, cx, cy, rx, ry):
    xs, ys = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
    return ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0


def make_scene(config: SceneConfig) -> SyntheticScene:
    """Deterministic shape-on-background scene with exact ground truth."""
    size = config.size
    rng = np.random.default_rng(config.seed)
    jitter = size / 8.0
    cx = size / 2.0 + rng.uniform(-jitter, jitter)
    cy = size / 2.0 + rng.uniform(-jitter, jitter)

    if config.fg_shape == "ellipse":
        rx = rng.uniform(size / 5.0, size / 3.5)
        ry = rng.uniform(size / 5.0, size / 3.5)
        mask = _ellipse_mask(size, cx, cy, rx, ry)
    elif config.fg_shape == "rect":
        hx = rng.uniform(size / 5.0, size / 3.5)
        hy = rng.uniform(size / 5.0, size / 3.5)
        xs, ys = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
        mask = (np.abs(xs - cx) <= hx) & (np.abs(ys - cy) <= hy)
    else:  # blob
        mask = np.zeros((size, size), dtype=bool)
        for _ in range(3):
            bx = cx + rng.uniform(-size / 8.0, size / 8.0)
            by = cy + rng.uniform(-size / 8.0, size / 8.0)
            rx = rng.uniform(size / 8.0, size / 4.5)
            ry = rng.uniform(size / 8.0, size / 4.5)
            mask |= _ellipse_mask(size, bx, by, rx, ry)
    # keep the shape strictly inside the frame so the box stays valid
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = False
    if not mask.any():
        raise ValueError("degenerate scene: shape left no foreground pixels")

    values = np.where(mask, config.fg_texture, config.bg_texture)
    if config.noise > 0:
        values = values + config.noise * rng.standard_normal((size, size))
    values = np.clip(values, 0.0, 1.0)
    image = Image(size, size, 1, values.reshape(size, size, 1))

    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    box = (int(cols[0]), int(rows[0]), int(cols[-1]) + 1, int(rows[-1]) + 1)
    return SyntheticScene(image, mask, box, config)
