"""Pixel precision and foreground Jaccard of a predicted mask against a
ground-truth mask: the segmentation scores the tests hold the pipeline to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SegMetrics:
    precision: float  # fraction of pixels (fg and bg jointly) labeled correctly
    jaccard: float    # foreground intersection over union


def seg_metrics(pred, gt) -> SegMetrics:
    """Pixel accuracy and foreground IoU against a ground-truth mask."""
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    precision = float((pred == gt).mean())
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        jaccard = 1.0  # both masks empty
    else:
        jaccard = float(np.logical_and(pred, gt).sum() / union)
    return SegMetrics(precision, jaccard)
