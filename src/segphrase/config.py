"""Run configuration shared by the CLI and the pipeline entry points.

Read from a key=value text file; a float written with repr parses back to
the identical value.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import DataError, text_rows


@dataclass
class Config:
    lam: float = 0.05               # pairwise scale in exp(-lam * boundary)
    gmm_k: int = 5                  # mixture components per model side
    em_max_iters: int = 10
    superpixel_target: int = 200
    k_exemplars: int = 10
    ilp_lambda: float = 0.1         # per-edge sparsity penalty in the graph solve
    nms_iou: float = 0.5
    paraphrase_tau: float = 0.1
    seed: int = 0
    seed_shrink: float = 0.6
    detection_threshold: float = 0.0

    def __post_init__(self):
        positive = (
            "lam",
            "gmm_k",
            "superpixel_target",
            "k_exemplars",
            "nms_iou",
            "paraphrase_tau",
            "seed_shrink",
        )
        # written so that nan fails every test
        for name in positive:
            if not (0 < getattr(self, name) < math.inf):
                raise DataError(f"config field {name} must be positive and finite")
        for name in ("em_max_iters", "seed", "ilp_lambda", "detection_threshold"):
            if not (0 <= getattr(self, name) < math.inf):
                raise DataError(f"config field {name} must be nonnegative and finite")
        if self.seed_shrink > 1:
            raise DataError("config field seed_shrink must be in (0, 1]")


_FIELDS = {f.name: f.type for f in dataclasses.fields(Config)}


def load_config(path) -> Config:
    values = {}
    # the text before an inline '#' comment
    for lineno, line in text_rows(path, lambda line: line.split("#", 1)[0]):
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, _, value = (t.strip() for t in line.partition("="))
        if key not in _FIELDS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise DataError(f"{path}:{lineno}: duplicate config key {key!r}")
        caster = int if _FIELDS[key] in ("int", int) else float
        try:
            values[key] = caster(value)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key}") from exc
    return Config(**values)

