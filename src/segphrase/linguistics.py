"""Embedding-driven rescoring and fusion of phrase-labelled masks.

Candidate foreground masks over one image's superpixels, each tagged
with a phrase and a detection score, reinforce or suppress one another
through one simultaneous round of message passing over phrase-embedding
similarities. The rescored masks are sum-pooled into a single weighted
map which a final graph cut turns into the output labeling.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import DataError, NumericalError, open_text
from .imaging import (
    Image,
    SuperpixelGraph,
    compute_superpixels,
    extract_features,
    labels_to_mask,
)
from .latent import box_overlap, cut, pairwise_weights
from .mrf import MrfProblem, min_cut_infer
from .spt import SegmentPhraseTable, normalize_phrase


class EmbeddingFormatError(DataError):
    """Embedding file violates the 'vocab dim' + rows layout."""


class RaggedRowError(EmbeddingFormatError):
    """A row's vector length differs from the declared dimension."""


class NonNumericTokenError(EmbeddingFormatError):
    """A vector component failed to parse as a float."""


class DuplicateWordError(EmbeddingFormatError):
    """The same (lowercased) word appears twice."""


class NonFiniteVectorError(EmbeddingFormatError):
    """A vector has a non-finite component, or a norm beyond the float range."""


class OovError(DataError):
    """Every word of a phrase is out of vocabulary."""


class UndefinedCosineError(NumericalError):
    """Cosine requested against a zero-norm composite vector."""


class UnknownPhraseError(DataError):
    """Detection references a phrase absent from the table."""


@dataclass
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]


@dataclass
class WeightedMask:
    """Superpixel mask with its phrase and nonnegative score."""

    phrase: str
    mask: np.ndarray  # (n_superpixels,) 0/1
    score: float

    def __post_init__(self):
        self.mask = np.asarray(self.mask)
        if not np.isfinite(self.score) or self.score < 0:
            raise ValueError("mask score must be finite and nonnegative")


@dataclass
class Detection:
    phrase: str
    box: tuple[int, int, int, int]
    score: float


@dataclass
class MaskReport:
    phrase: str
    score_before: float
    score_after: float


@dataclass
class SemanticSegmentation:
    """Final labeling plus everything needed to interpret or export it."""

    labels: np.ndarray         # per-superpixel 0/1
    mask: np.ndarray           # pixel-grid lift of labels
    report: list[MaskReport]   # one row per fused mask, input order
    graph: SuperpixelGraph


def load_embeddings(path) -> EmbeddingTable:
    """Parse the 'vocab_size dim' header plus 'word v1 .. vD' rows.

    Every vector must be finite with a finite norm, else
    NonFiniteVectorError naming the file and line.
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise EmbeddingFormatError("first line must be 'vocab_size dim'")
        try:
            vocab_size, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise EmbeddingFormatError("non-integer header fields") from exc
        if dim <= 0:
            raise EmbeddingFormatError("dimension must be positive")
        vectors: dict[str, np.ndarray] = {}
        for lineno, raw in enumerate(fh, 2):
            parts = raw.split()
            if not parts:
                continue
            word = parts[0].lower()
            if len(parts) - 1 != dim:
                raise RaggedRowError(
                    f"{path}:{lineno}: {len(parts) - 1} components, expected {dim}"
                )
            try:
                vec = np.array([float(t) for t in parts[1:]])
            except ValueError as exc:
                raise NonNumericTokenError(f"{path}:{lineno}: {exc}") from exc
            if not np.isfinite(vec).all():
                raise NonFiniteVectorError(f"{path}:{lineno}: non-finite vector component")
            with np.errstate(over="ignore"):
                if not np.isfinite(np.linalg.norm(vec)):
                    raise NonFiniteVectorError(f"{path}:{lineno}: vector norm overflows")
            if word in vectors:
                raise DuplicateWordError(f"duplicate word {word!r}")
            vectors[word] = vec
    if len(vectors) != vocab_size:
        raise EmbeddingFormatError(
            f"header promises {vocab_size} words, file has {len(vectors)}"
        )
    return EmbeddingTable(dim, vectors)


def phrase_vector(table: EmbeddingTable, phrase: str) -> tuple[np.ndarray, int]:
    """Element-wise sum of the phrase's word vectors.

    Out-of-vocabulary words are skipped; the second return value counts
    them. Raises OovError when no word resolves at all.
    """
    words = phrase.lower().split()
    if not words:
        raise ValueError("phrase must be non-empty")
    total = np.zeros(table.dim)
    missing = 0
    hit = False
    for word in words:
        vec = table.vectors.get(word)
        if vec is None:
            missing += 1
        else:
            total += vec
            hit = True
    if not hit:
        raise OovError(f"no word of {phrase!r} is in the embedding vocabulary")
    return total, missing


def message_pass(masks: list[WeightedMask], table: EmbeddingTable) -> list[WeightedMask]:
    """One simultaneous rescoring round over the fully-connected mask pool.

    Each mask's new score is the similarity-weighted sum of all old scores,
    including its own (self similarity 1). Similarity is the cosine of the
    phrases' composite vectors; negative similarities are clamped to zero so
    out-of-context phrases dampen rather than flip. Raises
    UndefinedCosineError when a pool of two or more masks has a zero-norm
    composite vector, NonFiniteVectorError when a composite's norm
    overflows, and NumericalError when a rescored score overflows.
    """
    if not masks:
        raise ValueError("message_pass needs at least one mask")
    with np.errstate(over="ignore"):  # an overflowing composite is reported below
        vecs = np.array([phrase_vector(table, m.phrase)[0] for m in masks])
        norms = np.linalg.norm(vecs, axis=1)
    n = len(masks)
    sim = np.eye(n)
    if n > 1:
        if not np.isfinite(norms).all():
            phrase = masks[int(np.argmin(np.isfinite(norms)))].phrase
            raise NonFiniteVectorError(f"composite vector of {phrase!r}: norm overflows")
        if (norms == 0.0).any():
            phrase = masks[int(np.argmin(norms))].phrase
            raise UndefinedCosineError(f"zero-norm composite vector for {phrase!r}")
        unit = vecs / norms[:, None]
        sim = np.maximum(unit @ unit.T, 0.0)
        np.fill_diagonal(sim, 1.0)
    with np.errstate(over="ignore"):
        new = sim @ np.array([m.score for m in masks])
    if not np.isfinite(new).all():
        raise NumericalError("rescored mask scores overflow")
    return [WeightedMask(m.phrase, m.mask, float(s)) for m, s in zip(masks, new)]


def fuse_and_cut(masks: list[WeightedMask], graph: SuperpixelGraph, lam: float) -> np.ndarray:
    """Sum-pool score-weighted superpixel masks, normalize, and cut.

    Every mask must have shape (graph.n,), else ValueError. The pooled
    per-superpixel weight is min-max normalized to [0, 1] over the image
    and used directly as the background cost (its complement as the
    foreground cost); the pairwise term is the usual boundary-driven Potts
    penalty. When every superpixel pools the same weight, nonzero weight
    counts as foreground.
    """
    if not masks:
        raise ValueError("fuse_and_cut needs at least one mask")
    pooled = np.zeros(graph.n)
    with np.errstate(over="ignore"):
        for m in masks:
            if m.mask.shape != (graph.n,):
                raise ValueError("mask length does not match the superpixel count")
            pooled += m.score * m.mask
    if not np.isfinite(pooled).all():
        raise NumericalError("pooled mask weights overflow")
    lo, hi = float(pooled.min()), float(pooled.max())
    if hi > lo:
        norm = (pooled - lo) / (hi - lo)
    else:
        norm = (pooled > 0).astype(np.float64)
    unary = np.column_stack([norm, 1.0 - norm])
    weights = pairwise_weights(graph, lam)
    return min_cut_infer(MrfProblem(graph.n, unary, graph.edges, weights))


def parse_detections(path) -> list[Detection]:
    """Detections file: 'phrase_quoted x0 y0 x1 y1 score' per line."""
    out = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parts = shlex.split(line)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad quoting ({exc})") from exc
            if len(parts) != 6:
                raise DataError(
                    f"{path}:{lineno}: expected 'phrase x0 y0 x1 y1 score'"
                )
            try:
                box = tuple(int(v) for v in parts[1:5])
                score = float(parts[5])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad numeric field") from exc
            if not np.isfinite(score):
                raise DataError(f"{path}:{lineno}: detection score must be finite")
            out.append(Detection(parts[0], box, score))
    return out


def _box_iou(a, b) -> float:
    ix = max(0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter == 0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def nms(detections: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression, highest score first."""
    ranked = sorted(
        range(len(detections)), key=lambda i: (-detections[i].score, i)
    )
    kept: list[int] = []
    for i in ranked:
        if all(
            _box_iou(detections[i].box, detections[j].box) <= iou_threshold
            for j in kept
        ):
            kept.append(i)
    return [detections[i] for i in sorted(kept)]


def semantic_segment(
    image: Image,
    detections: list[Detection],
    table: SegmentPhraseTable,
    embeddings: EmbeddingTable,
    config: Config,
) -> SemanticSegmentation:
    """Full per-image pipeline: NMS, per-detection model cuts restricted to
    their boxes, message passing, and the fused final cut.

    Detections with no table entry raise UnknownPhraseError. When nothing
    survives the score threshold the result is the all-background sentinel
    with an empty report.
    """
    smap = compute_superpixels(image, config.superpixel_target)
    graph = extract_features(image, smap)

    by_phrase: dict[str, list[Detection]] = {}
    for det in detections:
        by_phrase.setdefault(normalize_phrase(det.phrase), []).append(det)
    surviving: list[Detection] = []
    for phrase in by_phrase:
        surviving.extend(nms(by_phrase[phrase], config.nms_iou))
    surviving = [d for d in surviving if d.score > config.detection_threshold]
    surviving.sort(key=lambda d: detections.index(d))

    if not surviving:
        empty = np.zeros(graph.n, dtype=np.int8)
        return SemanticSegmentation(empty, labels_to_mask(empty, smap), [], graph)

    masks: list[WeightedMask] = []
    for det in surviving:
        hits = table.query(det.phrase)
        if not hits:
            raise UnknownPhraseError(f"phrase {det.phrase!r} not in table")
        model = hits[0][1]  # lowest component id
        labeling = cut(model, graph, box_overlap(graph, det.box) == 0.0)
        masks.append(WeightedMask(det.phrase, labeling, det.score))

    rescored = message_pass(masks, embeddings)
    labels = fuse_and_cut(rescored, graph, config.lam)
    report = [
        MaskReport(m.phrase, m.score, r.score)
        for m, r in zip(masks, rescored)
    ]
    return SemanticSegmentation(labels, labels_to_mask(labels, smap), report, graph)
