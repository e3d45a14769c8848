"""Directed visual similarity, entailment scoring, and the transitivity-
constrained edge-selection solve.

A phrase is represented by the descriptors of its top exemplar masks.
Directed similarity is the mean over one side's exemplars of the best
cosine match on the other side; its antisymmetrized difference is the
entailment score. Graph-level decisions maximize total selected edge
score minus a sparsity penalty subject to W_xy + W_yz - W_xz <= 1 over
all ordered triples of distinct nodes, solved exactly by depth-first
branch and bound on small graphs or greedily with transitive closing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .imaging import HIST_BINS, Image
from .spt import SegmentPhraseTable, normalize_phrase

SHAPE_BINS = 36
EXACT_NODE_LIMIT = 6
_TIE_EPS = 1e-12


class ZeroNormDescriptorError(NumericalError):
    """Exemplar descriptor has zero norm; cosine undefined."""


@dataclass
class PhraseExemplars:
    """A phrase with one descriptor row per exemplar mask."""

    phrase: str
    descriptors: np.ndarray  # (m, L)

    def __post_init__(self):
        self.descriptors = np.atleast_2d(np.asarray(self.descriptors, dtype=np.float64))
        if len(self.descriptors) == 0:
            raise ValueError("exemplar set must be non-empty")


def exemplar_descriptor(image: Image, pixel_mask: np.ndarray) -> np.ndarray:
    """Appearance histogram of the masked pixels plus a radial shape profile.

    Appearance: imaging.HIST_BINS intensity bins per channel (grayscale
    replicated to three channels), as in the superpixel features. Shape: histogram of pixel distances from the mask centroid,
    normalized by the largest distance, over 36 bins. Each histogram block
    is L1-normalized.
    """
    mask = np.asarray(pixel_mask).astype(bool)
    if mask.shape != (image.height, image.width):
        raise ValueError("mask dimensions do not match image")
    data = image.data if image.channels == 3 else np.repeat(image.data, 3, axis=2)
    blocks = []
    fg = data[mask]  # (npix, 3)
    for ch in range(3):
        hist = np.zeros(HIST_BINS)
        if len(fg):
            bins = np.minimum((fg[:, ch] * HIST_BINS).astype(int), HIST_BINS - 1)
            hist = np.bincount(bins, minlength=HIST_BINS).astype(np.float64)
            hist /= hist.sum()
        blocks.append(hist)
    shape = np.zeros(SHAPE_BINS)
    ys, xs = np.nonzero(mask)
    if len(xs):
        cx, cy = xs.mean(), ys.mean()
        radii = np.hypot(xs - cx, ys - cy)
        rmax = radii.max()
        if rmax > 0:
            bins = np.minimum((radii / rmax * SHAPE_BINS).astype(int), SHAPE_BINS - 1)
            shape = np.bincount(bins, minlength=SHAPE_BINS).astype(np.float64)
        else:
            shape[0] = float(len(xs))
        shape /= shape.sum()
    blocks.append(shape)
    return np.concatenate(blocks)


def exemplars_from_table(table: SegmentPhraseTable, phrase: str) -> PhraseExemplars:
    """Collect the stored descriptors of a phrase's exemplar masks."""
    records = table.get_exemplars(phrase)
    descriptors = [r.descriptor for r in records if r.descriptor is not None]
    if not descriptors:
        raise DataError(f"no exemplars with descriptors for phrase {phrase!r}")
    return PhraseExemplars(normalize_phrase(phrase), np.vstack(descriptors))


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if (na == 0).any() or (nb == 0).any():
        raise ZeroNormDescriptorError("zero-norm exemplar descriptor")
    return (a @ b.T) / np.outer(na, nb)


def directed_similarity(a: PhraseExemplars, b: PhraseExemplars) -> float:
    """Mean over a's exemplars of the best cosine match among b's.

    Asymmetric by design: a small, specific exemplar set can match into a
    broad one perfectly without the broad set matching back.
    """
    return float(_cosine_matrix(a.descriptors, b.descriptors).max(axis=1).mean())


def entail_score(x: PhraseExemplars, y: PhraseExemplars) -> float:
    """Directed-similarity difference; antisymmetric, zero on identity."""
    return directed_similarity(x, y) - directed_similarity(y, x)


def score_matrix(exemplars: list[PhraseExemplars], pairs) -> np.ndarray:
    """Entailment scores of the phrase-index pairs an op reads.

    Each unordered pair is scored once; its mirror entry is stored as
    0.0 - s, which is bitwise entail_score of the reversed pair (and +0.0,
    not -0.0, when s is zero). The diagonal is 0.0; entries no pair asks
    for are nan.
    """
    n = len(exemplars)
    scores = np.full((n, n), np.nan)
    np.fill_diagonal(scores, 0.0)
    for i, j in pairs:
        if np.isnan(scores[i, j]):
            s = entail_score(exemplars[i], exemplars[j])
            scores[i, j] = s
            scores[j, i] = 0.0 - s
    return scores


def paraphrase_margin(score: float, tau: float) -> float:
    """tau minus the gap between the two directions' entailment scores.

    The gap |s_xy - s_yx| is 2|score| because s_yx is exactly -s_xy.
    Nonnegative exactly when the pair are paraphrases at threshold tau.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    return tau - 2.0 * abs(score)


def is_paraphrase(x: PhraseExemplars, y: PhraseExemplars, tau: float) -> bool:
    """Both directions entail about equally: score gap within tau (inclusive)."""
    return paraphrase_margin(entail_score(x, y), tau) >= 0


# ---------------------------------------------------------------------------
# Edge selection under transitivity
# ---------------------------------------------------------------------------

def _ordered_pairs(n):
    return [(x, y) for x in range(n) for y in range(n) if x != y]


def _triples(n, pair_index):
    """(var_xy, var_yz, var_xz) for every ordered triple of distinct nodes."""
    out = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x != y and y != z and x != z:
                    out.append(
                        (pair_index[x, y], pair_index[y, z], pair_index[x, z])
                    )
    return out


def solve_entailment_graph(scores, lam: float, mode: str = "exact") -> np.ndarray:
    """Select the 0/1 decision matrix maximizing sum of selected scores
    minus lam per edge, subject to all transitivity constraints.

    exact: branch and bound over edge variables in |score|-descending
    order, pruned by the sum of remaining positive gains; global optimum,
    ties resolved to the row-major-lexicographically smallest matrix.
    Limited to 6 nodes. greedy: adds edges by descending score together
    with their transitive closure whenever the net gain is nonnegative;
    always feasible, not necessarily optimal.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if scores.shape != (n, n):
        raise ValueError("scores must be square")
    if lam < 0:
        raise ValueError("sparsity penalty must be nonnegative")
    if mode == "greedy":
        return _solve_greedy(scores, lam)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if n > EXACT_NODE_LIMIT:
        raise ValueError(f"exact mode limited to {EXACT_NODE_LIMIT} nodes")

    pairs = _ordered_pairs(n)
    m = len(pairs)
    pair_index = {}
    for idx, (x, y) in enumerate(pairs):
        pair_index[x, y] = idx
    gains = np.array([scores[x, y] - lam for x, y in pairs])

    # constraints grouped by variable so a new assignment only checks
    # triples it completes
    triples = _triples(n, pair_index)
    by_var: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    for t in triples:
        for v in set(t):
            by_var[v].append(t)

    order = sorted(range(m), key=lambda v: (-abs(gains[v] + lam), v))
    pos_suffix = np.zeros(m + 1)
    for d in range(m - 1, -1, -1):
        pos_suffix[d] = pos_suffix[d + 1] + max(gains[order[d]], 0.0)

    assign = np.full(m, -1, dtype=np.int8)
    best = {"obj": -np.inf, "w": None}

    def consistent(var) -> bool:
        for a, b, c in by_var[var]:
            if assign[a] == 1 and assign[b] == 1 and assign[c] == 0:
                return False
        return True

    def leaf():
        obj = float(gains[assign == 1].sum())
        key = tuple(assign[pair_index[x, y]] for x, y in pairs)
        if obj > best["obj"] + _TIE_EPS:
            best["obj"], best["w"] = obj, key
        elif abs(obj - best["obj"]) <= _TIE_EPS and (
            best["w"] is None or key < best["w"]
        ):
            best["obj"], best["w"] = max(best["obj"], obj), key

    def search(depth, value):
        if value + pos_suffix[depth] < best["obj"] - _TIE_EPS:
            return
        if depth == m:
            leaf()
            return
        var = order[depth]
        first = 1 if gains[var] > 0 else 0
        for val in (first, 1 - first):
            assign[var] = val
            if consistent(var):
                search(depth + 1, value + (gains[var] if val else 0.0))
        assign[var] = -1

    search(0, 0.0)
    decisions = np.zeros((n, n), dtype=np.int8)
    for (x, y), val in zip(pairs, best["w"]):
        decisions[x, y] = val
    return decisions


def _closure_additions(decisions, x, y):
    """Edges forced by adding (x, y) to a transitively closed relation."""
    n = len(decisions)
    sources = {x} | {a for a in range(n) if decisions[a, x]}
    targets = {y} | {b for b in range(n) if decisions[y, b]}
    return [
        (a, b)
        for a in sources
        for b in targets
        if a != b and not decisions[a, b]
    ]


def _solve_greedy(scores, lam) -> np.ndarray:
    n = len(scores)
    decisions = np.zeros((n, n), dtype=np.int8)
    pairs = sorted(_ordered_pairs(n), key=lambda xy: (-scores[xy], xy))
    for x, y in pairs:
        if decisions[x, y]:
            continue
        additions = _closure_additions(decisions, x, y)
        net = sum(scores[a, b] - lam for a, b in additions)
        if net >= 0:
            for a, b in additions:
                decisions[a, b] = 1
    return decisions


def transitivity_violations(decisions) -> int:
    """Count of ordered distinct triples with W_xy + W_yz - W_xz > 1."""
    decisions = np.asarray(decisions)
    n = len(decisions)
    count = 0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x != y and y != z and x != z:
                    if decisions[x, y] + decisions[y, z] - decisions[x, z] > 1:
                        count += 1
    return count


def graph_objective(scores, decisions, lam: float) -> float:
    """Objective value of a decision matrix: selected scores minus lam each."""
    decisions = np.asarray(decisions, dtype=bool)
    off = ~np.eye(len(decisions), dtype=bool)
    sel = decisions & off
    return float(np.asarray(scores)[sel].sum() - lam * sel.sum())


def load_score_matrix(path) -> np.ndarray:
    """Score-matrix file: N >= 0 on the first line, then N whitespace rows
    of finite values."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise DataError("empty score-matrix file")
    try:
        n = int(tokens[0])
        values = np.array([float(t) for t in tokens[1:]])
    except ValueError as exc:
        raise DataError(f"bad token in score matrix: {exc}") from exc
    if n < 0:
        raise DataError(f"score-matrix size must be nonnegative, got {n}")
    if len(values) != n * n:
        raise DataError(f"expected {n * n} matrix entries, found {len(values)}")
    if not np.isfinite(values).all():
        raise DataError("score matrix entries must be finite")
    return values.reshape(n, n)


def parse_relations_dataset(path, kind: str = "pairs"):
    """Tab-separated gold files.

    kind='pairs': lines 'x<TAB>y<TAB>gold' with gold in {entails,
    not-entails, paraphrase, not-paraphrase}. kind='simrel': lines
    'x<TAB>y<TAB>z<TAB>gold_choice'.
    """
    valid = {"entails", "not-entails", "paraphrase", "not-paraphrase"}
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if kind == "simrel":
                if len(parts) != 4:
                    raise DataError(f"{path}:{lineno}: expected 4 tab fields")
                out.append(tuple(p.strip() for p in parts))
            else:
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: expected 3 tab fields")
                x, y, gold = (p.strip() for p in parts)
                if gold not in valid:
                    raise DataError(f"{path}:{lineno}: unknown gold label {gold!r}")
                out.append((x, y, gold))
    if not out:
        raise DataError(f"{path}: dataset has no rows")
    return out
