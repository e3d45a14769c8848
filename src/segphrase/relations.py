"""Directed visual similarity, entailment scoring, and the transitivity-
constrained edge-selection solve.

A phrase is represented by the descriptors of its top exemplar masks.
Directed similarity is the mean over one side's exemplars of the best
cosine match on the other side; its antisymmetrized difference is the
entailment score. An op's requested pairs are scored together, grouped
by the two phrases' exemplar counts: each group's cosine blocks are one
stacked matrix product per bounded block of pairs, and every score keeps
the bits of scoring its pair alone. Graph-level decisions maximize total
selected edge score minus a sparsity penalty subject to
W_xy + W_yz - W_xz <= 1 over all ordered triples of distinct nodes
(Berant, Dagan & Goldberger, ACL 2011), solved exactly by depth-first
branch and bound on small graphs or greedily with transitive closing.
Both solvers read the n x n score matrix and write the n x n decision
matrix W. The exact search assigns W's entries in place and checks each
against the triples it completes with row and column bitmasks held as
Python ints. The greedy closing keeps a reflexive reach matrix and a
mask of the entries still open: a move adds the open entries of one
outer product of a reach column and row, and a move that would add no
open entry of nonnegative gain is rejected from bitmasks alone, without
summing its gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DataError, NumericalError, open_text, text_rows
from .imaging import Image, histograms
from .spt import SegmentPhraseTable, normalize_phrase

SHAPE_BINS = 36
EXACT_NODE_LIMIT = 6
_TIE_EPS = 1e-12
_PAIR_BLOCK = 256  # pairs per stacked cosine block
# each mode's gold labels; a simrel gold is one of the row's phrases
_GOLD_LABELS = {
    "entail": ("entails", "not-entails"),
    "paraphrase": ("paraphrase", "not-paraphrase"),
    "simrel": None,
}


class ZeroNormDescriptorError(NumericalError):
    """Exemplar descriptor has zero norm; cosine undefined."""


@dataclass
class PhraseExemplars:
    """A phrase with one descriptor row per exemplar mask."""

    phrase: str
    descriptors: np.ndarray  # (m, L)

    def __post_init__(self):
        # row-major, as score_matrix's stacked copies are, so that a pair
        # scored alone and in a block makes the same BLAS call
        self.descriptors = np.atleast_2d(np.ascontiguousarray(self.descriptors, dtype=np.float64))
        if len(self.descriptors) == 0:
            raise ValueError("exemplar set must be non-empty")

    @cached_property
    def norms(self) -> np.ndarray:
        """Row norms of the descriptors, computed at the first pair scored;
        a norm that overflows is a DataError naming the phrase."""
        with np.errstate(over="ignore"):  # an overflowing norm is reported below
            norms = np.linalg.norm(self.descriptors, axis=1)
        if not np.isfinite(norms).all():
            raise DataError(f"exemplar descriptor of {self.phrase!r}: norm overflows")
        if (norms == 0).any():
            raise ZeroNormDescriptorError(
                f"zero-norm exemplar descriptor for phrase {self.phrase!r}"
            )
        return norms


def exemplar_descriptor(image: Image, pixel_mask: np.ndarray) -> np.ndarray:
    """Appearance histogram of the masked pixels plus a radial shape profile.

    Appearance: the masked pixels' `imaging.histograms`, as in the
    superpixel features. Shape: histogram of pixel distances from the mask
    centroid, normalized by the largest distance, over 36 bins. Each
    histogram block is L1-normalized.
    """
    mask = np.asarray(pixel_mask).astype(bool)
    if mask.shape != (image.height, image.width):
        raise ValueError("mask dimensions do not match image")
    fg = image.data[mask]  # (npix, channels)
    appearance = histograms(fg, np.zeros(len(fg), dtype=np.intp), 1)[0]
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
    return np.concatenate([appearance, shape])


def exemplars_from_table(table: SegmentPhraseTable, phrase: str) -> PhraseExemplars:
    """Collect the stored descriptors of a phrase's exemplar masks."""
    records = table.get_exemplars(phrase)
    descriptors = [r.descriptor for r in records if r.descriptor is not None]
    if not descriptors:
        raise DataError(f"no exemplars with descriptors for phrase {phrase!r}")
    return PhraseExemplars(normalize_phrase(phrase), np.vstack(descriptors))


def entail_score(x: PhraseExemplars, y: PhraseExemplars) -> float:
    """Directed-similarity difference; antisymmetric, zero on identity.

    Directed similarity is the mean over one side's exemplars of the best
    cosine match among the other's: asymmetric by design, since a small,
    specific exemplar set can match into a broad one perfectly without
    the broad set matching back. The one-pair case of score_matrix's
    stacked blocks, over views of the two descriptor arrays.
    """
    return float(
        _block_scores(x.descriptors[None], y.descriptors[None], x.norms[None], y.norms[None])[0]
    )


def _block_scores(xs, ys, x_norms, y_norms) -> np.ndarray:
    """Entailment scores of stacked pairs: xs (B, mx, L) against
    ys (B, my, L), with their row norms (B, mx) and (B, my).

    Both directions of a pair read one cosine block, x's rows against
    y's; its transpose is bitwise the block y against x. numpy's stacked
    matmul makes one BLAS call per slice at the slice's own shape, the
    call a pair's own 2-D product makes (gemv when a side has one
    exemplar). Maxima are exact, and a last-axis sum of length m is the
    pairwise sum ndarray.sum() runs on a length-m array, so every score
    has the bits of the one-pair formula. entail_score(x, x) passes two
    views of one buffer, which numpy multiplies with syrk into an exactly
    symmetric block: its score is exactly 0.0. (Two phrases viewing one
    buffer reach score_matrix's blocks as copies, which OpenBLAS's gemm
    also makes exactly symmetric.)
    """
    c = np.matmul(xs, ys.transpose(0, 2, 1))
    c /= x_norms[:, :, None] * y_norms[:, None, :]
    mx, my = c.shape[1:]
    # each mean as np.mean computes it (sum, then divide by the count)
    return c.max(axis=2).sum(axis=1) / mx - c.max(axis=1).sum(axis=1) / my


def score_matrix(exemplars: list[PhraseExemplars], pairs) -> np.ndarray:
    """Entailment scores of the phrase-index pairs an op reads.

    Each unordered pair of distinct phrases is scored once, in order of
    first request, and each phrase's norms are first read in that order,
    so the first bad phrase is the one reported. Pairs are grouped by
    their exemplar counts and scored in stacked blocks of at most
    _PAIR_BLOCK pairs, each score bitwise entail_score's (see
    _block_scores). The mirror entry is stored as 0.0 - s, which is
    bitwise entail_score of the reversed pair (and +0.0, not -0.0, when
    s is zero). The diagonal is 0.0; entries no pair asks for are nan.
    The phrases scored must share one descriptor length.
    """
    n = len(exemplars)
    index = range(n)  # negative indices count from the end, as numpy's do
    requested: dict[tuple[int, int], None] = {}
    for i, j in pairs:
        i, j = index[i], index[j]
        if i != j and (j, i) not in requested:
            requested[i, j] = None
    flat = np.fromiter(chain.from_iterable(requested), np.intp, 2 * len(requested))
    rows, cols = flat.reshape(-1, 2).T
    # per exemplar count m, the (phrases, m, L) descriptors and (phrases, m)
    # norms of the phrases scored; each phrase's m and slot in them
    stacks: dict[int, tuple[list, list]] = {}
    m, slot = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    for k in dict.fromkeys(chain.from_iterable(requested)):
        ex = exemplars[k]
        descriptors, norms = stacks.setdefault(len(ex.descriptors), ([], []))
        norms.append(ex.norms)
        m[k], slot[k] = len(ex.descriptors), len(descriptors)
        descriptors.append(ex.descriptors)
    stacks = {count: (np.stack(d), np.stack(v)) for count, (d, v) in stacks.items()}

    # pairs grouped by (mx, my), in blocks of at most _PAIR_BLOCK pairs
    s = np.empty(len(rows))
    key = m[rows] * (max(stacks, default=0) + 1) + m[cols]
    order = np.argsort(key, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        for start in range(0, len(group), _PAIR_BLOCK):
            block = group[start : start + _PAIR_BLOCK]
            (xd, xn), (yd, yn) = stacks[m[rows[block[0]]]], stacks[m[cols[block[0]]]]
            a, b = slot[rows[block]], slot[cols[block]]
            s[block] = _block_scores(xd[a], yd[b], xn[a], yn[b])

    scores = np.full((n, n), np.nan)
    np.fill_diagonal(scores, 0.0)
    scores[rows, cols] = s
    scores[cols, rows] = 0.0 - s
    return scores


def paraphrase_margin(score: float, tau: float) -> float:
    """tau minus the gap between the two directions' entailment scores.

    The gap |s_xy - s_yx| is 2|score| because s_yx is exactly -s_xy.
    Nonnegative exactly when the pair are paraphrases at threshold tau.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    return tau - 2.0 * abs(score)


# ---------------------------------------------------------------------------
# Edge selection under transitivity
# ---------------------------------------------------------------------------

def solve_entailment_graph(scores, lam: float, mode: str) -> np.ndarray:
    """Select the 0/1 decision matrix maximizing sum of selected scores
    minus lam per edge, subject to all transitivity constraints.

    exact: branch and bound over the off-diagonal entries in |score|-
    descending order, pruned by the sum of remaining positive gains; global
    optimum, ties resolved to the row-major-lexicographically smallest
    matrix. Limited to 6 nodes. greedy: adds edges by descending score
    together with their transitive closure whenever the net gain is
    nonnegative; always feasible, not necessarily optimal.
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
    return _solve_exact(scores, lam)


def _solve_exact(scores, lam) -> np.ndarray:
    n = len(scores)
    off = ~np.eye(n, dtype=bool)
    gains = scores - lam
    g = gains.tolist()
    # |score| descending (taken as |gain + lam|), row-major on ties
    entries = sorted(
        ((x, y) for x in range(n) for y in range(n) if x != y),
        key=lambda e: -abs(g[e[0]][e[1]] + lam),
    )
    m = len(entries)
    pos_suffix = [0.0] * (m + 1)
    for d in range(m - 1, -1, -1):
        x, y = entries[d]
        pos_suffix[d] = pos_suffix[d + 1] + max(g[x][y], 0.0)

    # W is tri-state: -1 marks an unassigned entry (the diagonal stays -1)
    # and gives the leaf objective and tie key. Bit z of row1[r] / row0[r]
    # is set when W[r, z] is 1 / 0; col1[c] / col0[c] likewise for W[z, c].
    W = np.full((n, n), -1, dtype=np.int8)
    row1, row0, col1, col0 = ([0] * n for _ in range(4))
    best_obj, best_key = -np.inf, None

    def search(depth, value):
        nonlocal best_obj, best_key
        if value + pos_suffix[depth] < best_obj - _TIE_EPS:
            return
        if depth == m:
            obj = float(gains[W == 1].sum())
            key = W[off].tobytes()
            if obj > best_obj + _TIE_EPS:
                best_obj, best_key = obj, key
            elif abs(obj - best_obj) <= _TIE_EPS and (best_key is None or key < best_key):
                best_obj, best_key = max(best_obj, obj), key
            return
        x, y = entries[depth]
        bx, by = 1 << x, 1 << y
        gain = g[x][y]
        for val in ((1, 0) if gain > 0 else (0, 1)):
            W[x, y] = val
            if val:
                row1[x] |= by
                col1[y] |= bx
                # no (x, y, z) with W[y, z] = 1, W[x, z] = 0
                # and no (z, x, y) with W[z, x] = 1, W[z, y] = 0
                if not (row1[y] & row0[x] or col1[x] & col0[y]):
                    search(depth + 1, value + gain)
                row1[x] ^= by
                col1[y] ^= bx
            else:
                row0[x] |= by
                col0[y] |= bx
                # no (x, z, y) with W[x, z] = 1, W[z, y] = 1
                if not row1[x] & col1[y]:
                    search(depth + 1, value + 0.0)
                row0[x] ^= by
                col0[y] ^= bx
        W[x, y] = -1

    search(0, 0.0)
    decisions = np.zeros((n, n), dtype=np.int8)
    decisions[off] = np.frombuffer(best_key, dtype=np.int8)
    return decisions


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _solve_greedy(scores, lam) -> np.ndarray:
    n = len(scores)
    off = ~np.eye(n, dtype=bool)
    gain = scores - lam
    # reach = decisions plus the diagonal: column x is x and everything
    # entailing it, row y is y and everything it entails. It is held as
    # an array, for the gain sums, and as bitmasks: bit r of col[x] is
    # reach[r, x], bit c of row[y] is reach[y, c].
    reach = np.eye(n, dtype=bool)
    col = [1 << i for i in range(n)]
    row = col.copy()
    # bit b of hope[a]: (a, b) is open (off the diagonal, not decided 1)
    # with a nonnegative gain; a move that adds none of these adds only
    # negative gains, so its sum is negative (or nan) and it is rejected
    hope = [sum(1 << b for b in np.flatnonzero(r).tolist()) for r in (gain >= 0) & off]
    hopeful = sum(1 << a for a in range(n) if hope[a])  # rows with any hope
    xs, ys = np.nonzero(off)
    # score descending, row-major on ties
    order = np.argsort(-scores[off], kind="stable")
    for x, y in zip(xs[order].tolist(), ys[order].tolist()):
        if row[x] >> y & 1:
            continue
        # x and everything entailing it now entail y and everything it entails
        sources, targets = col[x], row[y]
        if not any(hope[a] & targets for a in _bits(sources & hopeful)):
            continue
        add = np.outer(reach[:, x], reach[y])
        add &= ~reach  # the open entries: not decided 1, off the diagonal
        if not gain[add].sum() >= 0:
            continue
        reach |= add
        for a in _bits(sources):
            row[a] |= targets
            hope[a] &= ~targets
            if not hope[a]:
                hopeful &= ~(1 << a)
        for b in _bits(targets):
            col[b] |= sources
    return (reach & off).astype(np.int8)


def load_score_matrix(path) -> np.ndarray:
    """Score-matrix file: N >= 0 on the first line, then N whitespace rows
    of finite values. It is read as one token stream, not with
    errors.text_rows: the format has no lines or comments, and a '#' is
    a bad token."""
    with open_text(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise DataError(f"{path}: empty score-matrix file")
    try:
        n = int(tokens[0])
        values = np.array([float(t) for t in tokens[1:]])
    except ValueError as exc:
        raise DataError(f"{path}: bad token in score matrix: {exc}") from exc
    if n < 0:
        raise DataError(f"{path}: score-matrix size must be nonnegative, got {n}")
    if len(values) != n * n:
        raise DataError(f"{path}: expected {n * n} matrix entries, found {len(values)}")
    if not np.isfinite(values).all():
        raise DataError(f"{path}: score matrix entries must be finite")
    return values.reshape(n, n)


def parse_relations_dataset(path, mode: str):
    """Tab-separated gold file for a relations mode, read by text_rows:
    surrounding whitespace, tabs included, is never part of a field, and
    every field must be non-empty.

    entail: lines 'x<TAB>y<TAB>gold' with gold entails or not-entails;
    paraphrase: likewise with paraphrase or not-paraphrase; simrel: lines
    'x<TAB>y<TAB>z<TAB>gold_choice' whose gold choice normalizes to y or z.
    """
    if mode not in _GOLD_LABELS:
        raise ValueError(f"unknown mode {mode!r}")
    labels = _GOLD_LABELS[mode]
    width = 3 if labels else 4
    out = []
    for lineno, parts in text_rows(path, lambda line: line.split("\t")):
        if len(parts) != width:
            raise DataError(f"{path}:{lineno}: expected {width} tab fields")
        row = tuple(p.strip() for p in parts)
        if not all(row):
            raise DataError(f"{path}:{lineno}: empty field")
        gold = row[-1]
        if labels is None:
            if normalize_phrase(gold) not in map(normalize_phrase, row[1:3]):
                raise DataError(f"{path}:{lineno}: gold choice {gold!r} is neither y nor z")
        elif gold not in labels:
            raise DataError(f"{path}:{lineno}: unknown gold label {gold!r} for mode {mode}")
        out.append(row)
    if not out:
        raise DataError(f"{path}: dataset has no rows")
    return out
