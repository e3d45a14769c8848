"""Directed visual similarity, entailment scoring, and the transitivity-
constrained edge-selection solve.

A phrase is represented by the descriptors of its top exemplar masks.
Directed similarity is the mean over one side's exemplars of the best
cosine match on the other side; its antisymmetrized difference is the
entailment score. An op's requested pairs are scored together, grouped
by the two phrases' exemplar counts: each group's cosine blocks are one
stacked elementwise product per bounded block of pairs, and every score
keeps the bits of scoring its pair alone, on any BLAS. Graph-level
decisions maximize total selected edge score minus a sparsity penalty
subject to W_xy + W_yz - W_xz <= 1 over all ordered triples of distinct
nodes (Berant, Dagan & Goldberger, ACL 2011), solved exactly by depth-first
branch and bound on small graphs or greedily with transitive closing.
Both solvers read the n x n score matrix and write the n x n decision
matrix W. The exact search assigns W's entries in place and checks each
against the triples it completes with row and column bitmasks held as
Python ints. The greedy closing keeps a reflexive reach matrix: a move
x -> y adds the open entries of the block of x and everything entailing
it by y and everything it entails, its gains read from that block, rows
and columns ascending, which is the array an n x n outer-product mask
selects, so the sum has the same bits. The greedy walks the candidates
one at a time, summing each move not yet reached. After n candidates
without an accepted move it screens all remaining ones at once by
matrix products through the reach matrix, and visits only those the
screen passes until the next accepted move. The screen has an error
bound that holds for any order of summation, so it rejects only moves
whose own sum is negative, and the decisions do not depend on the BLAS.
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


@dataclass
class PhraseExemplars:
    """A phrase with one descriptor row per exemplar mask."""

    phrase: str
    descriptors: np.ndarray  # (m, L)

    def __post_init__(self):
        self.descriptors = np.atleast_2d(np.asarray(self.descriptors, dtype=np.float64))
        if len(self.descriptors) == 0:
            raise ValueError("exemplar set must be non-empty")

    @cached_property
    def units(self) -> np.ndarray:
        """unit_rows of the descriptors, computed at the first pair scored."""
        names = [self.phrase] * len(self.descriptors)
        return unit_rows(self.descriptors, "exemplar descriptor", names)


def unit_rows(rows: np.ndarray, what: str, names) -> np.ndarray:
    """The rows (n, L) divided by their norms. Of the rows, names[i] naming
    row i, the first whose norm overflows is a DataError; failing that, the
    first with a zero norm is a NumericalError."""
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norms = np.linalg.norm(rows, axis=1)
    overflows = ~np.isfinite(norms)
    if overflows.any():
        raise DataError(f"{what} of {names[overflows.argmax()]!r}: norm overflows")
    if (norms == 0.0).any():
        raise NumericalError(f"zero-norm {what} for {names[norms.argmin()]!r}")
    return rows / norms[:, None]


def cosines(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Cosines (..., mx, my) of unit rows xs (..., mx, L) against ys
    (..., my, L). Each is numpy's pairwise sum of one row-major elementwise
    product of two rows, with no BLAS call: its bits depend on those two
    rows alone, and cosines(ys, xs) is bitwise the transpose."""
    return np.multiply(xs[..., :, None, :], ys[..., None, :, :], order="C").sum(axis=-1)


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
    stacked blocks.
    """
    return float(_block_scores(x.units[None], y.units[None])[0])


def _block_scores(xs, ys) -> np.ndarray:
    """Entailment scores of stacked pairs: unit rows xs (B, mx, L) against
    ys (B, my, L).

    Both directions of a pair read one cosine block, x's rows against
    y's, bitwise the transposed block y against x (see cosines). Maxima
    are exact, and a last-axis sum of length m is the pairwise sum
    ndarray.sum() runs on a length-m array, so every score has the bits
    of the one-pair formula, and a phrase scores exactly 0.0 on itself.
    """
    c = cosines(xs, ys)
    mx, my = c.shape[1:]
    # each mean as np.mean computes it (sum, then divide by the count)
    return c.max(axis=2).sum(axis=1) / mx - c.max(axis=1).sum(axis=1) / my


def score_matrix(exemplars: list[PhraseExemplars], pairs) -> np.ndarray:
    """Entailment scores of the phrase-index pairs an op reads.

    Each unordered pair of distinct phrases is scored once, in order of
    first request, and each phrase's units are first read in that order,
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
    # per exemplar count m, the (phrases, m, L) unit rows of the phrases
    # scored; each phrase's m and slot in them
    stacks: dict[int, list] = {}
    m, slot = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    for k in dict.fromkeys(chain.from_iterable(requested)):
        units = exemplars[k].units
        stack = stacks.setdefault(len(units), [])
        m[k], slot[k] = len(units), len(stack)
        stack.append(units)
    stacks = {count: np.stack(stack) for count, stack in stacks.items()}

    # pairs grouped by (mx, my), in blocks of at most _PAIR_BLOCK pairs
    s = np.empty(len(rows))
    key = m[rows] * (max(stacks, default=0) + 1) + m[cols]
    order = np.argsort(key, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        for start in range(0, len(group), _PAIR_BLOCK):
            block = group[start : start + _PAIR_BLOCK]
            xs, ys = stacks[m[rows[block[0]]]], stacks[m[cols[block[0]]]]
            s[block] = _block_scores(xs[slot[rows[block]]], ys[slot[cols[block]]])

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
    nonnegative; always feasible, not necessarily optimal. A move's net
    gain is numpy's sum of its open gains in row-major order, read from
    the block of its sources by its targets. After a run of candidates
    without an accepted move, the remaining ones are screened all at once
    by matrix products whose error bound skips only moves that sum to a
    negative gain, so the screen changes no decision. Scores must be
    finite and lam a nonnegative number.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if scores.shape != (n, n):
        raise ValueError("scores must be square")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if not lam >= 0:
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


def _quiet_run(n):
    """Candidates the greedy walks one at a time after its last accepted
    move before it screens all the remaining ones at once; a function of
    its own so that tests can force the bulk screen on or off. Of the
    rules timed in BENCH_relations_greedy.json, n stays near the fastest
    from 40 to 400 nodes, where a constant 8 screens too often."""
    return n


def _solve_greedy(scores, lam) -> np.ndarray:
    n = len(scores)
    off = ~np.eye(n, dtype=bool)
    gain = scores - lam
    flat_gain = gain.ravel()
    # reach = decisions plus the diagonal: column x is x and everything
    # entailing it, row y is y and everything it entails
    reach = np.eye(n, dtype=bool)
    flat_reach = reach.ravel()
    candidates = np.flatnonzero(off)
    # score descending, row-major on ties
    candidates = candidates[np.argsort(-scores.ravel()[candidates], kind="stable")]
    walk = candidates.tolist()
    # the screen's error bound holds while no sum of gains can overflow;
    # past that the walk alone decides
    bounded = np.abs(gain).max(initial=0.0) < 2.0**1000 / max(n * n, 1)
    quiet_run = _quiet_run(n) if bounded else len(walk)
    slack = (n + 1) ** 2 * 2.0**-52

    def move(c) -> bool:
        """Close x -> y, c = x * n + y, if the gains of the entries it
        opens sum to >= 0: x and everything entailing it then entail y
        and everything it entails."""
        x, y = divmod(c, n)
        sources, targets = reach[:, x].nonzero()[0], reach[y].nonzero()[0]
        # the open entries of the sources x targets block, row-major: the
        # array the outer product's mask selects, so the sum has its bits
        block = ((sources * n)[:, None] + targets).ravel()
        block = block[~flat_reach[block]]
        if not flat_gain[block].sum() >= 0:
            return False
        flat_reach[block] = True
        return True

    i, stop = 0, quiet_run  # candidates before stop are walked one at a time
    while i < len(walk):
        if i < stop:
            c = walk[i]
            i += 1
            if not flat_reach[c] and move(c):
                stop = i + quiet_run
            continue
        # Screen the remaining candidates at once. net[x, y] and mass[x, y]
        # are the sum and the absolute sum of the open gains move(x, y)
        # would add: r G r with r the 0/1 matrix reach.T and G the open
        # gains (or their absolute values). Every term is exact, and n terms
        # added in any order, as any BLAS adds them, err by at most
        # e_n = n u / (1 - n u) of their absolute sum (u = 2**-53). So net
        # is within (2 e_n + e_n**2) mass of the exact sum, and move's sum of
        # at most n * n terms within e_(n * n) mass of it: a candidate with
        # net < -slack * mass, slack = 2 (n + 1)**2 u covering both with
        # room, sums to a negative gain, and move would reject it. A
        # rejected move changes nothing, so the screen holds until the
        # next accepted one.
        rest = candidates[i:]
        r = reach.T.astype(np.float64)
        g = np.where(reach, 0.0, gain)
        net = (r @ g @ r).ravel()[rest]
        mass = (r @ np.abs(g) @ r).ravel()[rest]
        passing = ~flat_reach[rest] & ~(net < -slack * mass)
        for k in np.flatnonzero(passing).tolist():
            if move(walk[i + k]):
                i += k + 1
                stop = i + quiet_run
                break
        else:
            break
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
