"""Reference relations code: the entailment score as two directed
similarities, each from its own cosine block with the norms recomputed,
and the score matrix as one such score per requested pair;
the original edge-selection solvers over numbered edge variables,
triple-index lists and closure sets; and the triple-loop violation
count. Kept as first written, except that the greedy solver sums a
move's net gain in the program's order, so tests can check
`segphrase.relations` against them bit for bit and decision for
decision. Also the test-only views of the program's answers: a decision
matrix's objective and the paraphrase decision of one pair.
"""

from __future__ import annotations

import numpy as np

from segphrase import relations
from segphrase.relations import _TIE_EPS, EXACT_NODE_LIMIT, ZeroNormDescriptorError


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if (na == 0).any() or (nb == 0).any():
        raise ZeroNormDescriptorError("zero-norm exemplar descriptor")
    return (a @ b.T) / np.outer(na, nb)


def directed_similarity(a, b) -> float:
    """Mean over a's exemplars of the best cosine match among b's.

    Asymmetric by design: a small, specific exemplar set can match into a
    broad one perfectly without the broad set matching back.
    """
    return float(_cosine_matrix(a.descriptors, b.descriptors).max(axis=1).mean())


def entail_score(x, y) -> float:
    """Directed-similarity difference; antisymmetric, zero on identity."""
    return directed_similarity(x, y) - directed_similarity(y, x)


def score_matrix(exemplars, pairs) -> np.ndarray:
    """The per-pair loop the stacked blocks replace: each requested pair
    not yet scored (the diagonal counts as scored) calls entail_score and
    stores 0.0 - s as its mirror; entries no pair asks for are nan."""
    n = len(exemplars)
    scores = np.full((n, n), np.nan)
    np.fill_diagonal(scores, 0.0)
    for i, j in pairs:
        if np.isnan(scores[i, j]):
            s = entail_score(exemplars[i], exemplars[j])
            scores[i, j] = s
            scores[j, i] = 0.0 - s
    return scores


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


def solve_entailment_graph(scores, lam: float, mode: str) -> np.ndarray:
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
        # summed as numpy sums a row-major array: a left-to-right sum in
        # set order rounds differently, which decides moves whose net
        # gain ties with zero (scores in tenths give many)
        rows, cols = zip(*sorted(additions))
        net = (scores[rows, cols] - lam).sum()
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


def is_paraphrase(x, y, tau: float) -> bool:
    """Both directions entail about equally: the program's score gap within
    tau (inclusive), the rule `segphrase relations paraphrase` applies."""
    return relations.paraphrase_margin(relations.entail_score(x, y), tau) >= 0
