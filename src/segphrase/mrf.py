"""Binary pairwise MRF: energy evaluation and exact MAP inference.

The energy is sum of per-node label costs plus a nonnegative penalty per
edge whose endpoints disagree (Potts form). Inference reduces to an s/t
min cut: node costs become terminal capacities after subtracting the
per-node minimum (so capacities stay nonnegative even for negative
costs), disagreement penalties become symmetric inter-node capacities.
The residual network is built with numpy in one pass, as CSR arc arrays,
and handed to the Dinic loops as plain lists. A brute-force enumerator
doubles as the testing oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


class SubmodularityError(NumericalError):
    """Negative disagreement penalty: min-cut optimality would not hold."""


_EPS = 1e-11
_BRUTE_FORCE_LIMIT = 24
_CHUNK_BITS = 18


@dataclass
class MrfProblem:
    """n nodes with (cost-of-0, cost-of-1) rows and weighted Potts edges."""

    n: int
    unary: np.ndarray    # (n, 2) float64, finite
    edges: np.ndarray    # (E, 2) int32
    weights: np.ndarray  # (E,) float64

    def __post_init__(self):
        self.unary = np.asarray(self.unary, dtype=np.float64).reshape(self.n, 2)
        self.edges = np.asarray(self.edges, dtype=np.int32).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if len(self.edges) != len(self.weights):
            raise ValueError("edges and weights must have equal length")
        if not np.isfinite(self.unary).all():
            raise ValueError("unary costs must be finite")
        if not np.isfinite(self.weights).all():
            raise ValueError("pairwise weights must be finite")
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= self.n):
            raise ValueError("edge endpoint out of range")


def energy(problem: MrfProblem, labeling: np.ndarray) -> float:
    """Total cost of a labeling: unary terms plus disagreement penalties."""
    x = np.asarray(labeling).astype(np.int64).reshape(-1)
    if x.shape != (problem.n,):
        raise ValueError(f"labeling length {x.size} != node count {problem.n}")
    total = float(problem.unary[np.arange(problem.n), x].sum())
    if len(problem.edges):
        disagree = x[problem.edges[:, 0]] != x[problem.edges[:, 1]]
        total += float(problem.weights[disagree].sum())
    return total


def _residual_network(problem: MrfProblem):
    """The s/t residual network in CSR form: (start, adj, to, cap) lists.

    Arcs come in pairs: pair p is arc 2p (u -> v) and its reverse 2p + 1,
    so eid ^ 1 is the reverse of eid. Pairs are numbered node by node (the
    source arc, then the sink arc, each only if its capacity is positive),
    then by edge over the positive-weight edges. Node u's arcs are
    adj[start[u]:start[u + 1]] in increasing arc id; the Dinic loops scan
    them in that order, which fixes the flows bit for bit.
    """
    n = problem.n
    source, sink = n, n + 1
    terminal = problem.unary - problem.unary.min(axis=1)[:, None]
    has = terminal > 0.0  # (n, 2): source arc (cost of 0), sink arc (cost of 1)
    node = np.broadcast_to(np.arange(n)[:, None], (n, 2))[has]
    to_sink = np.broadcast_to(np.array([False, True]), (n, 2))[has]
    live = problem.weights > 0.0
    u = np.concatenate([np.where(to_sink, node, source), problem.edges[live, 0]])
    v = np.concatenate([np.where(to_sink, sink, node), problem.edges[live, 1]])
    forward = np.concatenate([terminal[has], problem.weights[live]])
    backward = np.concatenate([np.zeros(len(node)), problem.weights[live]])
    tail = np.column_stack([u, v]).ravel()
    start = np.zeros(n + 3, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n + 2), out=start[1:])
    return (
        start.tolist(),
        np.argsort(tail, kind="stable").tolist(),
        np.column_stack([v, u]).ravel().tolist(),
        np.column_stack([forward, backward]).ravel().tolist(),
    )


def _max_flow(start, adj, to, cap, source, sink):
    """Dinic's algorithm; pushes flow into cap in place.

    Returns (flow value, levels). The levels are those of the last BFS,
    run on the final residual graph, so the nodes with a level >= 0 are
    exactly the ones reachable from source: the minimal cut's source side.
    """
    n_nodes = len(start) - 1
    total = 0.0
    while True:
        level = [-1] * n_nodes
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            next_level = level[u] + 1
            for k in range(start[u], start[u + 1]):
                eid = adj[k]
                v = to[eid]
                if level[v] < 0 and cap[eid] > _EPS:
                    level[v] = next_level
                    queue.append(v)
        if level[sink] < 0:
            return total, level
        it = start[:-1]
        while True:  # one augmenting path of the level graph per pass
            path: list[int] = []
            u = source
            while True:
                if u == sink:
                    pushed = min(cap[eid] for eid in path)
                    for eid in path:
                        cap[eid] -= pushed
                        cap[eid ^ 1] += pushed
                    break
                end = start[u + 1]
                next_level = level[u] + 1
                k = it[u]
                while k < end:
                    eid = adj[k]
                    v = to[eid]
                    if cap[eid] > _EPS and level[v] == next_level:
                        break
                    k += 1
                it[u] = k
                if k < end:
                    path.append(eid)
                    u = v
                    continue
                if u == source:
                    pushed = 0.0
                    break
                level[u] = -1  # dead end for this phase
                last = path.pop()
                u = to[last ^ 1]
                it[u] += 1
            if pushed <= 0.0:
                break
            total += pushed


def solve_max_flow(problem: MrfProblem):
    """Run the min-cut construction; return (labeling, flow_value).

    The flow value equals the optimal energy minus the sum of per-node
    minimum unary costs. Ties between minimum cuts resolve to the cut
    with the fewest source-side (label 1) nodes, so ties break toward 0.
    """
    if problem.weights.size and problem.weights.min() < 0:
        raise SubmodularityError("pairwise weights must be nonnegative")
    n = problem.n
    source, sink = n, n + 1
    start, adj, to, cap = _residual_network(problem)
    flow, level = _max_flow(start, adj, to, cap, source, sink)
    return (np.array(level[:n]) >= 0).astype(np.int8), flow


def min_cut_infer(problem: MrfProblem) -> np.ndarray:
    """Exact global minimizer of the energy via max-flow/min-cut."""
    labeling, _ = solve_max_flow(problem)
    return labeling


def brute_force_infer(problem: MrfProblem) -> np.ndarray:
    """Exhaustive minimizer; lexicographically smallest labeling among ties.

    Vectorized over chunks of the 2^n label space; only usable for small n.
    """
    n = problem.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {_BRUTE_FORCE_LIMIT}")
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)  # node 0 = most significant
    best_energy = np.inf
    best_labeling = None
    total = 1 << n
    chunk = 1 << _CHUNK_BITS
    e0 = problem.edges[:, 0] if len(problem.edges) else None
    for lo in range(0, total, chunk):
        ks = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)
        labels = ((ks[:, None] >> shifts) & 1).astype(np.int8)
        energies = labels @ problem.unary[:, 1] + (1 - labels) @ problem.unary[:, 0]
        if e0 is not None:
            disagree = labels[:, problem.edges[:, 0]] != labels[:, problem.edges[:, 1]]
            energies += disagree @ problem.weights
        idx = int(np.argmin(energies))
        if energies[idx] < best_energy:  # strict: keeps the earliest (lex-smallest)
            best_energy = float(energies[idx])
            best_labeling = labels[idx].copy()
    return best_labeling
