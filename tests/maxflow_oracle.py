"""Reference max-flow: the original per-edge `add_edge` residual network
and Dinic loops, kept verbatim so tests can check the array-built
`segphrase.mrf` network against it flow for flow; the brute-force
minimizer that checks the cut's energy on small problems; and the
persistency rounds without the early exit of the first.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from segphrase.mrf import MrfProblem, SubmodularityError

_EPS = 1e-11
_BRUTE_FORCE_LIMIT = 24
_CHUNK_BITS = 18


class _FlowNetwork:
    """Adjacency-list residual network for Dinic's algorithm."""

    def __init__(self, n_nodes: int):
        self.head: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_edge(self, u: int, v: int, cap_uv: float, cap_vu: float = 0.0):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap_uv)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(cap_vu)

    def _bfs_levels(self, source: int, sink: int):
        level = [-1] * len(self.head)
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if level[v] < 0 and self.cap[eid] > _EPS:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[sink] >= 0 else None

    def _augment(self, source, sink, level, it):
        """Push flow along one source-sink path of the level graph."""
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                flow = min(self.cap[eid] for eid in path)
                for eid in path:
                    self.cap[eid] -= flow
                    self.cap[eid ^ 1] += flow
                return flow
            advanced = False
            while it[u] < len(self.head[u]):
                eid = self.head[u][it[u]]
                v = self.to[eid]
                if self.cap[eid] > _EPS and level[v] == level[u] + 1:
                    path.append(eid)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == source:
                    return 0.0
                level[u] = -1  # dead end for this phase
                last = path.pop()
                u = self.to[last ^ 1]
                it[u] += 1

    def max_flow(self, source: int, sink: int) -> float:
        total = 0.0
        while True:
            level = self._bfs_levels(source, sink)
            if level is None:
                return total
            it = [0] * len(self.head)
            while True:
                pushed = self._augment(source, sink, level, it)
                if pushed <= 0.0:
                    break
                total += pushed

    def source_side(self, source: int) -> np.ndarray:
        """Nodes reachable from source in the residual graph (minimal cut side)."""
        seen = np.zeros(len(self.head), dtype=bool)
        seen[source] = True
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if not seen[v] and self.cap[eid] > _EPS:
                    seen[v] = True
                    queue.append(v)
        return seen


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
    net = _FlowNetwork(n + 2)
    base = problem.unary.min(axis=1)
    for i in range(n):
        cost0 = problem.unary[i, 0] - base[i]
        cost1 = problem.unary[i, 1] - base[i]
        if cost0 > 0.0:
            net.add_edge(source, i, cost0)
        if cost1 > 0.0:
            net.add_edge(i, sink, cost1)
    for (i, j), w in zip(problem.edges, problem.weights):
        if w > 0.0:
            net.add_edge(int(i), int(j), w, w)
    flow = net.max_flow(source, sink)
    labeling = net.source_side(source)[:n].astype(np.int8)
    return labeling, flow


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


def persistent_labels(problem: MrfProblem, delta: float):
    """Persistency's rounds as first written, each round built in full:
    the labels when they decide every node, else None."""
    n = problem.n
    weights = problem.weights
    if weights.size and weights.min() < 0:
        return None
    ends = problem.edges.T.ravel()
    others = problem.edges[:, ::-1].T.ravel()
    both = np.concatenate([weights, weights])
    sign = np.array([1.0, -1.0, 0.0])
    base = problem.unary[:, 1] - problem.unary[:, 0]
    labels = np.full(n, -1, dtype=np.int8)
    undecided = np.ones(n, dtype=bool)
    while undecided.any():
        near = labels[others]
        d = base + np.bincount(ends, both * sign[near], minlength=n)
        bound = np.bincount(ends, both * (near < 0), minlength=n) + delta
        zero = undecided & (d > bound)
        one = undecided & (-d > bound)
        if not (zero.any() or one.any()):
            return None
        labels[zero] = 0
        labels[one] = 1
        undecided &= ~(zero | one)
    return labels
