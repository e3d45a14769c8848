"""Binary pairwise MRF: energy evaluation and exact MAP inference.

The energy is sum of per-node label costs plus a nonnegative penalty per
edge whose endpoints disagree (Potts form). Inference first tries a
persistency certificate: rounds that fix each node whose cost difference,
with its decided neighbours folded in, beats its weight to undecided
neighbours by more than a derived margin. When the rounds decide every
node, those labels are the unique minimiser and exactly the ones the flow
would return, so no network is built; a first round that can decide
nothing returns before the later rounds' arrays are set up. Otherwise
the whole problem goes to an s/t min cut: node costs become terminal
capacities after subtracting the per-node minimum (so capacities stay
nonnegative even for negative costs), disagreement penalties become
symmetric inter-node capacities. The residual network is built with
numpy in one pass, as CSR arc arrays, and handed to the Dinic loops as
plain lists; each phase's BFS stops once the sink has its level. The
flow value is checked against its cut's cost by max-flow/min-cut
duality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


_EPS = 1e-11
_UNIT_ROUNDOFF = 2.0**-53


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
    terminal = problem.unary - np.minimum(problem.unary[:, 0], problem.unary[:, 1])[:, None]
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
    A phase's BFS stops once the sink has its level. Every augmenting path
    of the phase is exactly that long, so a node the full BFS would label
    at or past the sink's level is only ever a dead end of the DFS, and
    leaving it unlabelled changes no path, push or flow bit.
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
            if level[sink] >= 0:  # no augmenting path reaches past the sink
                break
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
        raise NumericalError("pairwise weights must be nonnegative")
    n = problem.n
    source, sink = n, n + 1
    start, adj, to, cap = _residual_network(problem)
    flow, level = _max_flow(start, adj, to, cap, source, sink)
    return (np.array(level[:n]) >= 0).astype(np.int8), flow


def _margin(problem: MrfProblem) -> float:
    """delta of _persistent_labels: P _EPS + 8 (n + 1) P u C."""
    pairs = problem.n + len(problem.weights)
    capacity = float(np.abs(problem.unary).sum() + 2.0 * problem.weights.sum())
    return pairs * _EPS + 8.0 * (problem.n + 1) * pairs * _UNIT_ROUNDOFF * capacity


def _persistent_labels(problem: MrfProblem):
    """The labels persistency decides, if it decides every node; else None.

    Classic persistency (Hammer, Hansen & Simeone, Math. Programming 1984)
    in rounds over the undecided nodes. Node i's d = c1 - c0, plus the
    weight to each neighbour decided 0, minus the weight to each decided 1;
    its slack is its weight to undecided neighbours. A round decides 0
    where d > slack + delta and 1 where -d > slack + delta, against the
    earlier rounds' decisions only. The rounds stop when one decides
    nothing; negative weights decide nothing.

    Gap: if every node is decided as x, take any other labelling y and
    flip the nodes where it differs to x in round order. Each flip finds
    its earlier-decided neighbours agreeing with x, so it lowers the energy
    by at least |d| - slack > delta: x is the unique minimiser, and every
    other labelling costs more than delta above it.

    delta: with P = n + E (at least the arc pairs), C = sum |unary| +
    2 sum weights and u = 2**-53, to first order in u:
    - _max_flow stops with the arcs leaving its source side at residual
      <= _EPS. With residuals recomputed exactly from the pushes, its cut
      costs the flow value plus at most P _EPS, and the value is at most
      the minimum cut.
    - There are at most n + 1 phases of at most P paths (each saturates
      one level-graph arc). A path updates each pair on it twice, each
      update rounding by at most u times the pair's capacity, so the float
      residuals drift by at most 2 (n + 1) P u C, counted against both cuts.
    - Rounding the terminal capacities costs u C more, so the flow's cut
      costs at most P _EPS + (4 (n + 1) P + 1) u C above the minimum.
    - This function's own sums and comparisons err by at most
      (4 E + 2) u C. With n >= 1 the rounding terms add up to at most
      8 (n + 1) P u C, so x's exact gap exceeds what the flow can lose,
      and the flow returns x too.

    delta also bounds the duality gap min_cut_infer checks after a flow.
    Its labels cut exactly the arcs leaving the last BFS's source side,
    each at float residual <= _EPS, so the exact cost of their cut,
    energy(labels) - sum of the per-node minima, is the exact flow plus
    at most P _EPS + 2 (n + 1) P u C (the drift above), and never less
    than it minus that drift. Summing the at most (n + 1) P pushes into
    the flow value errs by at most (n + 1) P u C (every partial sum is
    at most C); rounding the terminal capacities, energy's sums over
    n + E terms and the sum of the n minima, by at most (2 n + E + 3) u C.
    With n >= 1 the computed cut cost and flow value differ by at most
    P _EPS + (3 (n + 1) P + 2 P + 3) u C <= delta.
    """
    n = problem.n
    weights = problem.weights
    if weights.size and weights.min() < 0:
        return None
    delta = _margin(problem)
    ends = problem.edges.T.ravel()          # each edge once from either end
    both = np.concatenate([weights, weights])
    base = problem.unary[:, 1] - problem.unary[:, 0]
    # round one, with no neighbour decided: d is base and every weight is
    # slack; when it decides nothing (and there are nodes to decide), the
    # rounds' set-up is not built
    d, bound = base, np.bincount(ends, both, minlength=n) + delta
    if n and not (np.abs(d) > bound).any():
        return None
    others = problem.edges[:, ::-1].T.ravel()
    sign = np.array([1.0, -1.0, 0.0])       # neighbour at 0, at 1, undecided (-1)
    labels = np.full(n, -1, dtype=np.int8)
    undecided = np.ones(n, dtype=bool)
    while undecided.any():
        if not undecided.all():  # later rounds fold in the decided neighbours
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


def min_cut_infer(problem: MrfProblem) -> np.ndarray:
    """Exact global minimizer of the energy.

    Persistency's labels when they decide every node (no network is
    built); otherwise max-flow/min-cut on the whole problem, as
    solve_max_flow gives it, checked by duality: the labels' cut cost,
    energy minus the sum of per-node minima, must equal the flow value
    within _persistent_labels' delta, or NumericalError is raised. Either
    way the labels are the ones solve_max_flow returns.
    """
    labeling = _persistent_labels(problem)
    if labeling is None:
        labeling, flow = solve_max_flow(problem)
        low = np.minimum(problem.unary[:, 0], problem.unary[:, 1])
        cut = energy(problem, labeling) - float(low.sum())
        tolerance = _margin(problem)
        if not abs(cut - flow) <= tolerance:
            raise NumericalError(
                f"max-flow value {flow!r} differs from its cut's cost {cut!r} "
                f"by more than {tolerance!r}"
            )
    return labeling
