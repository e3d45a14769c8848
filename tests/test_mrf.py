import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxflow_oracle import brute_force_infer
from maxflow_oracle import persistent_labels as oracle_persistent_labels
from maxflow_oracle import solve_max_flow as oracle_solve_max_flow
from segphrase import gmm, mrf
from segphrase.config import Config
from segphrase.errors import NumericalError
from segphrase.evaluation import SceneConfig, make_scene
from segphrase.imaging import compute_superpixels, extract_features
from segphrase.latent import em_learn, make_instance, segment_instance
from segphrase.mrf import (
    MrfProblem,
    energy,
    min_cut_infer,
    solve_max_flow,
)


def make(n, unary, edges=(), weights=()):
    return MrfProblem(
        n,
        np.asarray(unary, dtype=float),
        np.asarray(edges, dtype=np.int32).reshape(-1, 2),
        np.asarray(weights, dtype=float),
    )


def random_problem(rng, max_n=10, edge_p=0.4):
    n = int(rng.integers(1, max_n + 1))
    unary = rng.uniform(-5, 5, size=(n, 2))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_p]
    weights = rng.uniform(0, 3, size=len(pairs))
    return make(n, unary, pairs, weights)


# -- energy -------------------------------------------------------------------

def test_energy_single_node():
    assert energy(make(1, [[2, 5]]), [0]) == 2.0


def test_energy_single_disagreeing_edge():
    p = make(2, [[0, 0], [0, 0]], [(0, 1)], [3.0])
    assert energy(p, [0, 1]) == 3.0


def test_energy_path_graph_hand_expansion():
    p = make(3, [[1, 0], [5, 5], [0, 1]], [(0, 1), (1, 2)], [2.0, 2.0])
    # unary: 0 + 5 + 0, pairwise: only edge (1,2) disagrees -> +2
    assert energy(p, [1, 1, 0]) == 7.0


def test_energy_length_mismatch():
    with pytest.raises(ValueError):
        energy(make(2, [[0, 0], [0, 0]]), [0])


# -- min_cut_infer --------------------------------------------------------------

def test_unaries_dominate():
    p = make(2, [[0, 10], [0, 10]])
    assert np.array_equal(min_cut_infer(p), [0, 0])


def test_tie_breaks_toward_zero():
    p = make(2, [[10, 0], [0, 10]], [(0, 1)], [100.0])
    labeling = min_cut_infer(p)
    assert energy(p, labeling) == 10.0
    assert np.array_equal(labeling, [0, 0])


def test_matches_brute_force_on_random_problems():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p = random_problem(rng)
        assert energy(p, min_cut_infer(p)) == pytest.approx(
            energy(p, brute_force_infer(p)), abs=1e-9
        )


def test_negative_weight_raises():
    p = make(2, [[0, 0], [0, 0]], [(0, 1)], [-1.0])
    with pytest.raises(NumericalError, match=r"^pairwise weights must be nonnegative$"):
        min_cut_infer(p)


def test_flow_energy_duality():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = random_problem(rng)
        labeling, flow = solve_max_flow(p)
        base = p.unary.min(axis=1).sum()
        assert flow == pytest.approx(energy(p, labeling) - base, abs=1e-6)


# -- brute_force_infer ----------------------------------------------------------

def test_brute_single_node():
    assert np.array_equal(brute_force_infer(make(1, [[1, 0]])), [1])


def test_brute_lexicographic_tie_break():
    p = make(2, [[0, 0], [0, 0]], [(0, 1)], [1.0])
    assert np.array_equal(brute_force_infer(p), [0, 0])


def test_brute_rejects_large_n():
    with pytest.raises(ValueError):
        brute_force_infer(make(25, np.zeros((25, 2))))


# -- invariants -----------------------------------------------------------------

def test_energy_invariant_under_node_relabeling():
    rng = np.random.default_rng(3)
    p = random_problem(rng, max_n=8)
    perm = rng.permutation(p.n)
    inv = np.argsort(perm)
    p2 = make(p.n, p.unary[perm][:, :], inv[p.edges], p.weights)
    x = rng.integers(0, 2, size=p.n)
    # relabeled problem evaluated on the relabeled labeling
    assert energy(p, x) == pytest.approx(energy(p2, x[perm]), abs=1e-9)


def test_constant_shift_moves_energy_not_argmin():
    rng = np.random.default_rng(4)
    p = random_problem(rng, max_n=8)
    node, c = 0, 3.7
    shifted = p.unary.copy()
    shifted[node] += c
    p2 = make(p.n, shifted, p.edges, p.weights)
    for _ in range(10):
        x = rng.integers(0, 2, size=p.n)
        assert energy(p2, x) == pytest.approx(energy(p, x) + c, abs=1e-9)
    assert np.array_equal(brute_force_infer(p), brute_force_infer(p2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cut_equals_brute_force_property(seed):
    p = random_problem(np.random.default_rng(seed), max_n=6)
    assert energy(p, min_cut_infer(p)) == pytest.approx(
        energy(p, brute_force_infer(p)), abs=1e-9
    )


# -- array-built network against the per-edge reference -------------------------

def _assert_same_as_oracle(p):
    labeling, flow = solve_max_flow(p)
    want_labeling, want_flow = oracle_solve_max_flow(p)
    assert np.array_equal(labeling, want_labeling)
    assert flow == want_flow


def tie_heavy_problem(rng, max_n=12):
    """Small-integer costs and weights: exact ties, zero weights, zero-cost
    nodes (equal costs) and isolated nodes are all common."""
    n = int(rng.integers(1, max_n + 1))
    unary = rng.integers(-2, 3, size=(n, 2)).astype(float)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    weights = rng.integers(0, 3, size=len(pairs)).astype(float)
    return make(n, unary, pairs, weights)


def test_matches_oracle_on_random_problems():
    rng = np.random.default_rng(21)
    for _ in range(150):
        _assert_same_as_oracle(random_problem(rng, max_n=14))
        _assert_same_as_oracle(tie_heavy_problem(rng))


def test_matches_oracle_on_edge_cases():
    _assert_same_as_oracle(make(1, [[0.0, 0.0]]))
    _assert_same_as_oracle(make(1, [[3.0, -1.0]]))
    _assert_same_as_oracle(make(3, np.zeros((3, 2))))
    _assert_same_as_oracle(make(3, [[1, 2], [2, 1], [0, 0]], [(0, 1), (1, 2)], [0.0, 0.0]))
    _assert_same_as_oracle(make(4, [[1, 0], [0, 1], [1, 0], [0, 1]], [(0, 1), (2, 3)], [1.0, 1.0]))


@pytest.fixture(scope="module", params=[1, 2])
def scene_problems(request):
    """A 256 px scene's full cut, the same with outside-box label-1 costs
    raised by 1e6 (mixed magnitudes), and what a box-clamped cut needs."""
    seed = request.param
    scene = make_scene(SceneConfig(size=256, seed=seed))
    graph = extract_features(scene.image, compute_superpixels(scene.image, 800))
    instance = make_instance(graph, scene.box)
    model = em_learn([instance], Config(gmm_k=2, seed=seed))
    unary = np.column_stack([
        -gmm.log_density_many(model.theta_bg, graph.features),
        -gmm.log_density_many(model.theta_fg, graph.features),
    ])
    weights = np.exp(-model.lam * graph.boundary_prob)
    raised = unary.copy()
    raised[instance.sp_in_box == 0.0, 1] += 1e6
    problems = [make(graph.n, u, graph.edges, weights) for u in (unary, raised)]
    return problems, model, instance


def test_matches_oracle_on_scene_graphs(scene_problems):
    for p in scene_problems[0]:
        _assert_same_as_oracle(p)


# -- persistency certificate ------------------------------------------------------

def _flows_built(monkeypatch):
    """Node counts of the problems whose residual network is built."""
    built = []
    network = mrf._residual_network

    def spy(problem):
        built.append(problem.n)
        return network(problem)

    monkeypatch.setattr(mrf, "_residual_network", spy)
    return built


def _delta(p):
    """The certificate's margin as its docstring derives it."""
    pairs = p.n + len(p.weights)
    capacity = np.abs(p.unary).sum() + 2.0 * p.weights.sum()
    return pairs * 1e-11 + 8.0 * (p.n + 1) * pairs * 2.0**-53 * capacity


def _assert_labels_are_the_flows(p):
    labeling = min_cut_infer(p)
    assert labeling.dtype == np.int8
    assert np.array_equal(labeling, solve_max_flow(p)[0])


def test_certified_labels_are_the_flows_on_random_problems():
    rng = np.random.default_rng(23)
    certified = 0
    for _ in range(300):
        for p in (random_problem(rng, max_n=14, edge_p=0.2), tie_heavy_problem(rng)):
            _assert_labels_are_the_flows(p)
            certified += mrf._persistent_labels(p) is not None
    assert 50 < certified < 550, certified  # both paths are exercised


def test_exact_tie_with_slack_falls_through_to_the_flow(monkeypatch):
    # each node's d equals its slack: the energies of 00, 01 and 11 tie
    p = make(2, [[0, 1], [1, 0]], [(0, 1)], [1.0])
    built = _flows_built(monkeypatch)
    assert mrf._persistent_labels(p) is None
    assert np.array_equal(min_cut_infer(p), [0, 0]) and built == [2]


@pytest.mark.parametrize("label", [0, 1])
def test_certificate_decides_only_beyond_slack_plus_delta(label):
    # two nodes with one cost difference t and one edge: both are decided
    # in the first round exactly when t > w + delta, else neither is
    w = 0.75
    near = w + _delta(make(2, [[0, w], [0, w]], [(0, 1)], [w]))
    sides = set()
    for step in range(-4, 5):
        t = near
        for _ in range(abs(step)):
            t = np.nextafter(t, np.inf if step > 0 else -np.inf)
        row = [0.0, t] if label == 0 else [t, 0.0]
        p = make(2, [row, row], [(0, 1)], [w])
        certified = mrf._persistent_labels(p)
        assert (certified is not None) == (t > w + _delta(p)), step
        if certified is not None:
            assert np.array_equal(certified, [label, label])
        sides.add(certified is not None)
        _assert_labels_are_the_flows(p)
    assert sides == {True, False}


def test_certified_labels_are_the_flows_across_capacity_spreads():
    # unaries and weights spread log-uniformly over 1e-12 .. 1e6, so some
    # cost differences sit below the flow's absolute _EPS
    rng = np.random.default_rng(29)
    certified = 0
    for _ in range(400):
        n = int(rng.integers(1, 12))
        unary = 10.0 ** rng.uniform(-12, 6, size=(n, 2)) * rng.choice([-1, 1], size=(n, 2))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        weights = 10.0 ** rng.uniform(-12, 6, size=len(pairs))
        p = make(n, unary, pairs, weights)
        _assert_labels_are_the_flows(p)
        certified += mrf._persistent_labels(p) is not None
    assert 40 < certified < 360, certified


def test_scene_cuts_build_no_network(scene_problems, monkeypatch):
    problems, model, instance = scene_problems
    built = _flows_built(monkeypatch)
    for p in problems:
        min_cut_infer(p)
    segment_instance(model, instance)
    assert built == []


def test_one_undecided_node_falls_back_to_the_whole_flow(monkeypatch):
    # nodes 0-2 are decided in the first round; node 3, pulled equally
    # toward 0 and 1 by its decided neighbours, is not
    p = make(4, [[0, 9], [9, 0], [0, 5], [0, 0]], [(0, 2), (1, 2), (0, 3), (1, 3)],
             [1.0, 1.0, 1.0, 1.0])
    built = _flows_built(monkeypatch)
    assert mrf._persistent_labels(p) is None
    assert np.array_equal(min_cut_infer(p), solve_max_flow(p)[0])
    assert built == [4, 4]


def _round_one_bound(p):
    """Each node's slack + delta in the full first round, where every
    neighbour is undecided."""
    near = np.full(p.n, -1, dtype=np.int8)[p.edges[:, ::-1].T.ravel()]
    both = np.concatenate([p.weights, p.weights])
    return np.bincount(p.edges.T.ravel(), both * (near < 0), minlength=p.n) + _delta(p)


def _at_the_bound(rng, p):
    """p with some or all nodes' cost difference set exactly at its
    first-round bound or one ulp to either side, iterated until the bound, which
    moves with the costs through delta, is a fixed point."""
    size = p.n if rng.random() < 0.7 else int(rng.integers(1, p.n + 1))
    picks = rng.choice(p.n, size=size, replace=False)
    steps = rng.choice([-1, 0, 0, 1][: 2 if rng.random() < 0.5 else 4], size=len(picks))
    signs = rng.choice([-1.0, 1.0], size=len(picks))
    for _ in range(10):
        bound = _round_one_bound(p)
        unary = p.unary.copy()
        for i, step, sign in zip(picks, steps, signs):
            t = bound[i] if step == 0 else np.nextafter(bound[i], step * np.inf)
            unary[i] = [0.0, sign * t]
        p = make(p.n, unary, p.edges, p.weights)
        if np.array_equal(_round_one_bound(p), bound):
            break
    return p


def test_early_exit_fires_exactly_when_round_one_decides_nothing(monkeypatch):
    # the exit is seen as a None without the rounds' labels array being
    # made; labels and None must be the full rounds' on every problem
    rng = np.random.default_rng(31)
    calls = []
    full = np.full
    fired = decided = 0
    for k in range(600):
        p = random_problem(rng, max_n=12, edge_p=0.4)
        if k % 3 == 1:  # some zero weights
            weights = np.where(rng.random(len(p.weights)) < 0.5, 0.0, p.weights)
            p = make(p.n, p.unary, p.edges, weights)
        elif k % 3 == 2:  # all zero
            p = make(p.n, p.unary, p.edges, np.zeros(len(p.weights)))
        if k % 2:
            p = _at_the_bound(rng, p)
        base = p.unary[:, 1] - p.unary[:, 0]
        bound = _round_one_bound(p)
        round_one = bool(((base > bound) | (-base > bound)).any())
        want = oracle_persistent_labels(p, _delta(p))
        calls.clear()
        monkeypatch.setattr(np, "full", lambda *a, **kw: calls.append(1) or full(*a, **kw))
        got = mrf._persistent_labels(p)
        monkeypatch.undo()
        assert (got is None and not calls) == (not round_one), k
        assert (got is None) == (want is None) and (got is None or np.array_equal(got, want)), k
        fired += not round_one
        decided += got is not None
    assert 100 < fired < 500 and decided > 50, (fired, decided)


def test_margin_is_the_derived_delta():
    rng = np.random.default_rng(37)
    for _ in range(50):
        p = random_problem(rng, max_n=14)
        assert mrf._margin(p) == _delta(p)


def _wrong_flow(monkeypatch, offset):
    """_max_flow returning its flow plus offset(tolerance) of the problem
    being cut; the calls made are counted."""
    calls = []
    max_flow = mrf._max_flow

    def wrong(start, adj, to, cap, source, sink):
        flow, level = max_flow(start, adj, to, cap, source, sink)
        calls.append(flow)
        return flow + offset(calls), level

    monkeypatch.setattr(mrf, "_max_flow", wrong)
    return calls


@pytest.mark.parametrize("factor, fails", [
    (-2.0, True), (2.0, True), (0.25, False), (-0.25, False),
])
def test_flow_that_is_not_its_cut_cost_raises(factor, fails, monkeypatch):
    # a problem that persistency cannot decide, so the flow runs
    p = make(4, [[0, 9], [9, 0], [0, 5], [0, 0]], [(0, 2), (1, 2), (0, 3), (1, 3)],
             [1.0, 1.0, 1.0, 1.0])
    tolerance = _delta(p)
    calls = _wrong_flow(monkeypatch, lambda calls: factor * tolerance)
    if fails:
        with pytest.raises(NumericalError, match="max-flow value"):
            min_cut_infer(p)
    else:
        assert np.array_equal(min_cut_infer(p), brute_force_infer(p))
    assert len(calls) == 1


def test_duality_holds_on_every_flow_of_the_oracle_problems(monkeypatch):
    # the check never fires on correct flows, across capacity spreads
    rng = np.random.default_rng(41)
    calls = _wrong_flow(monkeypatch, lambda calls: 0.0)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        unary = 10.0 ** rng.uniform(-12, 6, size=(n, 2)) * rng.choice([-1, 1], size=(n, 2))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        weights = 10.0 ** rng.uniform(-12, 6, size=len(pairs))
        min_cut_infer(make(n, unary, pairs, weights))
    assert len(calls) > 50
