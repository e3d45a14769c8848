import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxflow_oracle import solve_max_flow as oracle_solve_max_flow
from segphrase import gmm
from segphrase.evaluation import SceneConfig, make_scene
from segphrase.imaging import compute_superpixels, extract_features
from segphrase.latent import TrainConfig, em_learn, make_instance
from segphrase.mrf import (
    MrfProblem,
    SubmodularityError,
    brute_force_infer,
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
    with pytest.raises(SubmodularityError):
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


@pytest.mark.parametrize("seed", [1, 2])
def test_matches_oracle_on_scene_graphs(seed):
    scene = make_scene(SceneConfig(size=256, seed=seed))
    graph = extract_features(scene.image, compute_superpixels(scene.image, 800))
    model = em_learn([make_instance(graph, scene.box)], TrainConfig(k=2, seed=seed))
    unary = np.column_stack([
        -gmm.log_density_many(model.theta_bg, graph.features),
        -gmm.log_density_many(model.theta_fg, graph.features),
    ])
    weights = np.exp(-model.lam * graph.boundary_prob)
    _assert_same_as_oracle(make(graph.n, unary, graph.edges, weights))
    # mixed magnitudes: outside-box label-1 costs raised by 1e6
    outside = make_instance(graph, scene.box).sp_in_box == 0.0
    unary[outside, 1] += 1e6
    _assert_same_as_oracle(make(graph.n, unary, graph.edges, weights))
