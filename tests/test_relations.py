import struct

import numpy as np
import pytest

from segphrase import relations
from segphrase.cli import main
from segphrase.errors import DataError
from segphrase.evaluation import SceneConfig, make_scene
from segphrase.imaging import Image
from segphrase.relations import (
    EXACT_NODE_LIMIT,
    PhraseExemplars,
    ZeroNormDescriptorError,
    entail_score,
    exemplar_descriptor,
    exemplars_from_table,
    graph_objective,
    is_paraphrase,
    load_score_matrix,
    paraphrase_margin,
    parse_relations_dataset,
    score_matrix,
    solve_entailment_graph,
    transitivity_violations,
)
from segphrase.spt import ExemplarMask, SegmentPhraseTable, load_table, save_table

import entailment_oracle as oracle
from entailment_oracle import directed_similarity


def unit(angle):
    return np.array([np.cos(angle), np.sin(angle)])


def exemplars(phrase, vectors):
    return PhraseExemplars(phrase, np.vstack(vectors))


def bits(value):
    return struct.pack("<d", value)


def random_exemplars(rng, phrase="p", m=None, dim=6):
    m = m or int(rng.integers(1, 6))
    return exemplars(phrase, rng.random((m, dim)) + 0.05)


# -- directed similarity ---------------------------------------------------------

def test_self_similarity_is_one():
    rng = np.random.default_rng(0)
    a = random_exemplars(rng)
    assert directed_similarity(a, a) == pytest.approx(1.0)


def test_max_of_candidates():
    base = unit(0.0)
    a = exemplars("a", [base])
    b = exemplars("b", [unit(np.arccos(0.3)), unit(np.arccos(0.8))])
    assert directed_similarity(a, b) == pytest.approx(0.8)


def test_mean_of_best_matches_is_asymmetric():
    b = exemplars("b", [unit(0.0)])
    a = exemplars("a", [unit(np.arccos(0.4)), unit(-np.arccos(0.6))])
    assert directed_similarity(a, b) == pytest.approx(0.5)  # mean of 0.4, 0.6
    assert directed_similarity(b, a) == pytest.approx(0.6)  # best single match


def test_zero_norm_descriptor_rejected():
    # raised when a pair with the phrase is scored, not when it is built
    a = exemplars("a", [np.ones(3), np.zeros(3)])
    b = exemplars("b", [np.ones(3)])
    assert entail_score(b, b) == 0.0
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ZeroNormDescriptorError):
            entail_score(x, y)
    with pytest.raises(ZeroNormDescriptorError):
        directed_similarity(a, b)


# -- entailment score --------------------------------------------------------------

def test_entail_identity_zero():
    rng = np.random.default_rng(1)
    x = random_exemplars(rng)
    assert entail_score(x, x) == 0.0


def test_entail_is_difference_of_directed_sims():
    rng = np.random.default_rng(2)
    x, y = random_exemplars(rng, "x"), random_exemplars(rng, "y")
    assert entail_score(x, y) == pytest.approx(
        directed_similarity(x, y) - directed_similarity(y, x)
    )


def test_entail_score_matches_the_two_block_formula_bitwise():
    # one shared cosine block must give the bits of two separate blocks
    rng = np.random.default_rng(14)
    for _ in range(300):
        dim = int(rng.integers(1, 70))
        x = random_exemplars(rng, "x", m=int(rng.integers(1, 12)), dim=dim)
        y = random_exemplars(rng, "y", m=int(rng.integers(1, 12)), dim=dim)
        assert bits(entail_score(x, y)) == bits(oracle.entail_score(x, y))
        assert bits(entail_score(y, x)) == bits(oracle.entail_score(y, x))


def test_matmul_transpose_is_bitwise_the_transposed_product():
    # entail_score reads y's direction from the transpose of x's block,
    # which needs b @ a.T == (a @ b.T).T bit for bit from this BLAS
    rng = np.random.default_rng(15)
    for _ in range(500):
        dim = int(rng.integers(1, 130))
        a = rng.random((int(rng.integers(1, 20)), dim))
        b = rng.random((int(rng.integers(1, 20)), dim))
        assert np.array_equal((b @ a.T).view(np.uint64), (a @ b.T).T.view(np.uint64))


def test_entail_antisymmetric_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = random_exemplars(rng, "x"), random_exemplars(rng, "y")
        assert entail_score(x, y) + entail_score(y, x) == 0.0


def test_containment_gives_nonnegative_entailment():
    rng = np.random.default_rng(4)
    sub = rng.random((2, 5)) + 0.1
    sup = np.vstack([sub, rng.random((3, 5)) + 0.1])
    a, b = exemplars("a", sub), exemplars("b", sup)
    assert directed_similarity(a, b) == pytest.approx(1.0)
    assert entail_score(a, b) >= 0.0


# -- exemplar descriptors -----------------------------------------------------------

def test_descriptor_blocks_l1_normalized():
    scene = make_scene(SceneConfig(seed=0))
    d = exemplar_descriptor(scene.image, scene.gt_mask)
    assert d.shape == (24 + 36,)
    blocks = [d[0:8], d[8:16], d[16:24], d[24:]]
    for block in blocks:
        assert block.sum() == pytest.approx(1.0)


def test_descriptor_empty_mask_is_zero():
    img = Image(4, 4, 1, np.zeros((4, 4, 1)))
    d = exemplar_descriptor(img, np.zeros((4, 4), dtype=bool))
    assert not d.any()


# -- solver --------------------------------------------------------------------------

def enumerate_best(scores, lam):
    n = len(scores)
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    m = len(pairs)
    idx = {p: i for i, p in enumerate(pairs)}
    ks = np.arange(1 << m, dtype=np.uint64)
    mat = ((ks[:, None] >> np.arange(m, dtype=np.uint64)) & 1).astype(np.int8)
    feasible = np.ones(len(ks), dtype=bool)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x != y and y != z and x != z:
                    lhs = mat[:, idx[x, y]] + mat[:, idx[y, z]] - mat[:, idx[x, z]]
                    feasible &= lhs <= 1
    gains = np.array([scores[p] - lam for p in pairs])
    return float((mat[feasible] @ gains).max())


def antisymmetric(rng, n, scale=0.5):
    s = rng.normal(0, scale, size=(n, n))
    s = s - s.T
    np.fill_diagonal(s, 0.0)
    return s


def test_nonpositive_scores_select_nothing():
    s = -np.abs(antisymmetric(np.random.default_rng(0), 4))
    np.fill_diagonal(s, 0.0)
    W = solve_entailment_graph(s, 0.0, "exact")
    assert not W.any()


def test_closure_edge_taken_despite_negative_score():
    s = np.zeros((3, 3))
    s[0, 1], s[1, 0] = 0.9, -0.9
    s[1, 2], s[2, 1] = 0.8, -0.8
    s[0, 2], s[2, 0] = -0.05, 0.05
    W = solve_entailment_graph(s, 0.1, "exact")
    assert W[0, 1] == 1 and W[1, 2] == 1 and W[0, 2] == 1
    assert graph_objective(s, W, 0.1) == pytest.approx(1.35)
    assert graph_objective(s, W, 0.1) == pytest.approx(enumerate_best(s, 0.1))


def test_exact_matches_enumeration_n4():
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = antisymmetric(rng, 4)
        lam = float(rng.uniform(0, 0.3))
        W = solve_entailment_graph(s, lam, "exact")
        assert transitivity_violations(W) == 0
        assert graph_objective(s, W, lam) == pytest.approx(
            enumerate_best(s, lam), abs=1e-9
        )


def test_exact_rejects_large_graphs():
    with pytest.raises(ValueError):
        solve_entailment_graph(np.zeros((EXACT_NODE_LIMIT + 1,) * 2), 0.1, "exact")


def test_exact_tie_prefers_lexicographically_smallest():
    W = solve_entailment_graph(np.zeros((3, 3)), 0.0, "exact")
    assert not W.any()  # all-zero is the row-major smallest among ties


def test_greedy_feasible_and_bounded_by_exact():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        s = antisymmetric(rng, n)
        lam = float(rng.uniform(0, 0.3))
        Wg = solve_entailment_graph(s, lam, "greedy")
        assert transitivity_violations(Wg) == 0
        We = solve_entailment_graph(s, lam, "exact")
        assert graph_objective(s, Wg, lam) <= graph_objective(s, We, lam) + 1e-9


def test_greedy_closes_transitively():
    s = np.zeros((3, 3))
    s[0, 1], s[1, 2] = 1.0, 1.0
    s[1, 0], s[2, 1] = -1.0, -1.0
    W = solve_entailment_graph(s, 0.1, "greedy")
    assert W[0, 1] and W[1, 2] and W[0, 2]


def exact_cases(rng):
    """(scores, lam) on 0..6 nodes: antisymmetric, non-antisymmetric and
    tied integer-tenths scores, each also at lam = 0."""
    for _ in range(60):
        n = int(rng.integers(0, EXACT_NODE_LIMIT + 1))
        lam = float(rng.uniform(0, 0.3))
        tenths = rng.integers(-3, 4, size=(n, n)) / 10.0
        for s in (antisymmetric(rng, n), rng.normal(0, 0.5, (n, n)), tenths, tenths - tenths.T):
            yield s, lam
            yield s, 0.0
    yield np.zeros((4, 4)), 0.0  # every matrix ties


def test_exact_matches_oracle_decisions():
    for s, lam in exact_cases(np.random.default_rng(11)):
        W = solve_entailment_graph(s, lam, "exact")
        want = oracle.solve_entailment_graph(s, lam, "exact")
        assert W.dtype == want.dtype and np.array_equal(W, want), (s, lam)


def test_greedy_matches_oracle_on_sparse_graphs():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 41))
        # a few positive scores among many negative ones, as in a
        # sparse entailment graph
        positive = rng.random((n, n)) < 0.1
        s = np.where(positive, rng.uniform(0, 1, (n, n)), -rng.uniform(0, 1, (n, n)))
        for scores in (s, antisymmetric(rng, n)):
            lam = float(rng.uniform(0, 0.3))
            W = solve_entailment_graph(scores, lam, "greedy")
            want = oracle.solve_entailment_graph(scores, lam, "greedy")
            assert W.dtype == want.dtype and np.array_equal(W, want), (scores, lam)


@pytest.mark.parametrize("lam", [0.0, 0.05, 0.1, 0.3])
def test_greedy_matches_oracle_on_tied_scores_up_to_70_nodes(lam):
    rng = np.random.default_rng([16, int(lam * 100)])
    for n in (70, *rng.integers(2, 70, size=3).tolist()):
        sparse = np.where(
            rng.random((n, n)) < 0.1, rng.uniform(0, 1, (n, n)), -rng.uniform(0, 1, (n, n))
        )
        cases = [sparse]
        if n < 70:  # the oracle takes seconds on a dense 70-node graph
            dense = rng.normal(0, 0.5, (n, n))
            cases += [dense, dense - dense.T]
        # rounded to tenths, many moves tie on score and on net gain
        for scores in (np.round(s, 1) for s in cases):
            W = solve_entailment_graph(scores, lam, "greedy")
            want = oracle.solve_entailment_graph(scores, lam, "greedy")
            assert W.dtype == want.dtype and np.array_equal(W, want), (scores, lam)


def test_exact_matches_oracle_on_near_zero_gains():
    # gains within a few _TIE_EPS of zero: pruning and ties decide the answer
    rng = np.random.default_rng(17)
    for _ in range(40):
        lam = float(rng.choice([0.0, 0.1]))
        n = int(rng.integers(3, EXACT_NODE_LIMIT + 1))
        for noise in (rng.normal(0, 1e-12, (n, n)), rng.integers(-2, 3, (n, n)) * 1e-12):
            s = lam + noise
            W = solve_entailment_graph(s, lam, "exact")
            want = oracle.solve_entailment_graph(s, lam, "exact")
            assert W.dtype == want.dtype and np.array_equal(W, want), (s, lam)


def test_greedy_takes_a_move_of_zero_net_gain():
    s = np.zeros((3, 3))
    s[0, 1], s[1, 2] = 0.5, 0.5
    # adding 1->2 forces 0->2: (0.5 - 0.25) + (0.0 - 0.25) == 0
    W = solve_entailment_graph(s, 0.25, "greedy")
    assert W[0, 1] and W[1, 2] and W[0, 2] and W.sum() == 3
    assert np.array_equal(W, oracle.solve_entailment_graph(s, 0.25, "greedy"))


def test_transitivity_violations_matches_triple_loop():
    rng = np.random.default_rng(13)
    for n in list(range(9)) * 20:
        w = rng.integers(-2, 3, size=(n, n))
        np.fill_diagonal(w, rng.integers(-2, 3, size=n))  # never read
        assert transitivity_violations(w) == oracle.transitivity_violations(w)
        w01 = (w > 0).astype(np.int8)
        assert transitivity_violations(w01) == oracle.transitivity_violations(w01)


# -- paraphrase / relative similarity -------------------------------------------------

def test_paraphrase_identity_true():
    rng = np.random.default_rng(7)
    x = random_exemplars(rng)
    assert is_paraphrase(x, x, tau=0.01)


def test_paraphrase_threshold_cases():
    # |e(x,y) - e(y,x)| = 2|e|; build pairs with known entailment magnitude
    a = exemplars("a", [unit(0.0)])
    b = exemplars("b", [unit(0.2), unit(0.6)])
    e = entail_score(a, b)
    assert e != 0.0
    gap = abs(e - entail_score(b, a))
    assert gap == pytest.approx(2 * abs(e))
    assert not is_paraphrase(a, b, tau=gap * 0.99)
    assert is_paraphrase(a, b, tau=gap)  # boundary inclusive


def test_paraphrase_symmetric():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, y = random_exemplars(rng, "x"), random_exemplars(rng, "y")
        tau = float(rng.uniform(0.01, 0.5))
        assert is_paraphrase(x, y, tau) == is_paraphrase(y, x, tau)


def test_paraphrase_margin_is_tau_minus_twice_the_score():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y = random_exemplars(rng, "x"), random_exemplars(rng, "y")
        s_xy, s_yx = entail_score(x, y), entail_score(y, x)
        tau = float(rng.uniform(0.01, 0.5))
        assert bits(paraphrase_margin(s_xy, tau)) == bits(tau - abs(s_xy - s_yx))
    with pytest.raises(ValueError):
        paraphrase_margin(0.1, 0.0)


# -- relative similarity, through the CLI -------------------------------------------

def simrel(tmp_path, descriptors, triples):
    """Run `relations simrel` over a table whose phrases have the given
    exemplar descriptors; returns (table, [(score_xy, score_xz, choice)])."""
    table = SegmentPhraseTable()
    for phrase, vectors in descriptors.items():
        for i, vector in enumerate(vectors):
            table.add_exemplar(
                phrase, ExemplarMask(f"{phrase}-{i}", 1.0, np.array([1, 0]), vector)
            )
    save_table(table, tmp_path / "t.spt")
    (tmp_path / "s.tsv").write_text("".join("\t".join(t) + "\n" for t in triples))
    out = tmp_path / "s.csv"
    rc = main(["relations", "simrel", str(tmp_path / "s.tsv"), str(out),
               "--table", str(tmp_path / "t.spt")])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,z,score_xy,score_xz,choice"
    rows = [line.split(",") for line in lines[1:]]
    assert [tuple(r[:3]) for r in rows] == [tuple(t[:3]) for t in triples]
    return load_table(tmp_path / "t.spt"), [
        (float(s_y), float(s_z), choice) for *_, s_y, s_z, choice in rows
    ]


def test_relative_similarity_prefers_higher_score(tmp_path):
    table, [(s_y, s_z, choice)] = simrel(tmp_path, {
        "x": [unit(0.0)],
        "y": [unit(0.1), unit(-0.5)],
        "z": [unit(0.0)],  # z == x: score 0
    }, [("x", "y", "z", "y")])
    ex, ey = (exemplars_from_table(table, p) for p in "xy")
    assert s_z == 0.0
    assert bits(s_y) == bits(entail_score(ex, ey))
    assert s_y != s_z and choice == ("y" if s_y > s_z else "z")


def test_relative_similarity_tie_picks_first(tmp_path):
    rng = np.random.default_rng(9)
    y = rng.random((3, 6)) + 0.05
    _, rows = simrel(tmp_path, {
        "x": rng.random((2, 6)) + 0.05, "y": y, "w": y.copy(),
    }, [("x", "y", "y", "y"), ("x", "y", "w", "y"), ("x", "w", "y", "y")])
    assert all(s_y == s_z for s_y, s_z, _ in rows)
    assert [choice for *_, choice in rows] == ["y", "y", "w"]


def test_relative_similarity_hand_computed(tmp_path):
    table, [(s_y, s_z, choice)] = simrel(tmp_path, {
        "x": [unit(0.0), unit(0.3)],
        "y": [unit(0.05), unit(0.25)],
        "z": [unit(1.2)],
    }, [("x", "y", "z", "y")])
    assert choice == "y" and s_y > s_z
    # oracle: mean-of-best-match cosines both ways
    def sim(p, q):
        cos = p.descriptors @ q.descriptors.T / (
            np.linalg.norm(p.descriptors, axis=1)[:, None]
            * np.linalg.norm(q.descriptors, axis=1)[None, :]
        )
        return cos.max(axis=1).mean()
    x, y, z = (exemplars_from_table(table, p) for p in "xyz")
    assert s_y == pytest.approx(sim(x, y) - sim(y, x))
    assert s_z == pytest.approx(sim(x, z) - sim(z, x))


# -- score matrix / file formats --------------------------------------------------------

def test_score_matrix_scores_each_pair_once_and_mirrors_bitwise(monkeypatch):
    rng = np.random.default_rng(10)
    ex = [random_exemplars(rng, f"p{i}") for i in range(5)]
    ex.append(exemplars("p5", ex[0].descriptors))  # same exemplars: score 0
    calls = []
    original = relations.entail_score
    monkeypatch.setattr(
        relations, "entail_score", lambda x, y: calls.append(1) or original(x, y)
    )
    requested = [(0, 1), (2, 0), (1, 0), (3, 3), (0, 5), (2, 0)]
    s = score_matrix(ex, requested)
    assert len(calls) == 3  # {0,1}, {0,2} and {0,5}, each once
    for i, j in requested:
        assert bits(s[i, j]) == bits(original(ex[i], ex[j]))
        assert bits(s[j, i]) == bits(original(ex[j], ex[i]))
    assert all(bits(v) == bits(0.0) for v in np.diag(s))
    assert bits(s[5, 0]) == bits(0.0)  # not -0.0
    scored = {(i, j) for p in requested for i, j in (p, p[::-1])}
    off = [(i, j) for i in range(6) for j in range(6) if (i, j) not in scored and i != j]
    assert all(np.isnan(s[i, j]) for i, j in off)

    every = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    full = score_matrix(ex[:4], every)
    assert np.array_equal(full, -full.T)
    W = solve_entailment_graph(full, 0.1, "exact")
    assert transitivity_violations(W) == 0


def test_load_score_matrix(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("2\n0 0.5\n-0.5 0\n")
    m = load_score_matrix(path)
    assert m.shape == (2, 2) and m[0, 1] == 0.5


def test_load_score_matrix_wrong_count(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("2\n0 0.5 1.0\n")
    with pytest.raises(DataError):
        load_score_matrix(path)


@pytest.mark.parametrize("text", ["-1\n5\n", "2\n0 nan\n0.5 0\n", "2\n0 inf\n-0.5 0\n"])
def test_load_score_matrix_rejects_negative_size_and_non_finite(tmp_path, text):
    path = tmp_path / "s.txt"
    path.write_text(text)
    with pytest.raises(DataError):
        load_score_matrix(path)


def test_load_score_matrix_empty_matrix(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("0\n")
    assert load_score_matrix(path).shape == (0, 0)


def test_parse_relations_dataset(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("horse running\thorse moving\tentails\na\tb\tnot-paraphrase\n")
    rows = parse_relations_dataset(path, "pairs")
    assert rows[0] == ("horse running", "horse moving", "entails")
    path2 = tmp_path / "bad.tsv"
    path2.write_text("a\tb\tmaybe\n")
    with pytest.raises(DataError):
        parse_relations_dataset(path2, "pairs")


def test_parse_simrel_dataset(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("x phrase\ty phrase\tz phrase\ty phrase\n")
    rows = parse_relations_dataset(path, "simrel")
    assert rows == [("x phrase", "y phrase", "z phrase", "y phrase")]
