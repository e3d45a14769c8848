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
    load_score_matrix,
    paraphrase_margin,
    parse_relations_dataset,
    score_matrix,
    solve_entailment_graph,
)
from segphrase.spt import ExemplarMask, SegmentPhraseTable, load_table, save_table

import entailment_oracle as oracle
from entailment_oracle import (
    directed_similarity,
    graph_objective,
    is_paraphrase,
    transitivity_violations,
)


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


def _descriptor_oracle(image, mask):
    """exemplar_descriptor pixel by pixel. Every count and coordinate sum
    is exact, so each division rounds as the program's does."""
    bins, shape_bins = 8, relations.SHAPE_BINS
    counts = [[0] * bins for _ in range(3)]
    points = []
    for y in range(image.height):
        for x in range(image.width):
            if mask[y, x]:
                points.append((x, y))
                for ch in range(3):
                    v = float(image.data[y, x, ch % image.channels])
                    counts[ch][min(int(v * bins), bins - 1)] += 1
    out = [c / sum(block) if sum(block) else 0.0 for block in counts for c in block]
    shape = [0.0] * shape_bins
    if points:
        cx = sum(x for x, _ in points) / len(points)
        cy = sum(y for _, y in points) / len(points)
        radii = [np.hypot(x - cx, y - cy) for x, y in points]
        rmax = max(radii)
        for r in radii:
            shape[min(int(r / rmax * shape_bins), shape_bins - 1) if rmax > 0 else 0] += 1
        shape = [s / len(points) for s in shape]
    return np.array(out + shape)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("kind", ["empty", "one pixel", "blob", "full"])
def test_descriptor_matches_pixel_loop_oracle_bitwise(channels, kind):
    rng = np.random.default_rng(3 + channels)
    h, w = 13, 16
    # 8-bit levels, with exact bin edges, 0 and 1 among them
    data = rng.integers(0, 256, size=(h, w, channels)) / 255.0
    data[0, 0], data[1, 1], data[2, 2] = 0.0, 1.0, 0.5
    img = Image(w, h, channels, data)
    mask = np.zeros((h, w), dtype=bool)
    if kind == "one pixel":
        mask[4, 7] = True
    elif kind == "blob":
        mask[2:9, 3:12] = rng.random((7, 9)) < 0.7
        mask[1, 1] = True
    elif kind == "full":
        mask[:] = True
    d = exemplar_descriptor(img, mask)
    assert d.shape == (24 + relations.SHAPE_BINS,)
    assert np.array_equal(d, _descriptor_oracle(img, mask))


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

def test_score_matrix_scores_each_pair_once_and_mirrors_bitwise():
    rng = np.random.default_rng(10)
    ex = [random_exemplars(rng, f"p{i}") for i in range(5)]
    ex.append(exemplars("p5", ex[0].descriptors))  # same exemplars: score 0
    requested = [(0, 1), (2, 0), (1, 0), (3, 3), (0, 5), (2, 0)]
    s = score_matrix(ex, requested)
    assert np.array_equal(s.view(np.uint64), oracle.score_matrix(ex, requested).view(np.uint64))
    for i, j in requested:
        assert bits(s[i, j]) == bits(entail_score(ex[i], ex[j]))
        assert bits(s[j, i]) == bits(entail_score(ex[j], ex[i]))
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


@pytest.mark.parametrize("block", [2, relations._PAIR_BLOCK])
def test_score_matrix_matches_per_pair_oracle_bitwise(block, monkeypatch):
    # m = 1 takes numpy's gemv path, m >= 8 the unrolled pairwise sums;
    # pair lists repeat, reverse and self-pair, phrases share buffers, and
    # block 2 splits every group into several stacked blocks
    monkeypatch.setattr(relations, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(16)
    counts = [1, 1, 2, 3, 5, 8, 9, 13, 17]
    for problem in range(160):
        n, dim = int(rng.integers(1, 9)), int(rng.integers(1, 70))
        scale = [1e-3, 1.0, 1e3][problem % 3]
        ex = []
        for i in range(n):
            m = int(rng.choice(counts))
            values = rng.standard_normal((m, dim)) if problem % 2 else rng.random((m, dim)) + 0.05
            if rng.random() < 0.2:
                values = np.asfortranarray(values)  # copied row-major on the way in
            ex.append(PhraseExemplars(f"p{i}", values * scale))
        for i in range(1, n):
            roll = rng.random()
            if roll < 0.1:
                ex[i] = ex[int(rng.integers(i))]  # the same phrase twice
            elif roll < 0.2:
                ex[i] = PhraseExemplars(f"p{i}", ex[int(rng.integers(i))].descriptors)
        if problem % 4 == 0:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        else:
            pairs = [tuple(int(v) for v in rng.integers(0, n, 2))
                     for _ in range(int(rng.integers(0, 3 * n + 1)))]
            pairs += [p[::-1] for p in pairs if rng.random() < 0.3]
        got = score_matrix(ex, pairs)
        want = oracle.score_matrix(ex, pairs)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (problem, pairs)


@pytest.mark.parametrize("bad", ["zero", "overflow"])
def test_score_matrix_reports_the_first_bad_phrase_in_pair_order(bad):
    # the first bad phrase the per-pair loop would reach: self pairs read
    # no norms, a pair already scored reads none again
    rng = np.random.default_rng(17)
    row = np.zeros(4) if bad == "zero" else np.full(4, 1e200)
    error = ZeroNormDescriptorError if bad == "zero" else DataError
    for _ in range(100):
        n = int(rng.integers(2, 7))
        ex = [random_exemplars(rng, f"p{i}", dim=4) for i in range(n)]
        bad_ones = set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        for i in bad_ones:
            ex[i] = exemplars(f"p{i}", [rng.random(4), row])
        pairs = [tuple(int(v) for v in rng.integers(0, n, 2)) for _ in range(2 * n)]
        reached = [k for i, j in pairs if i != j for k in (i, j)]
        first = next((ex[k].phrase for k in reached if k in bad_ones), None)
        if first is None:
            assert not np.isnan([score_matrix(ex, pairs)[i, j] for i, j in pairs]).any()
            continue
        with pytest.raises(error, match=repr(first)):
            score_matrix(ex, pairs)


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
    with pytest.raises(DataError) as info:
        load_score_matrix(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("text, reason", [
    ("", "empty score-matrix file"),
    ("2\n0 x\n0 0\n", "bad token"),
    ("1\n0 0\n", "expected 1 matrix entries, found 2"),
], ids=["empty", "bad-token", "wrong-count"])
def test_load_score_matrix_errors_name_the_file(text, reason, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        load_score_matrix(path)
    assert str(info.value).startswith(f"{path}: {reason}")


def test_load_score_matrix_has_no_comment_lines(tmp_path):
    # a token stream: '#' is a bad token, not the start of a comment
    path = tmp_path / "s.txt"
    path.write_text("# scores\n1\n0\n")
    with pytest.raises(DataError, match="bad token"):
        load_score_matrix(path)


def test_load_score_matrix_empty_matrix(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("0\n")
    assert load_score_matrix(path).shape == (0, 0)


def test_parse_relations_dataset(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("horse running\thorse moving\tentails\na\tb\tnot-entails\n")
    rows = parse_relations_dataset(path, "entail")
    assert rows[0] == ("horse running", "horse moving", "entails")
    path2 = tmp_path / "bad.tsv"
    path2.write_text("a\tb\tmaybe\n")
    with pytest.raises(DataError):
        parse_relations_dataset(path2, "entail")


def test_dataset_fields_never_hold_surrounding_whitespace(tmp_path):
    # a line is stripped before it splits at tabs: a leading or trailing
    # tab adds no empty field, and an indented '#' line is a comment
    path = tmp_path / "d.tsv"
    path.write_text("a\tb\tentails\t\n\t c \t d\tnot-entails\n  # x\ty\tentails\n\t#\n")
    assert parse_relations_dataset(path, "entail") == [
        ("a", "b", "entails"), ("c", "d", "not-entails"),
    ]


@pytest.mark.parametrize("mode, line, reason", [
    ("entail", "a\tb\tparaphrase", "unknown gold label 'paraphrase' for mode entail"),
    ("paraphrase", "a\tb\tentails", "unknown gold label 'entails' for mode paraphrase"),
    ("paraphrase", "a\tb\tnot-entails", "unknown gold label"),
    ("entail", "a\t \tentails", "empty field"),
    ("simrel", "a\tb\tc\td", "gold choice 'd' is neither y nor z"),
    ("simrel", "a\tb\tc\ta", "neither y nor z"),
    ("simrel", "a\tb\tc\t ", "expected 4 tab fields"),
    ("simrel", "a\t\tc\tc", "empty field"),
], ids=["entail-paraphrase", "paraphrase-entails", "paraphrase-not-entails",
        "entail-empty", "simrel-other", "simrel-x", "simrel-no-gold", "simrel-empty"])
def test_gold_must_match_the_mode(mode, line, reason, tmp_path):
    path = tmp_path / "d.tsv"
    good = {"entail": "p\tq\tentails", "paraphrase": "p\tq\tparaphrase",
            "simrel": "p\tq\tr\tQ"}[mode]
    path.write_text(f"{good}\n# c\n{line}\n")
    with pytest.raises(DataError) as info:
        parse_relations_dataset(path, mode)
    assert str(info.value).startswith(f"{path}:3: ") and reason in str(info.value)


def test_parse_simrel_dataset(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("x phrase\ty phrase\tz phrase\ty phrase\n")
    rows = parse_relations_dataset(path, "simrel")
    assert rows == [("x phrase", "y phrase", "z phrase", "y phrase")]
