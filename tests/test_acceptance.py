"""Acceptance criteria A1-A11, one test each.

Each test enforces its stated tolerance and prints one pass/fail line
(run `pytest tests/test_acceptance.py -v -s` to see them).
"""

import json
import math
import time

import numpy as np
import pytest

from segphrase import relations
from segphrase.cli import main
from segphrase.config import Config
from segphrase.evaluation import (
    SceneConfig,
    declaration_curve,
    make_scene,
    seg_metrics,
)
from segphrase.gmm import GaussianMixture
from segphrase.imaging import (
    SuperpixelGraph,
    SuperpixelMap,
    compute_superpixels,
    extract_features,
    labels_to_mask,
)
from segphrase.latent import (
    ModelInfo,
    SegmentationModel,
    em_learn,
    make_instance,
    segment_with_model,
)
from segphrase.linguistics import EmbeddingTable, WeightedMask, fuse_and_cut, message_pass
from segphrase.mrf import MrfProblem, brute_force_infer, energy, min_cut_infer
from segphrase.spt import (
    ChecksumError,
    ExemplarMask,
    PhraseKey,
    SegmentPhraseTable,
    TruncationError,
    VersionMismatchError,
    load_table,
    save_table,
)


def report(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


# -- A1: min-cut exactness ------------------------------------------------------------

def test_a1_min_cut_exactness():
    start = time.time()
    rng = np.random.default_rng(20_240_001)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 15))
        unary = rng.uniform(-5, 5, size=(n, 2))
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        ]
        weights = rng.uniform(0, 3, size=len(pairs))
        problem = MrfProblem(
            n, unary, np.array(pairs, dtype=np.int32).reshape(-1, 2), weights
        )
        gap = abs(
            energy(problem, min_cut_infer(problem))
            - energy(problem, brute_force_infer(problem))
        )
        worst = max(worst, gap)
    elapsed = time.time() - start
    report(
        "A1",
        worst <= 1e-9 and elapsed < 30,
        f"500 random problems, worst energy gap {worst:.2e}, {elapsed:.1f}s (< 30s)",
    )


# -- A2: latent-EM recovery -----------------------------------------------------------

def _scene_graph(scene, target=200):
    smap = compute_superpixels(scene.image, target)
    return extract_features(scene.image, smap)


def test_a2_latent_em_recovery():
    start = time.time()
    scenes = [
        make_scene(
            SceneConfig(size=64, fg_texture=0.75, bg_texture=0.25, noise=0.05, seed=s)
        )
        for s in range(10)
    ]
    train, held_out = scenes[:5], scenes[5:]
    instances = [make_instance(_scene_graph(s), s.box) for s in train]
    model = em_learn(instances, Config(gmm_k=1, em_max_iters=10, seed=0))
    jaccards, precisions = [], []
    for scene in held_out:
        graph = _scene_graph(scene)
        mask = labels_to_mask(segment_with_model(model, graph), graph.smap)
        m = seg_metrics(mask, scene.gt_mask)
        jaccards.append(m.jaccard)
        precisions.append(m.precision)
    elapsed = time.time() - start
    mean_j, mean_p = float(np.mean(jaccards)), float(np.mean(precisions))
    report(
        "A2",
        mean_j >= 0.90 and mean_p >= 0.95 and elapsed < 120,
        f"5 held-out scenes: mean J {mean_j:.3f} (>= 0.90), "
        f"mean P {mean_p:.3f} (>= 0.95), {elapsed:.1f}s (< 2min)",
    )


# -- A3: EM monotonicity ---------------------------------------------------------------

def test_a3_em_monotonicity():
    rng = np.random.default_rng(33)
    worst_rise = -np.inf
    runs = 0
    while runs < 50:
        shape = ["ellipse", "rect", "blob"][int(rng.integers(3))]
        noise = float(rng.uniform(0.01, 0.08))
        separation = float(rng.uniform(3.5 * noise, 0.6))
        bg = float(rng.uniform(0.1, 0.9 - separation))
        instances = []
        for _ in range(int(rng.integers(1, 4))):
            cfg = SceneConfig(
                size=32,
                fg_shape=shape,
                fg_texture=bg + separation,
                bg_texture=bg,
                noise=noise,
                seed=int(rng.integers(1 << 30)),
            )
            scene = make_scene(cfg)
            instances.append(make_instance(_scene_graph(scene, target=60), scene.box))
        model = em_learn(
            instances, Config(gmm_k=int(rng.integers(1, 4)), em_max_iters=8, seed=runs)
        )
        hist = model.info.energy_history
        for before, after in zip(hist, hist[1:]):
            worst_rise = max(worst_rise, after - before)
        runs += 1
    report(
        "A3",
        worst_rise <= 1e-6,
        f"50 randomized runs, worst energy rise {worst_rise:.2e} (<= 1e-6)",
    )


# -- A4: linguistic-constraint gain -----------------------------------------------------

def _cell_grid_graph(cells=6, cell_px=4):
    size = cells * cell_px
    labels = (
        (np.arange(size)[:, None] // cell_px) * cells
        + (np.arange(size)[None, :] // cell_px)
    ).astype(np.int32)
    smap = SuperpixelMap(size, size, labels, cells * cells)
    edges = []
    for r in range(cells):
        for c in range(cells):
            i = r * cells + c
            if c + 1 < cells:
                edges.append((i, i + 1))
            if r + 1 < cells:
                edges.append((i, i + cells))
    edges = np.array(sorted(edges), dtype=np.int32)
    return SuperpixelGraph(
        smap,
        np.zeros((cells * cells, 24)),
        edges,
        np.ones(len(edges)),
        np.full(cells * cells, cell_px * cell_px),
        np.zeros((cells * cells, 2)),
    )


def _cell_mask(rows, cols, cells=6):
    """Superpixel mask of the grid cells in rows x cols."""
    mask = np.zeros(cells * cells, dtype=np.uint8)
    for r in rows:
        for c in cols:
            mask[r * cells + c] = 1
    return mask


def test_a4_linguistic_constraint_gain():
    graph = _cell_grid_graph()
    left = _cell_mask((1, 2), (1, 2))
    right = _cell_mask((1, 2), (3, 4))
    stray = _cell_mask((4,), (4,))
    gt = labels_to_mask(left | right, graph.smap).astype(bool)
    embeddings = EmbeddingTable(
        3,
        {
            "alpha": np.array([1.0, 0.0, 0.0]),
            "beta": np.array([0.9, math.sqrt(1 - 0.81), 0.0]),
            "gamma": np.array([0.0, 0.0, 1.0]),
        },
    )
    masks = [
        WeightedMask("alpha", left, 1.0),
        WeightedMask("beta", right, 1.0),
        WeightedMask("gamma", stray, 1.0),
    ]
    lam = 3.0
    without = fuse_and_cut(masks, graph, lam)
    rescored = message_pass(masks, embeddings)
    with_mp = fuse_and_cut(rescored, graph, lam)

    in_posts = [m.score for m in rescored[:2]]
    out_post = rescored[2].score
    j_without = seg_metrics(labels_to_mask(without, graph.smap), gt).jaccard
    j_with = seg_metrics(labels_to_mask(with_mp, graph.smap), gt).jaccard
    report(
        "A4",
        out_post < min(in_posts) and j_with > j_without,
        f"out-of-context post {out_post:.2f} < in-context {min(in_posts):.2f}; "
        f"J with passing {j_with:.3f} > without {j_without:.3f}",
    )


# -- A5: entailment antisymmetry --------------------------------------------------------

def _random_exemplars(rng, phrase="p"):
    m = int(rng.integers(1, 6))
    return relations.PhraseExemplars(phrase, rng.random((m, 8)) + 0.05)


def test_a5_entailment_antisymmetry():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(100):
        x = _random_exemplars(rng, "x")
        y = _random_exemplars(rng, "y")
        ok &= relations.entail_score(x, y) + relations.entail_score(y, x) == 0.0
        ok &= relations.entail_score(x, x) == 0.0
    report("A5", ok, "100 random pairs: entail(x,y) + entail(y,x) == 0 and entail(x,x) == 0, exact")


# -- A6: edge-selection exactness ---------------------------------------------------------

def _feasible_assignments(n):
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    index = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    ks = np.arange(1 << m, dtype=np.uint64)
    mat = ((ks[:, None] >> np.arange(m, dtype=np.uint64)) & 1).astype(np.int8)
    feasible = np.ones(len(ks), dtype=bool)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x != y and y != z and x != z:
                    lhs = (
                        mat[:, index[x, y]]
                        + mat[:, index[y, z]]
                        - mat[:, index[x, z]]
                    )
                    feasible &= lhs <= 1
    return mat[feasible].astype(np.float64), pairs


def test_a6_solver_exactness():
    start = time.time()
    rng = np.random.default_rng(66)
    worst = 0.0
    for n, trials in ((4, 200), (5, 50)):
        feasible, pairs = _feasible_assignments(n)
        for _ in range(trials):
            scores = rng.normal(0, 0.5, size=(n, n))
            scores = scores - scores.T
            np.fill_diagonal(scores, 0.0)
            lam = float(rng.uniform(0, 0.3))
            decisions = relations.solve_entailment_graph(scores, lam, "exact")
            assert relations.transitivity_violations(decisions) == 0
            gains = np.array([scores[p] - lam for p in pairs])
            oracle = float((feasible @ gains).max())
            worst = max(
                worst, abs(relations.graph_objective(scores, decisions, lam) - oracle)
            )
    elapsed = time.time() - start
    report(
        "A6",
        worst <= 1e-9 and elapsed < 60,
        f"200 N=4 + 50 N=5 instances, worst objective gap {worst:.2e}, "
        f"{elapsed:.1f}s (< 60s)",
    )


# -- A7: transitive-closure behavior ------------------------------------------------------

def test_a7_closure_edge_selected():
    scores = np.zeros((3, 3))
    scores[0, 1], scores[1, 0] = 0.9, -0.9
    scores[1, 2], scores[2, 1] = 0.8, -0.8
    scores[0, 2], scores[2, 0] = -0.05, 0.05
    decisions = relations.solve_entailment_graph(scores, 0.1, "exact")
    taken = decisions[0, 1] and decisions[1, 2] and decisions[0, 2]
    objective = relations.graph_objective(scores, decisions, 0.1)
    report(
        "A7",
        bool(taken) and objective == pytest.approx(1.35),
        f"closure edge selected despite score -0.05; objective {objective:.2f} "
        "(chain beats the 0.8 single edge)",
    )


# -- A8: paraphrase symmetry and boundary ---------------------------------------------------

def test_a8_paraphrase_symmetry_and_boundary():
    rng = np.random.default_rng(88)
    ok = True
    boundary_checked = 0
    for _ in range(100):
        x = _random_exemplars(rng, "x")
        y = _random_exemplars(rng, "y")
        tau = float(rng.uniform(0.001, 0.5))
        ok &= relations.is_paraphrase(x, y, tau) == relations.is_paraphrase(y, x, tau)
        gap = 2 * abs(relations.entail_score(x, y))
        if gap > 0:
            ok &= relations.is_paraphrase(x, y, gap)  # boundary inclusive
            boundary_checked += 1
    report(
        "A8",
        ok and boundary_checked > 0,
        f"100 random pairs symmetric; boundary 2|entail| = tau accepted "
        f"({boundary_checked} boundary cases)",
    )


# -- A9: metric correctness -------------------------------------------------------------------

def test_a9_metric_correctness():
    gt = np.zeros((10, 10), dtype=bool)
    gt[:, :5] = True
    pred = np.zeros((10, 10), dtype=bool)
    pred[:, :6] = True
    m = seg_metrics(pred, gt)
    curve = declaration_curve(
        [(0.9, True), (0.5, False), (0.3, True), (0.1, True)], [0.5]
    )
    ok = (
        m.precision == pytest.approx(0.9)
        and m.jaccard == pytest.approx(50 / 60, abs=1e-6)
        and curve == [(0.5, 1)]
    )
    report(
        "A9",
        ok,
        f"10x10 hand count P={m.precision:.3f} J={m.jaccard:.4f}; "
        f"4-item declaration curve at f=0.5 -> {curve[0][1]} correct",
    )


# -- A10: round-trip fidelity ---------------------------------------------------------------

def _random_table(rng):
    table = SegmentPhraseTable()
    for i in range(int(rng.integers(1, 5))):
        k, dim = int(rng.integers(1, 4)), int(rng.integers(2, 6))

        def mixture():
            w = rng.random(k) + 0.1
            return GaussianMixture(
                w / w.sum(),
                rng.normal(size=(k, dim)),
                rng.random((k, dim)) + 1e-4,
            )

        phrase = f"phrase {i}"
        info = ModelInfo(phrase, i, 2, 3, [float(v) for v in rng.normal(size=2)])
        table.insert(
            PhraseKey.make(phrase, i),
            SegmentationModel(mixture(), mixture(), float(rng.random()), info),
        )
        for j in range(int(rng.integers(0, 4))):
            table.add_exemplar(
                phrase,
                ExemplarMask(
                    f"img{j}",
                    float(rng.random()),
                    rng.integers(0, 2, size=int(rng.integers(1, 40))),
                    rng.random(12) if j % 2 else None,
                ),
            )
    return table


def test_a10_round_trip_fidelity(tmp_path):
    rng = np.random.default_rng(1010)
    ok = True
    for i in range(20):
        table = _random_table(rng)
        path = tmp_path / f"t{i}.spt"
        save_table(table, path)
        ok &= load_table(path).deep_equal(table)

    path = tmp_path / "corrupt.spt"
    save_table(_random_table(rng), path)
    blob = bytearray(path.read_bytes())
    flipped = bytes([blob[0] ^ 0xFF]) + bytes(blob[1:])
    path.write_bytes(flipped)
    with pytest.raises(VersionMismatchError):
        load_table(path)
    path.write_bytes(bytes(blob)[: len(blob) - 7])
    with pytest.raises(TruncationError):
        load_table(path)
    corrupted = bytearray(blob)
    corrupted[-6] ^= 0x10
    path.write_bytes(bytes(corrupted))
    with pytest.raises(ChecksumError):
        load_table(path)
    report("A10", ok, "20 random tables deep-equal after save/load; "
                      "magic/truncation/checksum corruption raise their designated errors")


# -- A11: CLI determinism ---------------------------------------------------------------------

def _run_pipeline(root, capsys, monkeypatch):
    """Full CLI chain inside root using relative paths only, so two runs
    see byte-identical inputs."""
    root.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(root)
    out = {"logs": {}}
    assert main([
        "synth", "scenes", "--count", "2", "--test-count", "1",
        "--size", "40", "--seed", "5", "--phrase", "round object",
    ]) == 0
    assert main([
        "synth", "scenes2", "--count", "2", "--test-count", "0",
        "--size", "40", "--seed", "11", "--shape", "rect",
        "--fg", "0.2", "--bg", "0.8", "--phrase", "boxy object",
    ]) == 0
    manifest = root / "manifest.txt"
    manifest.write_text(
        (root / "scenes" / "manifest.txt").read_text()
        + (root / "scenes2" / "manifest.txt").read_text()
    )
    capsys.readouterr()
    assert main(["train", "manifest.txt", "models.spt", "--seed", "3", "--k", "1"]) == 0
    out["logs"]["train"] = capsys.readouterr().out

    (root / "emb.txt").write_text(
        "3 3\nround 1.0 0.0 0.0\nobject 0.9 0.4358898943540673 0.0\nboxy 0.7 0.6 0.0\n"
    )
    (root / "dets.txt").write_text(
        '"round object" 4 4 36 36 1.0\n"boxy object" 4 4 36 36 0.5\n'
    )
    assert main([
        "segment", "scenes/test_000.pgm", "dets.txt", "models.spt",
        "emb.txt", "mask.pgm", "--seed", "3",
    ]) == 0
    out["logs"]["segment"] = capsys.readouterr().out

    (root / "rel.tsv").write_text(
        "round object\tboxy object\tentails\nboxy object\tround object\tnot-entails\n"
    )
    assert main([
        "relations", "entail", "rel.tsv", "rel.csv",
        "--table", "models.spt", "--graph", "--seed", "3",
    ]) == 0
    out["logs"]["relations"] = capsys.readouterr().out
    out["files"] = {
        name: (root / name).read_bytes()
        for name in ("models.spt", "mask.pgm", "rel.csv", "rel.curve.csv")
    }
    return out


def test_a11_cli_determinism(tmp_path, capsys, monkeypatch):
    first = _run_pipeline(tmp_path / "a", capsys, monkeypatch)
    second = _run_pipeline(tmp_path / "b", capsys, monkeypatch)
    same_files = {
        name: first["files"][name] == second["files"][name] for name in first["files"]
    }
    same_logs = first["logs"] == second["logs"]
    report(
        "A11",
        all(same_files.values()) and same_logs,
        f"reran train+segment+relations with the same seed: byte-identical "
        f"artifacts {sorted(same_files)} and identical logs",
    )
