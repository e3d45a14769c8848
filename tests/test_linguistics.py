import math
import re

import numpy as np
import pytest
from seg_metrics import seg_metrics

from segphrase.config import Config
from segphrase.errors import DataError, NumericalError
from segphrase.evaluation import SceneConfig, make_scene
from segphrase.imaging import (
    SuperpixelGraph,
    SuperpixelMap,
    compute_superpixels,
    extract_features,
)
from segphrase.latent import cut, em_learn, make_instance
from segphrase.linguistics import (
    Detection,
    EmbeddingTable,
    WeightedMask,
    _box_iou,
    fuse_and_cut,
    load_embeddings,
    message_pass,
    nms,
    parse_detections,
    phrase_vector,
    semantic_segment,
)
from segphrase.spt import PhraseKey, SegmentPhraseTable


def write_embeddings(path, rows, dim=None):
    dim = dim if dim is not None else len(rows[0]) - 1
    lines = [f"{len(rows)} {dim}"]
    for row in rows:
        lines.append(" ".join(str(t) for t in row))
    path.write_text("\n".join(lines) + "\n")


def table_of(**vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim, {w: np.asarray(v, dtype=float) for w, v in vectors.items()})


# -- load_embeddings --------------------------------------------------------------

def test_load_two_word_file(tmp_path):
    path = tmp_path / "e.txt"
    write_embeddings(path, [["dog", 1, 0, 0], ["cat", 0, 1, 0]])
    t = load_embeddings(path)
    assert t.dim == 3 and set(t.vectors) == {"dog", "cat"}


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("2 3\ndog 1 0 0\ncat 0 1\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: 2 components, expected 3$"):
        load_embeddings(path)


def test_non_numeric_token_rejected(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("1 3\ndog 1 zero 0\n")
    message = f"{path}:2: could not convert string to float: 'zero'"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_embeddings(path)


def test_duplicate_word_named_in_error(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("2 2\ndog 1 0\nDog 0 1\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: duplicate word 'dog'$"):
        load_embeddings(path)


@pytest.mark.parametrize("text, where", [
    ("2\ndog 1 0\n", ":1: first line"),
    ("two 2\ndog 1 0\n", ":1: non-integer"),
    ("1 0\ndog\n", ":1: dimension"),
    ("3 2\ndog 1 0\ncat 0 1\n", ": header promises 3 words"),
])
def test_header_and_count_errors_name_the_file(text, where, tmp_path):
    path = tmp_path / "e.txt"
    path.write_text(text)
    with pytest.raises(DataError, match="^" + re.escape(f"{path}{where}")):
        load_embeddings(path)


def test_words_starting_with_hash_are_vocabulary(tmp_path):
    # word-vector files have no comment lines: '#' is a token like any other
    path = tmp_path / "e.txt"
    path.write_text("2 2\n#tag 1 0\n\ndog 0 1\n")
    assert set(load_embeddings(path).vectors) == {"#tag", "dog"}


# -- phrase_vector / similarity -----------------------------------------------------

def test_single_word_vector():
    t = table_of(a=[1.0, 0.0])
    vec, missing = phrase_vector(t, "a")
    assert np.array_equal(vec, [1.0, 0.0]) and missing == 0


def test_two_word_sum():
    t = table_of(a=[1.0, 0.0], b=[0.0, 1.0])
    vec, missing = phrase_vector(t, "a b")
    assert np.array_equal(vec, [1.0, 1.0]) and missing == 0


def test_oov_word_skipped_with_count():
    t = table_of(a=[1.0, 0.0])
    vec, missing = phrase_vector(t, "a c")
    assert np.array_equal(vec, [1.0, 0.0]) and missing == 1


def test_all_oov_raises():
    with pytest.raises(DataError, match=r"^no word of 'x y' is in the embedding vocabulary$"):
        phrase_vector(table_of(a=[1.0, 0.0]), "x y")


def test_phrase_vector_order_insensitive():
    t = table_of(a=[1.0, 2.0], b=[3.0, -1.0], c=[0.5, 0.5])
    v1, _ = phrase_vector(t, "a b c")
    v2, _ = phrase_vector(t, "c a b")
    assert np.allclose(v1, v2, atol=1e-12)


def cosine_from_neighbour(t, p, q):
    # a score-0 mask on p takes cos(p, q) * 1 from a score-1 neighbour on q
    out = message_pass([mask_of(p, 0.0), mask_of(q, 1.0)], t)
    return out[0].score


def test_similarity_identity_orthogonal_and_hand_value():
    t = table_of(a=[1.0, 1.0], b=[1.0, 0.0], c=[0.0, 1.0], d=[-1.0, 0.0])
    assert cosine_from_neighbour(t, "a", "a") == pytest.approx(1.0, abs=1e-12)
    assert cosine_from_neighbour(t, "b", "c") == pytest.approx(0.0, abs=1e-12)
    assert cosine_from_neighbour(t, "a", "b") == pytest.approx(1 / math.sqrt(2))
    assert cosine_from_neighbour(t, "b", "d") == 0.0  # cosine -1, clamped


def test_similarity_symmetric():
    rng = np.random.default_rng(0)
    t = EmbeddingTable(5, {w: rng.normal(size=5) for w in "abcdef"})
    for p, q in (("a b", "c"), ("d e f", "a"), ("b", "f e")):
        # bitwise: float.hex() spells every bit, the sign of zero included
        assert cosine_from_neighbour(t, p, q).hex() == cosine_from_neighbour(t, q, p).hex()


def test_zero_norm_cosine_rejected():
    t = table_of(a=[0.0, 0.0], b=[1.0, 0.0])
    with pytest.raises(NumericalError, match=r"^zero-norm composite vector for 'a'$"):
        message_pass([mask_of("a", 1.0), mask_of("b", 1.0)], t)


def test_single_zero_norm_mask_passes_through():
    t = table_of(a=[0.0, 0.0])
    out = message_pass([mask_of("a", 2.5)], t)
    assert out[0].score == 2.5


# -- message_pass ------------------------------------------------------------------

def mask_of(phrase, score, superpixels=()):
    m = np.zeros(4, dtype=np.uint8)
    m[list(superpixels)] = 1
    return WeightedMask(phrase, m, score)


def test_single_mask_keeps_score():
    t = table_of(a=[1.0, 0.0])
    out = message_pass([mask_of("a", 3.5)], t)
    assert out[0].score == pytest.approx(3.5)


def test_pair_orthogonal_and_identical():
    t = table_of(a=[1.0, 0.0], b=[0.0, 1.0])
    out = message_pass([mask_of("a", 1.0), mask_of("b", 1.0)], t)
    assert [m.score for m in out] == pytest.approx([1.0, 1.0])
    out = message_pass([mask_of("a", 1.0), mask_of("a", 1.0)], t)
    assert [m.score for m in out] == pytest.approx([2.0, 2.0])


def test_three_masks_matrix_vector_product():
    rng = np.random.default_rng(1)
    vecs = {w: rng.normal(size=4) for w in ("a", "b", "c")}
    t = EmbeddingTable(4, vecs)
    scores = [1.0, 2.0, 3.0]
    masks = [mask_of(w, s) for w, s in zip(("a", "b", "c"), scores)]
    out = message_pass(masks, t)
    # oracle: direct cosine matrix (clamped) times the score vector
    words = ["a", "b", "c"]
    psi = np.eye(3)
    for i in range(3):
        for j in range(3):
            if i != j:
                u, v = vecs[words[i]], vecs[words[j]]
                cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                psi[i, j] = max(cos, 0.0)
    expected = psi @ np.array(scores)
    assert [m.score for m in out] == pytest.approx(list(expected), abs=1e-12)


def test_message_pass_linear_in_scale():
    t = table_of(a=[1.0, 0.2], b=[0.8, 0.6])
    base = [mask_of("a", 1.0), mask_of("b", 2.0)]
    scaled = [mask_of("a", 5.0), mask_of("b", 10.0)]
    out1 = message_pass(base, t)
    out2 = message_pass(scaled, t)
    for m1, m2 in zip(out1, out2):
        assert m2.score == pytest.approx(5.0 * m1.score)


def test_message_pass_preserves_masks_and_order():
    t = table_of(a=[1.0, 0.0], b=[0.0, 1.0])
    masks = [mask_of("a", 1.0, [0]), mask_of("b", 2.0, [3])]
    out = message_pass(masks, t)
    assert [m.phrase for m in out] == ["a", "b"]
    for before, after in zip(masks, out):
        assert np.array_equal(before.mask, after.mask)


# -- fuse_and_cut -------------------------------------------------------------------

def edgeless_graph(labels, n):
    labels = np.asarray(labels, dtype=np.int32)
    h, w = labels.shape
    smap = SuperpixelMap(w, h, labels, n)
    areas = np.bincount(labels.ravel(), minlength=n)
    return SuperpixelGraph(
        smap,
        np.zeros((n, 24)),
        np.empty((0, 2), dtype=np.int32),
        np.empty(0),
        areas,
        np.zeros((n, 2)),
    )


def one_pixel_superpixels():
    return edgeless_graph(np.arange(8, dtype=np.int32).reshape(2, 4), 8)


def test_single_mask_round_trips_through_cut():
    graph = one_pixel_superpixels()
    mask = (np.arange(8) % 3 == 0).astype(np.uint8)
    out = fuse_and_cut([WeightedMask("a", mask, 1.0)], graph, lam=0.05)
    assert np.array_equal(out, mask)


def test_two_identical_masks_match_single():
    graph = one_pixel_superpixels()
    mask = (np.arange(8) % 2 == 0).astype(np.uint8)
    one = fuse_and_cut([WeightedMask("a", mask, 1.0)], graph, lam=0.05)
    two = fuse_and_cut(
        [WeightedMask("a", mask, 1.0), WeightedMask("a", mask, 1.0)], graph, lam=0.05
    )
    assert np.array_equal(one, two)


def test_disjoint_masks_high_score_wins():
    graph = one_pixel_superpixels()
    big = (np.arange(8) < 3).astype(np.uint8)
    small = (np.arange(8) >= 5).astype(np.uint8)
    out = fuse_and_cut(
        [WeightedMask("a", big, 10.0), WeightedMask("b", small, 0.1)],
        graph,
        lam=0.05,
    )
    # normalized weights: big -> 1, small -> 0.01 < 0.5 threshold
    assert np.array_equal(out, big)


def test_fuse_requires_masks():
    graph = edgeless_graph(np.zeros((2, 2), dtype=np.int32), 1)
    with pytest.raises(ValueError):
        fuse_and_cut([], graph, lam=0.05)


@pytest.mark.parametrize("shape", [(1,), (7,), (9,), (2, 4)],
                         ids=["length-1", "short", "long", "pixel-grid"])
def test_fuse_rejects_masks_of_the_wrong_shape(shape):
    # (1,) would broadcast, and (2, 4) is the pixel grid of these superpixels
    graph = one_pixel_superpixels()
    good = WeightedMask("a", np.ones(8, dtype=np.uint8), 1.0)
    bad = WeightedMask("b", np.ones(shape, dtype=np.uint8), 1.0)
    for masks in ([bad], [good, bad]):
        with pytest.raises(ValueError, match="superpixel count"):
            fuse_and_cut(masks, graph, lam=0.05)


def test_final_labeling_invariant_to_global_score_scale():
    graph = one_pixel_superpixels()
    a = (np.arange(8) < 3).astype(np.uint8)
    b = (np.arange(8) >= 6).astype(np.uint8)
    base = [WeightedMask("a", a, 1.0), WeightedMask("b", b, 0.2)]
    scaled = [WeightedMask("a", a, 7.0), WeightedMask("b", b, 1.4)]
    assert np.array_equal(
        fuse_and_cut(base, graph, 0.05), fuse_and_cut(scaled, graph, 0.05)
    )


# -- detections / nms --------------------------------------------------------------

def test_parse_detections(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text('"horse jumping" 1 2 30 40 0.9\nplain 0 0 5 5 1.5\n')
    dets = parse_detections(path)
    assert dets[0].phrase == "horse jumping" and dets[0].score == 0.9
    assert dets[1].box == (0, 0, 5, 5)


def test_nms_suppresses_overlaps():
    dets = [
        Detection("a", (0, 0, 10, 10), 0.9),
        Detection("a", (1, 1, 11, 11), 0.8),  # IoU ~0.68 with the first
        Detection("a", (20, 20, 30, 30), 0.7),
    ]
    kept = nms(dets, 0.5)
    assert [d.score for d in kept] == [0.9, 0.7]


def test_nms_suppresses_within_a_phrase_and_keeps_input_order():
    dets = [
        Detection("b", (0, 0, 10, 10), 0.5),
        Detection("a", (0, 0, 10, 10), 0.9),    # same box as "b": not suppressed
        Detection(" A ", (1, 1, 11, 11), 0.95),  # normalizes to "a": suppresses the 0.9
        Detection("b", (20, 20, 30, 30), 0.7),
    ]
    kept = nms(dets, 0.5)
    assert [dets.index(d) for d in kept] == [0, 2, 3]  # input order, not score order
    # identical detections both survive at IoU threshold 1.0, in place
    twins = [dets[1], dets[0], Detection("a", (0, 0, 10, 10), 0.9)]
    assert [id(d) for d in nms(twins, 1.0)] == [id(d) for d in twins]


def test_nms_is_greedy_nms_of_each_phrase():
    # one call over mixed phrases keeps what a separate greedy pass per
    # phrase keeps (highest score first, ties in input order)
    rng = np.random.default_rng(25)
    for _ in range(50):
        dets = []
        for _ in range(rng.integers(0, 12)):
            x, y = (int(v) for v in rng.integers(0, 20, size=2))
            w, h = (int(v) for v in rng.integers(1, 12, size=2))
            phrase = str(rng.choice(["a", "b", "A", "c  d", "C D"]))
            dets.append(Detection(phrase, (x, y, x + w, y + h), float(rng.integers(0, 4))))
        threshold = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
        kept = set()
        for phrase in {" ".join(d.phrase.lower().split()) for d in dets}:
            ranked = sorted((i for i, d in enumerate(dets)
                             if " ".join(d.phrase.lower().split()) == phrase),
                            key=lambda i: -dets[i].score)
            chosen = []
            for i in ranked:
                if all(_box_iou(dets[i].box, dets[j].box) <= threshold for j in chosen):
                    chosen.append(i)
            kept.update(chosen)
        assert [id(d) for d in nms(dets, threshold)] == [id(dets[i]) for i in sorted(kept)]


# -- semantic_segment ----------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_setup():
    scene = make_scene(SceneConfig(seed=3))
    graph = extract_features(scene.image, compute_superpixels(scene.image, 200))
    inst = make_instance(graph, scene.box)
    model = em_learn([inst], Config(gmm_k=1, seed=0))
    table = SegmentPhraseTable()
    table.insert(PhraseKey.make("round object"), model)
    emb = table_of(round=[1.0, 0.0, 0.0], object=[0.0, 1.0, 0.0])
    return scene, table, emb


def test_single_detection_equals_restricted_cut(trained_setup):
    scene, table, emb = trained_setup
    det = Detection("round object", scene.box, 1.0)
    res = semantic_segment(scene.image, [det], table, emb, Config())
    model = table.query("round object")[0][1]
    direct = cut(model, res.graph, scene.box)
    assert np.array_equal(res.labels, direct)
    assert len(res.report) == 1
    assert seg_metrics(res.mask, scene.gt_mask).jaccard >= 0.9


def test_unknown_phrase_raises(trained_setup):
    scene, table, emb = trained_setup
    det = Detection("unknown thing", scene.box, 1.0)
    emb2 = table_of(
        round=[1.0, 0.0, 0.0], object=[0.0, 1.0, 0.0],
        unknown=[0.0, 0.0, 1.0], thing=[0.0, 0.0, 1.0],
    )
    with pytest.raises(DataError, match=r"^phrase 'unknown thing' not in table$"):
        semantic_segment(scene.image, [det], table, emb2, Config())


def test_below_threshold_sentinel(trained_setup):
    scene, table, emb = trained_setup
    det = Detection("round object", scene.box, 0.5)
    cfg = Config(detection_threshold=0.5)  # strictly-above rule drops 0.5
    res = semantic_segment(scene.image, [det], table, emb, cfg)
    assert res.report == [] and not res.labels.any() and not res.mask.any()


def test_out_of_context_mask_suppressed(trained_setup):
    scene, table, emb = trained_setup
    # third phrase with a near-orthogonal composite embedding
    table.insert(PhraseKey.make("stray patch"), table.query("round object")[0][1])
    emb3 = table_of(
        round=[1.0, 0.0, 0.0],
        object=[0.9, math.sqrt(1 - 0.81), 0.0],
        stray=[0.0, 0.0, 0.5],
        patch=[0.0, 0.0, 0.5],
    )
    x0, y0, x1, y1 = scene.box
    dets = [
        Detection("round", (x0, y0, x1, y1), 1.0),
        Detection("object", (x0, y0, x1, y1), 1.0),
        Detection("stray patch", (0, 0, 12, 12), 1.0),
    ]
    table.insert(PhraseKey.make("round"), table.query("round object")[0][1])
    table.insert(PhraseKey.make("object"), table.query("round object")[0][1])
    res = semantic_segment(scene.image, dets, table, emb3, Config())
    after = {r.phrase: r.score_after for r in res.report}
    assert after["stray patch"] < after["round"]
    assert after["stray patch"] < after["object"]


def test_single_mask_result_independent_of_embeddings(trained_setup):
    scene, table, emb = trained_setup
    det = Detection("round object", scene.box, 1.0)
    other = table_of(round=[0.3, 0.4, 0.5], object=[-1.0, 2.0, 0.1])
    r1 = semantic_segment(scene.image, [det], table, emb, Config())
    r2 = semantic_segment(scene.image, [det], table, other, Config())
    assert np.array_equal(r1.labels, r2.labels)
