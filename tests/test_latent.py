import numpy as np
import pytest

from segphrase import gmm, latent
from segphrase.config import Config
from segphrase.errors import DataError, NumericalError
from segphrase.evaluation import SceneConfig, make_scene, seg_metrics
from segphrase.imaging import (
    Image,
    compute_superpixels,
    extract_features,
    labels_to_mask,
)
from segphrase.latent import (
    CollapseError,
    DegenerateBoxError,
    SegmentationModel,
    _cut_free,
    box_overlap,
    cut,
    em_learn,
    init_labels,
    make_instance,
    segment_instance,
    segment_with_model,
)
from segphrase.mrf import MrfProblem, energy, min_cut_infer


def grid_instance(box, w=8, h=8, value=0.5, target=4):
    img = Image(w, h, 1, np.full((h, w, 1), value))
    graph = extract_features(img, compute_superpixels(img, target))
    return make_instance(graph, box)


def scene_instance(scene, target=200):
    graph = extract_features(
        scene.image, compute_superpixels(scene.image, target)
    )
    return make_instance(graph, scene.box)


# -- init_labels ----------------------------------------------------------------

def test_whole_image_box_all_foreground():
    inst = grid_instance((0, 0, 8, 8))
    assert (init_labels(inst, 1.0) == 1).all()


def test_degenerate_box_rejected():
    with pytest.raises(DegenerateBoxError):
        grid_instance((2, 2, 2, 6))
    with pytest.raises(DegenerateBoxError):
        grid_instance((0, 0, 9, 8))


def test_init_labels_hand_geometry():
    # 8x8 image, four 4x4 superpixels with centroids (2,2),(6,2),(2,6),(6,6);
    # box (0,0,6,6) shrunk by 0.5 about its center (3,3) is [1.5,4.5)^2
    inst = grid_instance((0, 0, 6, 6))
    labels = init_labels(inst, 0.5)
    # block 0: centroid (2,2) inside the shrunk box -> 1
    # blocks 1,2: centroid outside, half their area in the box -> 1
    # block 3: centroid outside, 0.25 of area in the box, not fully outside -> 0
    assert np.array_equal(labels, [1, 1, 1, 0])
    assert inst.sp_in_box == pytest.approx([1.0, 0.5, 0.5, 0.25])


def test_init_labels_fully_outside_is_background():
    inst = grid_instance((0, 0, 4, 4))
    labels = init_labels(inst, 1.0)
    assert np.array_equal(labels, [1, 0, 0, 0])


def test_seed_shrink_one_equals_box_membership_rule():
    rng = np.random.default_rng(0)
    img = Image(16, 16, 1, rng.random((16, 16, 1)))
    graph = extract_features(img, compute_superpixels(img, 12))
    inst = make_instance(graph, (3, 2, 13, 11))
    labels = init_labels(inst, 1.0)
    x0, y0, x1, y1 = inst.box
    cent = inst.graph.centroids
    in_box = (
        (cent[:, 0] >= x0) & (cent[:, 0] < x1)
        & (cent[:, 1] >= y0) & (cent[:, 1] < y1)
    )
    expected = (in_box | (inst.sp_in_box >= 0.5)) & (inst.sp_in_box > 0)
    assert np.array_equal(labels.astype(bool), expected)


def test_init_labels_shrink_range():
    inst = grid_instance((0, 0, 8, 8))
    with pytest.raises(ValueError):
        init_labels(inst, 0.0)
    with pytest.raises(ValueError):
        init_labels(inst, 1.5)


# -- em_learn ---------------------------------------------------------------------

def test_bimodal_instance_recovers_partition():
    scene = make_scene(SceneConfig(seed=5))
    inst = scene_instance(scene)
    model = em_learn([inst], Config(gmm_k=1, seed=0))
    mask = labels_to_mask(segment_instance(model, inst), inst.graph.smap)
    assert seg_metrics(mask, scene.gt_mask).jaccard == pytest.approx(1.0)


def test_max_iters_zero_is_single_m_step():
    scene = make_scene(SceneConfig(seed=6))
    inst = scene_instance(scene)
    model = em_learn([inst], Config(gmm_k=2, em_max_iters=0, seed=3))
    assert model.info.iterations == 0 and model.info.energy_history == []
    labels = init_labels(inst, 0.6)
    fg = inst.graph.features[labels == 1]
    bg = inst.graph.features[labels == 0]
    expect_fg = gmm.fit(fg, min(2, len(fg)), [3, 0])
    expect_bg = gmm.fit(bg, min(2, len(bg)), [3, 1])
    assert np.array_equal(model.theta_fg.means, expect_fg.means)
    assert np.array_equal(model.theta_bg.means, expect_bg.means)


def test_identical_instances_stay_identical():
    scene = make_scene(SceneConfig(seed=7))
    a, b = scene_instance(scene), scene_instance(scene)
    model = em_learn([a, b], Config(gmm_k=1, seed=1))
    la = segment_instance(model, a)
    lb = segment_instance(model, b)
    assert np.array_equal(la, lb)


def test_outside_box_clamp_respected():
    scene = make_scene(SceneConfig(seed=8))
    inst = scene_instance(scene)
    model = em_learn([inst], Config(gmm_k=1, seed=0))
    labels = segment_instance(model, inst)
    assert not labels[inst.sp_in_box == 0.0].any()


def test_training_deterministic_bit_identical():
    scene = make_scene(SceneConfig(seed=9))
    insts = [scene_instance(scene), scene_instance(make_scene(SceneConfig(seed=10)))]
    m1 = em_learn(insts, Config(gmm_k=2, seed=11))
    m2 = em_learn(insts, Config(gmm_k=2, seed=11))
    for a, b in ((m1.theta_fg, m2.theta_fg), (m1.theta_bg, m2.theta_bg)):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)
    assert m1.info.energy_history == m2.info.energy_history


@pytest.mark.parametrize("iters", [0, 1, 10])
def test_em_learn_hands_back_the_final_labelings(iters):
    insts = [scene_instance(make_scene(SceneConfig(seed=s))) for s in (15, 16)]
    model = em_learn(insts, Config(gmm_k=2, em_max_iters=iters, seed=4))
    assert len(model.info.labelings) == len(insts)
    for inst, labels in zip(insts, model.info.labelings):
        want = segment_instance(model, inst)
        assert labels.dtype == want.dtype and np.array_equal(labels, want)
    # a copy without the labelings is the same model info
    other = latent.ModelInfo(
        model.info.phrase, model.info.component_id, model.info.instances,
        model.info.iterations, model.info.energy_history,
    )
    assert other == model.info and other.labelings is None


def test_energy_history_non_increasing():
    scenes = [make_scene(SceneConfig(seed=s)) for s in (12, 13, 14)]
    insts = [scene_instance(s) for s in scenes]
    model = em_learn(insts, Config(gmm_k=2, seed=0))
    hist = model.info.energy_history
    assert len(hist) >= 1
    assert all(b <= a + 1e-6 for a, b in zip(hist, hist[1:]))


def test_uniform_images_collapse():
    # identical features everywhere: the tie-break relabels everything
    # background, the halved-shrink retry does the same, then the error
    inst = grid_instance((2, 2, 6, 6), w=8, h=8, target=16)
    with pytest.raises(CollapseError):
        em_learn([inst], Config(gmm_k=1, seed=0, em_max_iters=3))


def test_whole_image_box_collapses():
    inst = grid_instance((0, 0, 8, 8), target=16)
    with pytest.raises(CollapseError):
        em_learn([inst], Config(gmm_k=1, seed=0))


def test_em_learn_requires_instances():
    with pytest.raises(ValueError):
        em_learn([], Config())


# -- segment_with_model --------------------------------------------------------------

def _simple_model(fg_at, bg_at, dim=24):
    mk = lambda c: gmm.GaussianMixture(
        np.array([1.0]), np.full((1, dim), c), np.full((1, dim), 1e-2)
    )
    return SegmentationModel(mk(fg_at), mk(bg_at), lam=0.05)


def test_all_foreground_when_fg_density_dominates():
    img = Image(8, 8, 1, np.full((8, 8, 1), 0.5))
    graph = extract_features(img, compute_superpixels(img, 4))
    model = SegmentationModel(
        gmm.GaussianMixture(
            np.array([1.0]), graph.features[:1].copy(), np.full((1, 24), 1e-2)
        ),
        gmm.GaussianMixture(
            np.array([1.0]), graph.features[:1] + 3.0, np.full((1, 24), 1e-2)
        ),
        lam=0.05,
    )
    assert (segment_with_model(model, graph) == 1).all()


def test_equal_models_tie_break_all_background():
    img = Image(8, 8, 1, np.full((8, 8, 1), 0.5))
    graph = extract_features(img, compute_superpixels(img, 4))
    g = gmm.fit(graph.features, 1, seed=0)
    model = SegmentationModel(g, g, lam=0.05)
    assert (segment_with_model(model, graph) == 0).all()


def test_dimension_mismatch_rejected():
    img = Image(8, 8, 1, np.full((8, 8, 1), 0.5))
    graph = extract_features(img, compute_superpixels(img, 4))
    model = _simple_model(0.0, 1.0, dim=7)
    with pytest.raises(ValueError) as raised:
        segment_with_model(model, graph)
    assert isinstance(raised.value, DataError)  # the CLI exits 2


def test_held_out_two_texture_recovery():
    train = [make_scene(SceneConfig(seed=s)) for s in (20, 21)]
    test = make_scene(SceneConfig(seed=22))
    model = em_learn([scene_instance(s) for s in train], Config(gmm_k=1, seed=2))
    graph = extract_features(
        test.image, compute_superpixels(test.image, 200)
    )
    mask = labels_to_mask(segment_with_model(model, graph), graph.smap)
    assert seg_metrics(mask, test.gt_mask).jaccard >= 0.9


# -- cut: exact elimination of fixed superpixels ---------------------------------------

def _constrained_brute_force(p, fixed):
    """Lexicographically smallest minimiser among labelings with `fixed` at 0."""
    free = np.flatnonzero(~fixed)
    ks = np.arange(1 << free.size)
    labels = np.zeros((len(ks), p.n), dtype=np.int64)
    labels[:, free] = (ks[:, None] >> np.arange(free.size - 1, -1, -1)) & 1
    energies = labels @ p.unary[:, 1] + (1 - labels) @ p.unary[:, 0]
    if len(p.edges):
        energies += (labels[:, p.edges[:, 0]] != labels[:, p.edges[:, 1]]) @ p.weights
    best = int(np.argmin(energies))
    return labels[best], float(energies[best])


def _clamped_problem(rng, scale, ties):
    n = int(rng.integers(1, 13))
    if ties:
        unary = rng.integers(-2, 3, size=(n, 2)) * scale
    else:
        unary = rng.uniform(-5, 5, size=(n, 2)) * scale
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    if ties:
        weights = rng.integers(0, 3, size=len(pairs)) * scale
    else:
        weights = rng.uniform(0, 3, size=len(pairs)) * scale
    p = MrfProblem(
        n, unary.astype(float), np.array(pairs, dtype=np.int32).reshape(-1, 2), weights
    )
    return p, rng.random(n) < rng.uniform(0.0, 1.0)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5])
@pytest.mark.parametrize("ties", [False, True])
def test_elimination_matches_constrained_brute_force(scale, ties):
    rng = np.random.default_rng(int(scale) + ties)
    for _ in range(40):
        p, fixed = _clamped_problem(rng, scale, ties)
        labels = _cut_free(p.unary[~fixed], p.edges, p.weights, fixed)
        want, best = _constrained_brute_force(p, fixed)
        assert not labels[fixed].any()
        assert energy(p, labels) == pytest.approx(best, rel=0, abs=1e-9 * scale)
        if ties:  # exact arithmetic: the cut is the smallest minimiser
            assert np.array_equal(labels, want)


def _far_background_model(graph):
    """Foreground fit to the graph; background so far away that every
    superpixel's cost of 0 exceeds its cost of 1 by far more than 1e6."""
    fg = gmm.fit(graph.features, 1, seed=0)
    bg = gmm.GaussianMixture(
        np.array([1.0]), fg.means + 100.0, np.full_like(fg.variances, 1e-4)
    )
    return SegmentationModel(fg, bg, lam=0.05)


def _soft_clamped_cut(model, graph, fixed):
    """The old clamp: a 1e6 penalty on label 1 of the fixed superpixels."""
    unary = np.column_stack([
        -gmm.log_density_many(model.theta_bg, graph.features),
        -gmm.log_density_many(model.theta_fg, graph.features),
    ])
    unary[fixed, 1] += 1e6
    weights = np.exp(-model.lam * graph.boundary_prob)
    return min_cut_infer(MrfProblem(graph.n, unary, graph.edges, weights))


def test_fixed_node_stays_background_against_huge_costs():
    rng = np.random.default_rng(1)
    img = Image(16, 16, 1, rng.random((16, 16, 1)))
    graph = extract_features(img, compute_superpixels(img, 12))
    model = _far_background_model(graph)
    fixed = box_overlap(graph, (0, 0, 8, 16)) == 0.0
    assert fixed.any() and not fixed.all()
    assert np.array_equal(cut(model, graph, fixed), ~fixed)
    assert _soft_clamped_cut(model, graph, fixed)[fixed].any()


def test_every_node_fixed_skips_the_cut(monkeypatch):
    img = Image(16, 16, 1, np.random.default_rng(2).random((16, 16, 1)))
    graph = extract_features(img, compute_superpixels(img, 12))

    def no_cut(problem):
        raise AssertionError(f"cut of size {problem.n} built")

    monkeypatch.setattr(latent, "min_cut_infer", no_cut)
    labels = cut(_far_background_model(graph), graph, np.ones(graph.n, dtype=bool))
    assert labels.dtype == np.int8 and not labels.any()


@pytest.mark.parametrize("seed", [30, 31])
def test_cut_matches_box_clamped_full_problem(seed):
    # with costs far below 1e6 the old clamp fixes the outside-box
    # superpixels exactly, so both cuts give the same labels
    inst = scene_instance(make_scene(SceneConfig(seed=seed)))
    model = em_learn([inst], Config(gmm_k=2, seed=seed))
    soft = _soft_clamped_cut(model, inst.graph, inst.sp_in_box == 0.0)
    assert np.array_equal(segment_instance(model, inst), soft)


@pytest.mark.parametrize(
    "box", [(2, 2, 2, 6), (6, 6, 2, 2), (9, 0, 12, 4), (-5, -5, -1, -1)]
)
def test_box_overlap_of_degenerate_boxes_is_empty(box):
    graph = grid_instance((0, 0, 8, 8)).graph
    assert not box_overlap(graph, box).any()

