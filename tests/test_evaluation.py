import numpy as np
import pytest

from segphrase.evaluation import (
    DECLARATION_GRID,
    SceneConfig,
    declaration_curve,
    make_scene,
    seg_metrics,
    write_curve_csv,
)


# -- seg_metrics -----------------------------------------------------------------

def test_perfect_prediction():
    gt = np.zeros((4, 4), dtype=bool)
    gt[1:3, 1:3] = True
    m = seg_metrics(gt, gt)
    assert m.precision == 1.0 and m.jaccard == 1.0


def test_inverted_prediction_on_half_image():
    gt = np.zeros((2, 4), dtype=bool)
    gt[:, :2] = True
    m = seg_metrics(~gt, gt)
    assert m.precision == 0.0 and m.jaccard == 0.0


def test_hand_counted_ten_by_ten():
    gt = np.zeros((10, 10), dtype=bool)
    gt[:, :5] = True
    pred = np.zeros((10, 10), dtype=bool)
    pred[:, :6] = True
    m = seg_metrics(pred, gt)
    assert m.precision == pytest.approx(0.9)
    assert m.jaccard == pytest.approx(50 / 60, abs=1e-6)


def test_empty_mask_conventions():
    empty = np.zeros((3, 3), dtype=bool)
    full = np.ones((3, 3), dtype=bool)
    assert seg_metrics(empty, empty).jaccard == 1.0
    assert seg_metrics(full, empty).jaccard == 0.0
    assert seg_metrics(empty, full).jaccard == 0.0


def test_precision_symmetric():
    rng = np.random.default_rng(0)
    a = rng.random((6, 6)) > 0.5
    b = rng.random((6, 6)) > 0.5
    assert seg_metrics(a, b).precision == seg_metrics(b, a).precision


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        seg_metrics(np.zeros((2, 2)), np.zeros((3, 3)))


def test_jaccard_one_iff_equal_nonempty():
    rng = np.random.default_rng(1)
    gt = rng.random((5, 5)) > 0.4
    assert seg_metrics(gt.copy(), gt).jaccard == 1.0
    flipped = gt.copy()
    flipped[0, 0] = not flipped[0, 0]
    assert seg_metrics(flipped, gt).jaccard < 1.0


# -- declaration_curve --------------------------------------------------------------

def counts(curve):
    assert [f for f, _ in curve] == list(DECLARATION_GRID)
    return [c for _, c in curve]


def test_all_correct_full_declaration():
    scored = [(1.0, True), (0.5, True), (-0.2, False)]
    # every declared item is correct: the counts are ceil(f * 3)
    assert counts(declaration_curve(scored)) == [1, 1, 1, 2, 2, 2, 3, 3, 3, 3]


def test_single_wrong_item():
    assert counts(declaration_curve([(0.4, False)])) == [0] * 10


def test_hand_ordered_four_items():
    scored = [(0.9, True), (0.5, False), (0.3, True), (0.1, True)]
    # declared ceil(f * 4): 1 1 2 2 2 3 3 4 4 4; the second item is wrong
    assert counts(declaration_curve(scored)) == [1, 1, 1, 1, 1, 2, 2, 3, 3, 3]


def test_declared_count_monotone():
    rng = np.random.default_rng(2)
    scored = [(float(s), bool(g)) for s, g in zip(rng.normal(size=40), rng.random(40) > 0.5)]
    c = counts(declaration_curve(scored))
    assert c == sorted(c) and c[-1] == sum((s > 0) == g for s, g in scored)


def test_ties_keep_input_order():
    # order: 0.5(T) correct, -0.5 declares False vs gold False -> correct,
    # then 0.5(F) wrong; declared ceil(f * 3): 1 1 1 2 2 2 3 3 3 3
    scored = [(0.5, True), (-0.5, False), (0.5, False)]
    assert counts(declaration_curve(scored)) == [1, 1, 1, 2, 2, 2, 2, 2, 2, 2]
    assert counts(declaration_curve(scored[::-1])) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        declaration_curve([])


def test_default_grid_has_ten_points():
    curve = declaration_curve([(1.0, True)])
    assert [f for f, _ in curve] == pytest.approx([0.1 * i for i in range(1, 11)])


# -- make_scene -----------------------------------------------------------------------

def test_noiseless_scene_thresholds_exactly():
    cfg = SceneConfig(fg_texture=1.0, bg_texture=0.0, noise=0.0, seed=1)
    scene = make_scene(cfg)
    assert np.array_equal(scene.image.data[:, :, 0] > 0.5, scene.gt_mask)


def test_scene_deterministic():
    a = make_scene(SceneConfig(seed=9))
    b = make_scene(SceneConfig(seed=9))
    assert np.array_equal(a.image.data, b.image.data)
    assert np.array_equal(a.gt_mask, b.gt_mask)
    assert a.box == b.box


def test_box_is_tight():
    scene = make_scene(SceneConfig(seed=4, fg_shape="blob"))
    x0, y0, x1, y1 = scene.box
    assert scene.gt_mask[y0:y1, x0:x1].any(axis=0).all()
    sub = np.zeros_like(scene.gt_mask)
    sub[y0:y1, x0:x1] = scene.gt_mask[y0:y1, x0:x1]
    assert np.array_equal(sub, scene.gt_mask)
    assert scene.gt_mask[:, x0].any() and scene.gt_mask[:, x1 - 1].any()
    assert scene.gt_mask[y0, :].any() and scene.gt_mask[y1 - 1, :].any()


def test_indistinguishable_textures_rejected():
    with pytest.raises(ValueError):
        make_scene(SceneConfig(fg_texture=0.5, bg_texture=0.45, noise=0.05))


@pytest.mark.parametrize("shape", ["ellipse", "rect", "blob"])
def test_all_shapes_generate(shape):
    scene = make_scene(SceneConfig(fg_shape=shape, seed=2))
    assert scene.gt_mask.any()
    assert 0.0 <= scene.image.data.min() and scene.image.data.max() <= 1.0


def test_unknown_shape_rejected():
    with pytest.raises(ValueError):
        make_scene(SceneConfig(fg_shape="triangle"))


# -- CSV writers ------------------------------------------------------------------------

def test_csv_writers(tmp_path):
    write_curve_csv([(0.5, 3)], tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text() == "fraction,correct\n0.5,3\n"
