import io
import math

import numpy as np
import pytest

from segphrase import imaging
from segphrase.evaluation import SceneConfig, make_scene
from segphrase.imaging import (
    FEATURE_DIM,
    HIST_BINS,
    Image,
    MalformedHeaderError,
    SuperpixelMap,
    TruncatedDataError,
    UnsupportedMagicError,
    _enforce_connectivity,
    compute_superpixels,
    extract_features,
    labels_to_mask,
    load_image,
    save_image,
)
from superpixel_oracle import _enforce_connectivity as oracle_connectivity
from superpixel_oracle import compute_superpixels as oracle_superpixels


def write_pgm(path, magic, w, h, payload, maxval=255):
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n{maxval}\n".encode())
        fh.write(bytes(payload))


def uniform_image(w=8, h=8, value=0.5):
    return Image(w, h, 1, np.full((h, w, 1), value))


# -- load_image -------------------------------------------------------------

def test_load_p5_scales_to_unit_interval(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm(path, "P5", 2, 2, [0, 255, 0, 255])
    img = load_image(path)
    assert (img.width, img.height, img.channels) == (2, 2, 1)
    assert np.array_equal(img.data.ravel(), [0.0, 1.0, 0.0, 1.0])


def test_load_p6_single_pixel(tmp_path):
    path = tmp_path / "a.ppm"
    write_pgm(path, "P6", 1, 1, [255, 0, 0])
    img = load_image(path)
    assert (img.width, img.height, img.channels) == (1, 1, 3)
    assert np.array_equal(img.data.ravel(), [1.0, 0.0, 0.0])


def test_load_rejects_p4(tmp_path):
    path = tmp_path / "a.pbm"
    write_pgm(path, "P4", 2, 2, [0, 0])
    with pytest.raises(UnsupportedMagicError):
        load_image(path)


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 two\n255\n" + bytes(4))
    with pytest.raises(MalformedHeaderError):
        load_image(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm(path, "P5", 4, 4, [0] * 7)
    with pytest.raises(TruncatedDataError):
        load_image(path)


def test_load_handles_comments_and_maxval_scaling(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n100\n" + bytes([50, 100]))
    img = load_image(path)
    assert np.allclose(img.data.ravel(), [0.5, 1.0])


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = Image(5, 4, 3, rng.integers(0, 256, size=(4, 5, 3)) / 255.0)
    save_image(img, tmp_path / "rt.ppm")
    back = load_image(tmp_path / "rt.ppm")
    assert np.allclose(back.data, img.data)


def test_image_invariants_enforced():
    with pytest.raises(ValueError):
        Image(2, 2, 1, np.full((2, 2, 1), 1.5))
    with pytest.raises(ValueError):
        Image(2, 2, 2, np.zeros((2, 2, 2)))


# -- compute_superpixels -----------------------------------------------------

def test_uniform_image_gives_nearest_seed_blocks():
    # independent oracle: with zero gradient the assignment is nearest seed
    img = uniform_image(8, 8)
    sm = compute_superpixels(img, 4)
    seeds = [(1.5, 1.5), (5.5, 1.5), (1.5, 5.5), (5.5, 5.5)]
    expected = np.zeros((8, 8), dtype=int)
    for y in range(8):
        for x in range(8):
            d = [(x - sx) ** 2 + (y - sy) ** 2 for sx, sy in seeds]
            expected[y, x] = int(np.argmin(d))
    assert sm.n == 4
    # same partition (ids may be renumbered, but raster order makes them equal)
    assert np.array_equal(sm.labels, expected)


def test_target_equals_pixel_count():
    img = uniform_image(6, 4)
    sm = compute_superpixels(img, 24)
    assert sm.n == 24
    assert np.array_equal(np.sort(sm.labels.ravel()), np.arange(24))


def test_target_one_single_superpixel():
    img = uniform_image(7, 5)
    sm = compute_superpixels(img, 1)
    assert sm.n == 1 and (sm.labels == 0).all()


def test_target_out_of_range():
    img = uniform_image(4, 4)
    with pytest.raises(ValueError):
        compute_superpixels(img, 0)
    with pytest.raises(ValueError):
        compute_superpixels(img, 17)


def _four_connected(labels, n):
    h, w = labels.shape
    seen = np.zeros_like(labels, dtype=bool)
    comps = 0
    for sy in range(h):
        for sx in range(w):
            if seen[sy, sx]:
                continue
            comps += 1
            stack = [(sy, sx)]
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and not seen[ny, nx] \
                            and labels[ny, nx] == labels[y, x]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
    return comps == n


@pytest.mark.parametrize("seed,target", [(0, 12), (1, 30), (2, 7)])
def test_partition_invariants_on_noise_images(seed, target):
    rng = np.random.default_rng(seed)
    img = Image(24, 18, 1, rng.random((18, 24, 1)))
    sm = compute_superpixels(img, target)
    assert 1 <= sm.n <= 4 * target
    counts = np.bincount(sm.labels.ravel(), minlength=sm.n)
    assert counts.sum() == 24 * 18 and (counts > 0).all()
    assert sm.labels.min() == 0 and sm.labels.max() == sm.n - 1
    assert _four_connected(sm.labels, sm.n)


def test_deterministic_for_fixed_inputs():
    rng = np.random.default_rng(3)
    img = Image(16, 16, 1, rng.random((16, 16, 1)))
    a = compute_superpixels(img, 10)
    b = compute_superpixels(img, 10)
    assert np.array_equal(a.labels, b.labels)


def _first_appearance_increasing(labels):
    return bool(np.all(np.diff(np.unique(labels.ravel(), return_index=True)[1]) > 0))


def _assert_same_as_oracle(img, target):
    got = compute_superpixels(img, target)
    want = oracle_superpixels(img, target)
    assert got.n == want.n
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.labels, want.labels)
    return got


@pytest.mark.parametrize("seed", range(6))
def test_matches_oracle_on_random_images(seed):
    rng = np.random.default_rng(100 + seed)
    w, h = (int(v) for v in 2 * rng.integers(1, 12, size=2) + 1)
    channels = 3 if seed % 2 else 1
    img = Image(w, h, channels, rng.random((h, w, channels)))
    targets = {1, w * h, *(int(t) for t in rng.integers(1, w * h + 1, size=4))}
    for target in sorted(targets):
        _assert_same_as_oracle(img, target)


@pytest.mark.parametrize("w,h,target", [(9, 7, 3), (15, 11, 10), (13, 13, 169), (31, 5, 6)])
def test_matches_oracle_on_uniform_images(w, h, target):
    _assert_same_as_oracle(uniform_image(w, h, 0.3), target)


@pytest.mark.parametrize("seed", [1, 2])
def test_matches_oracle_on_fragmented_scene(seed):
    # noise 0.16 leaves thousands of stray fragments for the merge phase
    scene = make_scene(SceneConfig(size=96, noise=0.16, seed=seed))
    sm = _assert_same_as_oracle(scene.image, 400)
    assert _first_appearance_increasing(sm.labels)


@pytest.mark.parametrize("seed", range(8))
def test_connectivity_matches_oracle_on_label_grids(seed):
    rng = np.random.default_rng(200 + seed)
    h, w = (int(v) for v in rng.integers(1, 24, size=2))
    grid = rng.integers(0, 1 + seed % 5, size=(h, w)).astype(np.int32)
    for min_size in range(1, 6):
        for max_count in (h * w, 12, 3, 1):
            labels, n = _enforce_connectivity(grid, min_size, max_count)
            want_labels, want_n = oracle_connectivity(grid, min_size, max_count)
            assert n == want_n
            assert np.array_equal(labels, want_labels)
            assert n <= max(max_count, 1)


@pytest.mark.parametrize("seed,target", [(0, 12), (1, 30), (2, 7), (3, 200)])
def test_ids_in_raster_order_of_first_appearance(seed, target):
    rng = np.random.default_rng(seed)
    img = Image(24, 18, 1, rng.random((18, 24, 1)))
    sm = compute_superpixels(img, target)
    assert _first_appearance_increasing(sm.labels)
    grid = rng.integers(0, 3, size=(18, 24)).astype(np.int32)
    labels, _ = _enforce_connectivity(grid, 3, 20)
    assert _first_appearance_increasing(labels)


# -- extract_features ---------------------------------------------------------

def test_constant_image_features_identical_boundary_zero():
    img = uniform_image(8, 8)
    sm = compute_superpixels(img, 4)
    g = extract_features(img, sm)
    assert np.allclose(g.features, g.features[0])
    assert (g.boundary_prob == 0).all()
    assert g.areas.sum() == 64


def _sobel_oracle(intensity):
    # independent 3x3 Sobel with replicated borders, direct loops
    h, w = intensity.shape
    pad = np.pad(intensity, 1, mode="edge")
    kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
    ky = kx.T
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            win = pad[y : y + 3, x : x + 3]
            out[y, x] = math.hypot((win * kx).sum(), (win * ky).sum())
    return out


def test_step_edge_boundary_prob_is_one():
    data = np.zeros((8, 8, 1))
    data[:, 4:] = 1.0
    img = Image(8, 8, 1, data)
    labels = np.repeat((np.arange(8) >= 4).astype(np.int32)[None, :], 8, axis=0)
    g = extract_features(img, SuperpixelMap(8, 8, labels, 2))
    assert g.edges.shape == (1, 2)
    # oracle: mean gradient over the pixels flanking the step, then clamp
    grad = _sobel_oracle(img.intensity())
    vals = [0.5 * (grad[y, 3] + grad[y, 4]) for y in range(8)]
    assert min(np.mean(vals), 1.0) == pytest.approx(1.0)
    assert g.boundary_prob[0] == pytest.approx(1.0)


def test_single_superpixel_has_no_edges():
    img = uniform_image(4, 4)
    g = extract_features(img, SuperpixelMap(4, 4, np.zeros((4, 4), dtype=np.int32), 1))
    assert g.edges.shape == (0, 2)


def test_histogram_blocks_sum_to_one():
    rng = np.random.default_rng(5)
    img = Image(12, 12, 3, rng.random((12, 12, 3)))
    sm = compute_superpixels(img, 6)
    g = extract_features(img, sm)
    blocks = g.features.reshape(sm.n, 3, 8).sum(axis=2)
    assert np.allclose(blocks, 1.0, atol=1e-9)


def test_feature_extraction_permutation_equivariant():
    rng = np.random.default_rng(6)
    img = Image(10, 10, 1, rng.random((10, 10, 1)))
    sm = compute_superpixels(img, 5)
    g = extract_features(img, sm)
    perm = np.random.default_rng(1).permutation(sm.n)
    sm2 = SuperpixelMap(10, 10, perm[sm.labels], sm.n)
    g2 = extract_features(img, sm2)
    assert np.allclose(g2.features[perm], g.features)
    assert np.array_equal(g2.areas[perm], g.areas)


def test_mismatched_dimensions_rejected():
    img = uniform_image(4, 4)
    with pytest.raises(ValueError):
        extract_features(img, SuperpixelMap(5, 4, np.zeros((4, 5), dtype=np.int32), 1))


def test_descriptor_width_follows_bin_config():
    rng = np.random.default_rng(7)
    img = Image(8, 8, 1, rng.random((8, 8, 1)))
    sm = compute_superpixels(img, 4)
    g = extract_features(img, sm)
    assert HIST_BINS == 8 and g.features.shape == (sm.n, 24) == (sm.n, FEATURE_DIM)
    assert np.allclose(g.features.reshape(sm.n, 3, HIST_BINS).sum(axis=2), 1.0)


def test_labels_to_mask_lifts_ids():
    labels = np.array([[0, 1], [2, 3]], dtype=np.int32)
    sm = SuperpixelMap(2, 2, labels, 4)
    mask = labels_to_mask(np.array([1, 0, 0, 1]), sm)
    assert np.array_equal(mask, [[1, 0], [0, 1]])
