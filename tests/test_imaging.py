import copy
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from segphrase import imaging
from segphrase.errors import DataError
from segphrase.evaluation import SceneConfig, make_scene
from segphrase.imaging import (
    FEATURE_DIM,
    HIST_BINS,
    Image,
    SuperpixelMap,
    _enforce_connectivity,
    compute_superpixels,
    extract_features,
    labels_to_mask,
    load_image,
    save_image,
)
import superpixel_oracle
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
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: unsupported magic number b'P4'$"):
        load_image(path)


@pytest.mark.parametrize("blob", [b"", b"P", b"5\n", b"XY\n2 two\n255\n", b"p5\n1 1\n255\n\0"])
def test_load_checks_the_magic_before_the_header(tmp_path, blob):
    path = tmp_path / "a.pgm"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: unsupported magic number {blob[:2]!r}')}$"):
        load_image(path)


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 two\n255\n" + bytes(4))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: non-numeric header token b'two'$"):
        load_image(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm(path, "P5", 4, 4, [0] * 7)
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: expected 16 pixel bytes, found 7$"):
        load_image(path)


def test_load_handles_comments_and_maxval_scaling(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n100\n" + bytes([50, 100]))
    img = load_image(path)
    assert np.allclose(img.data.ravel(), [0.5, 1.0])


@pytest.mark.parametrize("header, raster, sample", [
    (b"P5\n4 4\n100\n", bytes([0xFF] * 16), 255),
    (b"P5\n4 4\n100\n", bytes([100] * 15 + [101]), 101),
    (b"P6\n2 1\n1\n", bytes([0, 1, 1, 1, 0, 2]), 2),
], ids=["p5-all-255", "p5-one-over", "p6-one-over"])
def test_load_rejects_a_sample_above_maxval(tmp_path, header, raster, sample):
    # Netpbm samples lie in [0, maxval]; scaled by maxval they would leave [0, 1]
    path = tmp_path / "a.pgm"
    path.write_bytes(header + raster)
    maxval = int(header.split()[-1])
    message = f"{path}: sample {sample} above maxval {maxval}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_image(path)


def test_load_reads_the_first_of_several_images(tmp_path):
    # Netpbm allows several images in one file: the bytes after the first
    # raster are not read
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([51, 255]) + b"P5\n1 1\n255\n" + bytes([7]))
    img = load_image(path)
    assert (img.width, img.height) == (2, 1) and np.allclose(img.data.ravel(), [0.2, 1.0])


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


# uniform: every d2 is spatial, so equidistant centres tie exactly
@pytest.mark.parametrize("w,h,target", [
    (9, 7, 3), (15, 11, 10), (13, 13, 169), (31, 5, 6), (48, 48, 50), (40, 24, 60), (33, 17, 11),
])
def test_matches_oracle_on_uniform_images(w, h, target):
    _assert_same_as_oracle(uniform_image(w, h, 0.3), target)


@pytest.mark.parametrize("seed", [1, 2])
def test_matches_oracle_on_fragmented_scene(seed):
    # noise 0.16 leaves thousands of stray fragments for the merge phase
    scene = make_scene(SceneConfig(size=96, noise=0.16, seed=seed))
    sm = _assert_same_as_oracle(scene.image, 400)
    assert _first_appearance_increasing(sm.labels)


def _kmeans_grid(w, h, target):
    """(seed-grid rows, cols, window reach) of `_kmeans_assign`."""
    interval = math.sqrt(w * h / target)
    return (max(1, round(h / interval)), max(1, round(w / interval)),
            max(1, math.ceil(2 * interval)))


def _spy(monkeypatch, name):
    """Record (args, result) of every call to imaging.<name>, copied as
    they were at the call."""
    calls = []
    real = getattr(imaging, name)

    def spy(*args):
        seen = copy.deepcopy(args)
        result = real(*args)
        calls.append((seen, copy.deepcopy(result)))
        return result

    monkeypatch.setattr(imaging, name, spy)
    return calls


def _crops_and_redos(monkeypatch):
    """Spy on the crop of every k-means call and on the pixels each
    iteration decides again; returns (crops, redone pixel counts)."""
    crops = _spy(monkeypatch, "_crop")
    redos = _spy(monkeypatch, "_full_pass")
    return crops, redos


@pytest.mark.parametrize("seed", [1, 2])
def test_cropped_windows_match_oracle(seed, monkeypatch):
    crops, redos = _crops_and_redos(monkeypatch)
    scene = make_scene(SceneConfig(size=128, noise=0.05, seed=seed))
    _assert_same_as_oracle(scene.image, 400)
    reach = _kmeans_grid(128, 128, 400)[2]
    assert len(crops) == 1
    assert all(int(crop) < reach for _, crop in crops)
    # the pixels whose best cropped d2 needs a wider window are few, and
    # some are decided again
    redone = [len(args[0]) for args, _ in redos]
    assert any(redone) and max(redone) < 0.05 * 128 * 128


# the benchmark's own shapes: noisy 64 px training scenes at the default
# target, and 256 px segment scenes at target 800 (the oracle takes about
# 0.8 s a 256 px image)
@pytest.mark.parametrize("size,noise,fg,target", [(64, 0.12, 0.62, 200), (256, 0.05, 0.75, 800)])
@pytest.mark.parametrize("seed", [1, 2])
def test_matches_oracle_at_bench_shapes(size, noise, fg, target, seed):
    scene = make_scene(SceneConfig(size=size, noise=noise, fg_texture=fg, bg_texture=0.25,
                                   seed=seed))
    _assert_same_as_oracle(scene.image, target)


@pytest.mark.parametrize("w,h,target", [(40, 3, 10), (3, 40, 10)])
def test_single_seed_grid_row_or_column_matches_oracle(w, h, target):
    rows, cols, _ = _kmeans_grid(w, h, target)
    assert min(rows, cols) == 1 and max(rows, cols) > 1
    rng = np.random.default_rng(w)
    _assert_same_as_oracle(Image(w, h, 1, rng.random((h, w, 1))), target)


@pytest.mark.parametrize("w,h,target", [(5, 60, 6), (60, 4, 5), (2, 2, 1)])
def test_image_narrower_than_one_window_matches_oracle(w, h, target):
    reach = _kmeans_grid(w, h, target)[2]
    assert 2 * reach + 1 > min(w, h)
    rng = np.random.default_rng(h)
    _assert_same_as_oracle(Image(w, h, 1, rng.random((h, w, 1))), target)


@pytest.mark.parametrize("w,h,target", [(48, 48, 50), (40, 24, 60), (33, 17, 11)])
def test_mirror_symmetric_images_match_oracle(w, h, target):
    # the left and right halves see the same distances, so centres tie
    half = np.random.default_rng(w).random((h, (w + 1) // 2, 1))
    mirrored = np.concatenate([half, half[:, ::-1][:, w % 2:]], axis=1)
    assert np.array_equal(mirrored, mirrored[:, ::-1])
    _assert_same_as_oracle(Image(w, h, 1, mirrored), target)


@pytest.mark.parametrize("seed", [0, 26, 31])
def test_three_level_images_match_oracle(seed):
    # three grey levels: exact ties between centres of different seed-grid
    # rows, and distance bounds that change sharply from row to row
    rng = np.random.default_rng(seed)
    levels = np.round(rng.random((48, 48, 1)) * 2) / 4
    _assert_same_as_oracle(Image(48, 48, 1, levels), 40)


def _window_passes(monkeypatch):
    """Record, per `_window_pass` call, the centres it evaluated and the
    iteration's final assignment (the returned array, which the pixels
    decided again then overwrite in place)."""
    calls = []
    real = imaging._window_pass

    def spy(padded, shape, centers, *rest):
        result = real(padded, shape, centers, *rest)
        calls.append((tuple(c.copy() for c in centers), result[0]))
        return result

    monkeypatch.setattr(imaging, "_window_pass", spy)
    return calls


def _window_covers(anchor_x, anchor_y, reach, h, w):
    """(len(anchor), h, w) bool: which pixels each anchor's window covers."""
    ys, xs = np.mgrid[0:h, 0:w]
    return ((np.abs(xs - anchor_x[:, None, None]) <= reach)
            & (np.abs(ys - anchor_y[:, None, None]) <= reach))


@pytest.mark.parametrize("h,w,target,seed", [(40, 8, 8, 0), (40, 8, 8, 5), (34, 11, 9, 1)])
def test_previous_centre_no_longer_covering_matches_oracle(h, w, target, seed, monkeypatch):
    # sparse bright dots pull centres far enough that, in some iteration,
    # a pixel's centre from the iteration before no longer covers it
    passes = _window_passes(monkeypatch)
    dots = (np.random.default_rng(seed).random((h, w)) < 0.05).astype(float)
    _assert_same_as_oracle(Image(w, h, 1, dots[:, :, None]), target)
    reach = _kmeans_grid(w, h, target)[2]
    ys, xs = np.mgrid[0:h, 0:w]
    uncovered = False
    for (_, assign), ((center_x, center_y, _), _) in zip(passes, passes[1:]):
        anchor_x = center_x.astype(int)[assign]
        anchor_y = center_y.astype(int)[assign]
        uncovered |= bool(((np.abs(xs - anchor_x) > reach) | (np.abs(ys - anchor_y) > reach)).any())
    assert uncovered


@pytest.mark.parametrize("h,w,target,seed", [(40, 8, 8, 0), (34, 11, 9, 1), (48, 48, 40, 3)])
def test_window_newly_covering_pixels_it_wins_matches_oracle(h, w, target, seed, monkeypatch):
    # a centre moves so far that its window newly covers pixels, and it
    # wins some of them
    passes = _window_passes(monkeypatch)
    dots = (np.random.default_rng(seed).random((h, w)) < 0.05).astype(float)
    _assert_same_as_oracle(Image(w, h, 1, dots[:, :, None]), target)
    reach = _kmeans_grid(w, h, target)[2]
    won = False
    for ((before_x, before_y, _), _), ((after_x, after_y, _), assign) in zip(passes, passes[1:]):
        old = _window_covers(before_x.astype(int), before_y.astype(int), reach, h, w)
        new = _window_covers(after_x.astype(int), after_y.astype(int), reach, h, w)
        entered = new & ~old
        won |= bool(np.take_along_axis(entered, assign[None].astype(np.intp), 0).any())
    assert won


@pytest.mark.parametrize("w,h,target", [(72, 72, 100), (96, 48, 150), (80, 60, 60)])
def test_exact_ties_with_cropped_windows_match_oracle(w, h, target, monkeypatch):
    # uniform, mirror-symmetric and three-level images tie exactly, at
    # sizes where the windows are cropped and some pixels decided again
    crops, redos = _crops_and_redos(monkeypatch)
    reach = _kmeans_grid(w, h, target)[2]
    rng = np.random.default_rng(w + h)
    half = rng.random((h, (w + 1) // 2, 1))
    mirrored = np.concatenate([half, half[:, ::-1][:, w % 2:]], axis=1)
    levels = np.round(rng.random((h, w, 1)) * 2) / 4
    for data in (np.full((h, w, 1), 0.3), mirrored, levels):
        _assert_same_as_oracle(Image(w, h, 1, data), target)
    assert any(int(crop) < reach for _, crop in crops)
    assert any(len(args[0]) for args, _ in redos)


@pytest.mark.parametrize("seed", range(4))
def test_matches_oracle_on_small_mixed_images(seed):
    # noise, uniform (exact ties), three-level and sparse-dot images of
    # random shapes up to 39 x 39
    rng = np.random.default_rng(1000 + seed)
    for trial in range(8):
        w, h = (int(v) for v in rng.integers(1, 40, size=2))
        kind = trial % 4
        if kind == 0:
            data = rng.random((h, w))
        elif kind == 1:
            data = np.full((h, w), 0.3)
        elif kind == 2:
            data = np.round(rng.random((h, w)) * 2) / 4
        else:
            data = (rng.random((h, w)) < 0.05).astype(float)
        img = Image(w, h, 1, data[:, :, None])
        for target in sorted({1, *(int(t) for t in rng.integers(1, w * h + 1, size=2))}):
            _assert_same_as_oracle(img, target)


@pytest.mark.parametrize("crop", [1, 3, "reach"])
@pytest.mark.parametrize("seed", [0, 5])
def test_every_crop_matches_oracle(crop, seed, monkeypatch):
    # the crop only moves work between the windows and the pixels decided
    # again: forced to its extremes, the labels stay the oracle's
    def forced(interval):
        return math.ceil(2 * interval) if crop == "reach" else crop

    monkeypatch.setattr(imaging, "_crop", forced)
    dots = (np.random.default_rng(seed).random((40, 8)) < 0.05).astype(float)
    _assert_same_as_oracle(Image(8, 40, 1, dots[:, :, None]), 8)
    noise = np.random.default_rng(seed).random((24, 30, 1))
    _assert_same_as_oracle(Image(30, 24, 1, noise), 20)
    # and the same through one chunk of three images
    more = (np.random.default_rng(seed + 1).random((40, 8)) < 0.1).astype(float)
    chunk = [Image(8, 40, 1, d[:, :, None]) for d in (dots, more, np.full((40, 8), 0.3))]
    assert _assert_maps_same_as_oracle(chunk, 8, monkeypatch) == [3]


@pytest.mark.parametrize("w,h,target", [(16, 16, 4), (20, 20, 7), (30, 18, 12)])
def test_proven_threshold_is_strict(w, h, target, monkeypatch):
    # a best cropped d2 of exactly (crop / interval)**2 is decided again,
    # as is one a ulp above the proof's bound; the bound itself, and below,
    # are kept
    interval = math.sqrt(w * h / target)
    crop = imaging._crop(interval)
    bound = (crop / interval) ** 2
    proven = ((crop - imaging._NEED_MARGIN) / interval) ** 2
    assert proven < bound
    real = imaging._window_pass

    def tampered(*args):
        assign, best = real(*args)
        # uniform intensity: every true best d2 is well inside the bound
        assert (best <= 0.5 * proven).all()
        best.flat[:4] = bound, np.nextafter(proven, np.inf), proven, 0.0
        return assign, best

    monkeypatch.setattr(imaging, "_window_pass", tampered)
    redos = _spy(monkeypatch, "_full_pass")
    _assert_same_as_oracle(uniform_image(w, h, 0.3), target)
    assert len(redos) == imaging._KMEANS_ITERS
    assert all(args[0].tolist() == [0, 1] for args, _ in redos)


@pytest.mark.parametrize("w,h,target", [(16, 16, 4), (30, 18, 12)])
def test_proven_threshold_is_strict_in_a_chunk(w, h, target, monkeypatch):
    # the same tampering on the first pixels of both images of a chunk:
    # each image's own bound decides which of its pixels are decided again
    interval = math.sqrt(w * h / target)
    crop = imaging._crop(interval)
    bound = (crop / interval) ** 2
    proven = ((crop - imaging._NEED_MARGIN) / interval) ** 2
    real = imaging._window_pass

    def tampered(*args):
        assign, best = real(*args)
        assert (best <= 0.5 * proven).all()
        for image in best.reshape(-1, h * w):
            image[:4] = bound, np.nextafter(proven, np.inf), proven, 0.0
        return assign, best

    monkeypatch.setattr(imaging, "_window_pass", tampered)
    redos = _spy(monkeypatch, "_full_pass")
    images = [uniform_image(w, h, 0.3), uniform_image(w, h, 0.7)]
    assert _assert_maps_same_as_oracle(images, target, monkeypatch) == [2]
    assert len(redos) == imaging._KMEANS_ITERS
    assert all(args[0].tolist() == [0, 1, h * w, h * w + 1] for args, _ in redos)


def _least(o):
    """Least distance along one axis from a centre anywhere in its anchor
    pixel to the pixel o from that anchor."""
    return o - 1 if o >= 1 else -o


@pytest.mark.parametrize("crop", range(1, 13))
def test_disc_is_the_set_the_crop_proof_allows(crop):
    rows, cols = imaging._disc(crop)
    square = range(-crop, crop + 1)
    allowed = [(oy + crop, ox + crop) for oy in square for ox in square
               if _least(oy) ** 2 + _least(ox) ** 2 <= crop * crop]
    assert list(zip(rows.tolist(), cols.tolist())) == allowed


@pytest.mark.parametrize("seed", range(4))
def test_entries_outside_the_disc_are_beyond_proven(seed):
    # every (pixel, centre) pair of a covering window that the disc drops,
    # in its corners or beyond the crop, has a computed d2 above the bound
    # below which a cropped winner is kept, so the disc moves no label
    rng = np.random.default_rng(seed)
    for _ in range(40):
        interval = float(rng.choice([1.0, rng.uniform(1, 3), rng.uniform(3, 12)]))
        reach = math.ceil(2 * interval)
        crop = int(rng.integers(1, reach)) if rng.random() < 0.5 else imaging._crop(interval)
        proven = ((crop - imaging._NEED_MARGIN) / interval) ** 2
        anchor = reach + 50
        # centres anywhere in the anchor pixel, both of its edges included
        x, y = (float(rng.choice([anchor, np.nextafter(anchor + 1, 0), anchor + rng.random()]))
                for _ in "xy")
        assert (int(x), int(y)) == (anchor, anchor)
        level = rng.random()
        centers = tuple(np.array([v]) for v in (x, y, level))
        kept = set(zip(*(a.tolist() for a in imaging._disc(crop))))
        oy, ox = (a.ravel() - reach for a in np.mgrid[0:2 * reach + 1, 0:2 * reach + 1])
        dropped = np.array([(a + crop, b + crop) not in kept for a, b in zip(oy, ox)])
        oy, ox = oy[dropped], ox[dropped]
        # the same intensity as the centre, or any other
        values = np.where(rng.random(len(oy)) < 0.5, level, rng.random(len(oy)))
        pixels = ((anchor + ox).astype(float)[:, None], (anchor + oy).astype(float)[:, None],
                  values[:, None])
        d2 = imaging._d2(pixels, centers, np.zeros((1, 1), dtype=np.intp), interval * interval)
        assert dropped.any() and (d2 > proven).all()


def _oracle_assignment(img, target):
    """The oracle's k-means assignment of one image, before connectivity."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(superpixel_oracle, "_enforce_connectivity",
                      lambda assign, *rest: (seen.append(assign.copy()), (assign, 0))[1])
        oracle_superpixels(img, target)
    return seen[0]


@pytest.fixture(scope="module")
def block_stack():
    """Three 64 px images, a noisy train scene, a uniform one (exact ties)
    and a three-level one, with the oracle's assignment of each."""
    rng = np.random.default_rng(29)
    scene = make_scene(SceneConfig(size=64, noise=0.12, fg_texture=0.62, bg_texture=0.25,
                                   seed=4)).image.intensity()
    images = np.stack([scene, np.full((64, 64), 0.3), np.round(rng.random((64, 64)) * 2) / 4])
    return images, [_oracle_assignment(Image(64, 64, 1, a[:, :, None]), 200) for a in images]


@pytest.mark.parametrize("crop", ["default", 1])
@pytest.mark.parametrize("block", ["one-row", "default", "whole-stack"])
def test_labels_do_not_depend_on_the_block_bound(block, crop, block_stack, monkeypatch):
    # the block bound moves only work: one seed row a block, blocks that
    # straddle image boundaries, or the whole stack in one block give the
    # oracle's assignment; a crop of 1 has most pixels decided again, in
    # several `_full_pass` steps
    images, want = block_stack
    m, h, w = images.shape
    target = 200
    interval = math.sqrt(h * w / target)
    if crop != "default":
        monkeypatch.setattr(imaging, "_crop", lambda interval: crop)
    rows, cols, _ = _kmeans_grid(w, h, target)
    kept = len(imaging._disc(imaging._crop(interval))[0])
    bound = {"one-row": cols * kept, "default": imaging._KMEANS_BLOCK,
             "whole-stack": (m * rows + 1) * cols * kept}[block]
    monkeypatch.setattr(imaging, "_KMEANS_BLOCK", bound)
    block_rows = max(1, bound // (cols * kept))
    straddles = any(s // rows != (min(s + block_rows, m * rows) - 1) // rows
                    for s in range(0, m * rows, block_rows))
    assert straddles == (block != "one-row")
    redos = _spy(monkeypatch, "_full_pass")
    # `_full_pass` evaluates one `_d2` a step (and one for uncovered pixels)
    steps = []
    real_d2 = imaging._d2
    monkeypatch.setattr(imaging, "_d2", lambda *args: (steps.append(1), real_d2(*args))[1])
    got = imaging._kmeans_assign(images, target)
    for j in range(m):
        assert np.array_equal(got[j] - j * rows * cols, want[j])
    redone = [len(args[0]) for args, _ in redos]
    if crop == 1:
        assert min(redone) > 0.5 * m * h * w and len(steps) > 2 * imaging._KMEANS_ITERS
    else:
        assert any(redone)


def _assert_maps_same_as_oracle(images, target, monkeypatch):
    """`superpixel_maps` of the list equals the oracle image by image;
    returns the number of images each k-means run stacked."""
    stacks = []
    real = imaging._kmeans_assign

    def spy(intensity, target_count):
        stacks.append(len(intensity))
        return real(intensity, target_count)

    monkeypatch.setattr(imaging, "_kmeans_assign", spy)
    got = imaging.superpixel_maps(images, target)
    assert len(got) == len(images)
    for img, sm in zip(images, got):
        want = oracle_superpixels(img, target)
        assert (sm.width, sm.height, sm.n) == (img.width, img.height, want.n)
        assert sm.labels.dtype == want.labels.dtype
        assert np.array_equal(sm.labels, want.labels)
    return stacks


def test_superpixel_maps_match_oracle_on_a_mixed_list(monkeypatch):
    # five noisy 64 px train scenes, more than one chunk holds, with a
    # zero-gradient image of their shape among them (exact ties), then a
    # 48 x 80 image and one narrower than one window
    rng = np.random.default_rng(17)
    scenes = [make_scene(SceneConfig(size=64, noise=0.12, fg_texture=0.62, bg_texture=0.25,
                                     seed=seed)).image for seed in range(1, 6)]
    narrow = Image(5, 60, 1, rng.random((60, 5, 1)))
    assert 2 * _kmeans_grid(5, 60, 200)[2] + 1 > 5
    images = [*scenes[:2], uniform_image(64, 64, 0.3), Image(48, 80, 3, rng.random((80, 48, 3))),
              *scenes[2:], narrow]
    per_chunk = max(1, imaging._CHUNK_PIXELS // (64 * 64))
    assert 1 < per_chunk < 6
    stacks = _assert_maps_same_as_oracle(images, 200, monkeypatch)
    chunks = [min(per_chunk, 6 - s) for s in range(0, 6, per_chunk)]
    assert sorted(stacks) == sorted([1, 1, *chunks])


def test_superpixel_maps_match_oracle_at_target_one(monkeypatch):
    # target 1 fits every image, a single pixel included
    rng = np.random.default_rng(18)
    images = [Image(1, 1, 1, np.full((1, 1, 1), 0.4)), Image(7, 3, 1, rng.random((3, 7, 1))),
              Image(1, 1, 1, np.zeros((1, 1, 1))), Image(48, 80, 1, rng.random((80, 48, 1))),
              make_scene(SceneConfig(size=64, seed=3)).image]
    assert sorted(_assert_maps_same_as_oracle(images, 1, monkeypatch)) == [1, 1, 1, 2]


def test_superpixel_maps_checks_every_target_first():
    fits, small = uniform_image(8, 8), uniform_image(3, 3)
    with pytest.raises(imaging.SuperpixelTargetError, match=re.escape("outside [1, 9] for a 3x3")):
        imaging.superpixel_maps([fits, small, fits], 10)
    assert imaging.superpixel_maps([], 10) == []


def test_superpixel_maps_peak_memory_follows_the_chunk_budget():
    # 16 train-sized images: the working set is one chunk's, however many
    # images there are. Bytes a padded chunk pixel, at most 96: the
    # k-means' intensity stack, pixel coordinates, padded copy, band
    # buffers, and this and the previous iteration's assignment and
    # distance (72), or the connectivity pass's runs, components and pair
    # keys. Bytes a window entry of the disc in one block, at most 64: its
    # d2, gathered value, index and tie flag (25), its centre in the
    # tables of at most two block widths (8), and per tie its position,
    # pixel and centre (20). The maps keep 4 bytes a pixel.
    h = w = 64
    target = 200
    images = [make_scene(SceneConfig(size=64, noise=0.12, fg_texture=0.62, bg_texture=0.25,
                                     seed=seed)).image for seed in range(16)]
    per_chunk = max(1, imaging._CHUNK_PIXELS // (h * w))
    rows, cols, reach = _kmeans_grid(w, h, target)
    kept = len(imaging._disc(imaging._crop(math.sqrt(w * h / target)))[0])
    entries = min(per_chunk * rows * cols * kept, max(imaging._KMEANS_BLOCK, cols * kept))
    padded = per_chunk * (h + 2 * reach) * (w + 2 * reach)
    bound = 4 * len(images) * h * w + 96 * padded + 64 * entries
    tracemalloc.start()
    try:
        maps = imaging.superpixel_maps(images, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(maps) == 16
    assert peak <= bound


def test_full_pass_gives_uncovered_pixels_the_nearest_centre():
    # centres 0 and 2 tie for pixel (4, 4) and neither window reaches it
    w = h = 9
    pixels = (np.tile(np.arange(w, dtype=float), h), np.repeat(np.arange(h, dtype=float), w),
              np.full(w * h, 0.2))
    centers = (np.array([0.5, 4.0, 7.5]), np.array([0.5, 8.0, 7.5]), np.array([0.2, 0.85, 0.2]))
    at = np.array([4 * w + 4, 0, 8 * w + 4])
    grid = (np.array([4.0]), np.array([1.0, 4.0, 7.0]))
    winner = imaging._full_pass(at, pixels, centers, grid, 1.0, 2, (h, w))
    assert winner.tolist() == [0, 0, 1]


def _full_pass_reference(at, pixels, centers, scale2, reach, w):
    """Each pixel against every centre, one at a time: the smallest d2
    among the windows covering it, lowest index on ties; else the
    globally nearest centre."""
    winner = []
    for p in at.tolist():
        y, x = divmod(p, w)
        top, covered = (np.inf, -1), (np.inf, -1)
        for k, (cx, cy, ci) in enumerate(zip(*centers)):
            dx, dy = pixels[0][p] - cx, pixels[1][p] - cy
            di = (pixels[2][p] - ci) / imaging._INTENSITY_SCALE
            d2 = (dx * dx + dy * dy) / scale2 + di * di
            if (d2, k) < top:
                top = (d2, k)
            if abs(int(cx) - x) <= reach and abs(int(cy) - y) <= reach and (d2, k) < covered:
                covered = (d2, k)
        winner.append(covered[1] if covered[1] >= 0 else top[1])
    return winner


@pytest.mark.parametrize("seed", range(6))
def test_full_pass_matches_reference_for_any_drift(seed):
    # centres scattered anywhere, far from their seeds, with quantized
    # intensities so that ties occur: the seed-grid rectangle must still
    # hold every covering window and argmin the lowest index
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(4, 40, size=2))
    rows, cols = (int(v) for v in rng.integers(1, 6, size=2))
    grid = ((np.arange(rows) + 0.5) * h / rows - 0.5, (np.arange(cols) + 0.5) * w / cols - 0.5)
    n = rows * cols
    spread = [0.0, 2.0, 1e9][seed % 3]
    seeds_x, seeds_y = np.tile(grid[1], rows), np.repeat(grid[0], cols)
    centers = (np.clip(seeds_x + rng.uniform(-spread, spread, n), 0, w - 1),
               np.clip(seeds_y + rng.uniform(-spread, spread, n), 0, h - 1),
               rng.integers(0, 4, n) / 4)
    pixels = (np.tile(np.arange(w, dtype=float), h), np.repeat(np.arange(h, dtype=float), w),
              rng.integers(0, 4, w * h) / 4)
    reach = int(rng.integers(1, 8))
    scale2 = float(rng.choice([1.0, 2.25, 7.0]))
    at = rng.permutation(w * h)[:int(rng.integers(1, w * h))]
    winner = imaging._full_pass(at, pixels, centers, grid, scale2, reach, (h, w))
    assert winner.tolist() == _full_pass_reference(at, pixels, centers, scale2, reach, w)


def test_one_ulp_apart_matches_oracle():
    # in the fourth iteration pixel (1, 7) is 0.4868421052631578 from
    # centre 5 and one ulp less from centre 32, and the square roots of
    # the two are equal
    rows = ["11112012222120001110212121211210101211",
            "20011222200110212211001111102101220111",
            "10120212211111011112112121122122001011",
            "21211101211011120112101111211010100101"]
    levels = np.array([[int(v) / 4 for v in row] for row in rows])
    _assert_same_as_oracle(Image(38, 4, 1, levels[:, :, None]), 74)


def connect_one(grid, min_size, max_count):
    """`_enforce_connectivity` of a stack holding one map: (labels, n)."""
    labels, counts = _enforce_connectivity(grid[None], min_size, max_count)
    return labels[0], counts[0]


@pytest.mark.parametrize("seed", range(8))
def test_connectivity_matches_oracle_on_label_grids(seed):
    rng = np.random.default_rng(200 + seed)
    h, w = (int(v) for v in rng.integers(1, 24, size=2))
    grid = rng.integers(0, 1 + seed % 5, size=(h, w)).astype(np.int32)
    for min_size in range(1, 6):
        for max_count in (h * w, 12, 3, 1):
            labels, n = connect_one(grid, min_size, max_count)
            want_labels, want_n = oracle_connectivity(grid, min_size, max_count)
            assert n == want_n
            assert np.array_equal(labels, want_labels)
            assert n <= max(max_count, 1)


def spiral_map(n):
    """A one-pixel wall (1) spiralling in on a background (0): the
    background is one corridor about n * n / 2 pixels long."""
    grid = np.zeros((n, n), dtype=np.int32)
    top, bottom, left, right = 0, n - 1, 0, n - 1
    while top <= bottom and left <= right:
        grid[top, left:right + 1] = 1
        grid[top:bottom + 1, right] = 1
        if top + 2 <= bottom:
            grid[bottom, left:right + 1] = 1
        if left + 2 <= right:
            grid[top + 2:bottom + 1, left] = 1
        top, bottom, left, right = top + 2, bottom - 2, left + 2, right - 2
        if top <= bottom:
            grid[top, left - 1] = 1
    return grid


def comb_map(n):
    """Columns of 1 joined along the top row, with columns of 0 between."""
    grid = np.zeros((n, n), dtype=np.int32)
    grid[:, ::2] = 1
    grid[0] = 1
    return grid


ADVERSARIAL_MAPS = {
    "spiral": lambda: spiral_map(256),
    "comb": lambda: comb_map(256),
    "checkerboard": lambda: (np.add.outer(np.arange(256), np.arange(256)) % 2).astype(np.int32),
    "noise3": lambda: np.random.default_rng(7).integers(0, 3, size=(256, 256)).astype(np.int32),
    "one-row": lambda: np.random.default_rng(8).integers(0, 2, size=(1, 300)).astype(np.int32),
    "one-column": lambda: np.random.default_rng(9).integers(0, 2, size=(300, 1)).astype(np.int32),
    "one-pixel": lambda: np.zeros((1, 1), dtype=np.int32),
}


@pytest.mark.parametrize("name", list(ADVERSARIAL_MAPS))
def test_connectivity_matches_oracle_on_adversarial_maps(name):
    # long chains of runs (spiral, comb), one component per pixel
    # (checkerboard), many small ones (noise) and degenerate shapes
    grid = ADVERSARIAL_MAPS[name]()
    h, w = grid.shape
    want_labels, want_n = oracle_connectivity(grid, 1, h * w)
    comp, n = imaging._label_components(grid)
    assert n == want_n
    assert np.array_equal(comp, want_labels)
    labels, n = connect_one(grid, 1, h * w)
    assert n == want_n
    assert np.array_equal(labels, want_labels)
    if name in ("spiral", "comb", "one-row", "one-column"):
        # few components: the oracle's merges are affordable
        for min_size, max_count in ((300, 12), (2, 3)):
            labels, n = connect_one(grid, min_size, max_count)
            want_labels, want_n = oracle_connectivity(grid, min_size, max_count)
            assert n == want_n
            assert np.array_equal(labels, want_labels)


def _assert_stack_same_as_oracle(stack, min_size, max_count):
    labels, counts = _enforce_connectivity(stack, min_size, max_count)
    assert labels.shape == stack.shape and len(counts) == len(stack)
    for grid, got, n in zip(stack, labels, counts):
        want_labels, want_n = oracle_connectivity(grid, min_size, max_count)
        assert n == want_n
        assert np.array_equal(got, want_labels)


@pytest.mark.parametrize("seed", range(8))
def test_connectivity_matches_oracle_on_stacked_grids(seed):
    # the maps of a stack share values, so only the stacking keeps a
    # component from running on into the next map
    rng = np.random.default_rng(300 + seed)
    m = int(rng.integers(2, 6))
    h, w = (int(v) for v in rng.integers(1, 16, size=2))
    stack = rng.integers(0, 1 + seed % 4, size=(m, h, w)).astype(np.int32)
    for min_size in (1, 2, 5):
        for max_count in (h * w, 12, 3, 1):
            _assert_stack_same_as_oracle(stack, min_size, max_count)


def test_connectivity_matches_oracle_on_stacked_adversarial_maps():
    stack = np.stack([spiral_map(256), comb_map(256)])
    for min_size, max_count in ((300, 12), (2, 3)):
        _assert_stack_same_as_oracle(stack, min_size, max_count)


def _merge_rounds(monkeypatch):
    """Record each image's live component count after every merge round."""
    history = []
    real = imaging._merge_round

    def spy(edges, sizes, parent, image, alive, *rest):
        result = real(edges, sizes, parent, image, alive, *rest)
        history.append(alive.tolist())
        return result

    monkeypatch.setattr(imaging, "_merge_round", spy)
    return history


def test_one_map_collapses_while_another_still_merges(monkeypatch):
    # three 12-pixel stripes, all below min_size, collapse to one component
    # in two rounds; the noise map next to them merges for longer
    stripes = np.repeat(np.arange(3, dtype=np.int32), 2)[None].repeat(6, axis=0)
    noise = np.random.default_rng(4).integers(0, 3, size=(6, 6)).astype(np.int32)
    history = _merge_rounds(monkeypatch)
    _assert_stack_same_as_oracle(np.stack([stripes, noise]), 20, 36)
    assert any(a[0] == 1 and b[1] < a[1] for a, b in zip(history, history[1:]))


def test_surplus_phase_stops_where_one_merge_at_a_time_stops(monkeypatch):
    # 12 components, none below min_size 1, at most 7 kept: one merge at a
    # time merges components 0, 2, 3, 4 and 5, each into component 1.
    # Component 8 (key (1, 8)) is a local minimum from the start, so
    # merging every local minimum of a round (and only the smallest once
    # a round would pass 7) merges it in the first round. A round merges
    # only among the 5 smallest keys, so it never runs ahead of the
    # one-at-a-time order: its first round merges component 0 alone.
    grid = np.array([[1, 0, 1],
                     [0, 1, 2],
                     [2, 2, 1],
                     [1, 2, 1],
                     [2, 0, 2]], dtype=np.int32)
    history = _merge_rounds(monkeypatch)
    _assert_stack_same_as_oracle(np.stack([grid, grid[::-1], 2 - grid]), 1, 7)
    assert history[0][0] == 11 and history[-1][0] == 7


@pytest.mark.parametrize("seed,target", [(0, 12), (1, 30), (2, 7), (3, 200)])
def test_ids_in_raster_order_of_first_appearance(seed, target):
    rng = np.random.default_rng(seed)
    img = Image(24, 18, 1, rng.random((18, 24, 1)))
    sm = compute_superpixels(img, target)
    assert _first_appearance_increasing(sm.labels)
    grid = rng.integers(0, 3, size=(18, 24)).astype(np.int32)
    labels, _ = connect_one(grid, 3, 20)
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


def _features_oracle(img, smap):
    """(features, edges, boundary_prob) of extract_features, pixel by pixel.

    Histogram counts and pixel-pair counts are exact, so each division
    rounds as the program's does. Each boundary sum adds its pixel pairs
    left-right, then top-bottom, in raster order, as np.bincount does.
    """
    h, w, n = img.height, img.width, smap.n
    labels = smap.labels
    counts = [[[0] * HIST_BINS for _ in range(3)] for _ in range(n)]
    for y in range(h):
        for x in range(w):
            for ch in range(3):
                v = float(img.data[y, x, ch % img.channels])
                counts[labels[y, x]][ch][min(int(v * HIST_BINS), HIST_BINS - 1)] += 1
    features = np.array([
        [c / sum(block) if sum(block) else 0.0 for block in blocks for c in block]
        for blocks in counts
    ])
    intensity = img.intensity()
    p = np.pad(intensity, 1, mode="edge")
    grad = np.empty((h, w))
    for y in range(h):
        for x in range(w):
            gx = (p[y, x + 2] + 2 * p[y + 1, x + 2] + p[y + 2, x + 2]) - (
                p[y, x] + 2 * p[y + 1, x] + p[y + 2, x])
            gy = (p[y + 2, x] + 2 * p[y + 2, x + 1] + p[y + 2, x + 2]) - (
                p[y, x] + 2 * p[y, x + 1] + p[y, x + 2])
            grad[y, x] = np.hypot(gx, gy)
    sums, lengths = {}, {}
    for dy, dx in ((0, 1), (1, 0)):
        for y in range(h - dy):
            for x in range(w - dx):
                a, b = int(labels[y, x]), int(labels[y + dy, x + dx])
                if a != b:
                    key = (min(a, b), max(a, b))
                    mean = 0.5 * (grad[y, x] + grad[y + dy, x + dx])
                    sums[key] = sums.get(key, 0.0) + mean
                    lengths[key] = lengths.get(key, 0) + 1
    keys = sorted(sums)
    edges = np.array(keys, dtype=np.int32).reshape(-1, 2)
    boundary = np.array([min(max(sums[k] / lengths[k], 0.0), 1.0) for k in keys])
    return features, edges, boundary


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("target", [1, 5, 40])
def test_features_match_pixel_loop_oracle_bitwise(channels, target):
    rng = np.random.default_rng(11 + channels)
    h, w = 14, 17
    # 8-bit levels, with exact bin edges, 0 and 1 among them
    data = rng.integers(0, 256, size=(h, w, channels)) / 255.0
    data[0, 0], data[1, 1], data[2, 2] = 0.0, 1.0, 0.5
    img = Image(w, h, channels, data)
    sm = (compute_superpixels(img, target) if target > 1
          else SuperpixelMap(w, h, np.zeros((h, w), dtype=np.int32), 1))
    g = extract_features(img, sm)
    features, edges, boundary = _features_oracle(img, sm)
    assert np.array_equal(g.features, features)
    assert g.edges.dtype == np.int32 and np.array_equal(g.edges, edges)
    assert np.array_equal(g.boundary_prob, boundary)
    if target == 1:
        assert g.edges.shape == (0, 2) and g.boundary_prob.shape == (0,)


def test_labels_to_mask_lifts_ids():
    labels = np.array([[0, 1], [2, 3]], dtype=np.int32)
    sm = SuperpixelMap(2, 2, labels, 4)
    mask = labels_to_mask(np.array([1, 0, 0, 1]), sm)
    assert np.array_equal(mask, [[1, 0], [0, 1]])
