"""Image I/O, superpixel decomposition, and per-superpixel features.

Everything downstream runs on the graph produced here: nodes are
superpixels carrying L1-normalized intensity histograms, edges connect
superpixels that share a pixel boundary and carry a boundary strength
in [0, 1] derived from the Sobel gradient along that boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


class SuperpixelTargetError(DataError, ValueError):
    """Superpixel target outside [1, the image's pixel count]."""


HIST_BINS = 8
FEATURE_DIM = 3 * HIST_BINS

# Intensity scale of the SLIC-style distance; spatial distances are
# normalized by the grid interval, intensities (range [0,1]) by this.
_INTENSITY_SCALE = 0.2
_KMEANS_ITERS = 10
# window entries evaluated per block of seed-grid rows (at least one row):
# about 1.2 MB at 25 bytes an entry, so that with the band buffers a block
# stays within a 2 MB L2 cache
_KMEANS_BLOCK = 3 << 14
# pixels of same-shape images that one superpixel run stacks (at least one
# image): a k-means iteration or merge round costs about the same array
# passes for a chunk as for one image, while its working set grows with it
_CHUNK_PIXELS = 1 << 13
# slack of the crop's proof bound and of `_full_pass`'s seed spans, in
# pixels: far above the rounding of a distance (a few ulps), far below a pixel
_NEED_MARGIN = 1e-6


@dataclass
class Image:
    """Decoded raster, row-major float64 values in [0, 1]."""

    width: int
    height: int
    channels: int
    data: np.ndarray  # shape (height, width, channels)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if self.data.shape != (self.height, self.width, self.channels):
            raise ValueError("image data shape does not match dimensions")
        if self.data.size and (self.data.min() < 0.0 or self.data.max() > 1.0):
            raise ValueError("image values must lie in [0, 1]")

    def intensity(self) -> np.ndarray:
        """Per-pixel mean over channels, shape (height, width)."""
        return self.data.mean(axis=2)


@dataclass
class SuperpixelMap:
    """Partition of the pixel grid into n 4-connected superpixels."""

    width: int
    height: int
    labels: np.ndarray  # shape (height, width), int32 ids in 0..n-1
    n: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if self.labels.shape != (self.height, self.width):
            raise ValueError("label map shape does not match dimensions")


@dataclass
class SuperpixelGraph:
    """Adjacency structure over superpixels with per-node descriptors.

    edges hold unordered pairs (i, j) with i < j, one row per pair of
    adjacent superpixels; boundary_prob is parallel to edges.
    """

    smap: SuperpixelMap
    features: np.ndarray       # (n, FEATURE_DIM)
    edges: np.ndarray          # (E, 2) int32, canonical i < j
    boundary_prob: np.ndarray  # (E,) in [0, 1]
    areas: np.ndarray          # (n,) pixel counts
    centroids: np.ndarray      # (n, 2) pixel-center coordinates (x, y)

    @property
    def n(self) -> int:
        return self.smap.n


# ---------------------------------------------------------------------------
# PGM / PPM I/O
# ---------------------------------------------------------------------------

def _parse_netpbm_header(buf: bytes):
    """Return (width, height, maxval, payload_offset) of the header after
    the two-byte magic."""
    pos = 2
    fields = []
    while len(fields) < 3:
        # skip whitespace and '#' comments between header tokens
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        token = buf[start:pos]
        if not token:
            raise DataError("incomplete header: missing size/maxval fields")
        if not token.isdigit():
            raise DataError(f"non-numeric header token {token!r}")
        fields.append(int(token))
    if pos >= len(buf):
        raise DataError("missing whitespace after maxval")
    pos += 1  # single whitespace byte separates header from payload
    return fields[0], fields[1], fields[2], pos


def load_image(path) -> Image:
    """Decode a binary PGM (P5) or PPM (P6) file, scaling values to [0, 1].

    Bytes after the raster are ignored: Netpbm allows several images in
    one file, and this reads the first. A malformed file is a DataError
    whose message starts with `path: `.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _decode_netpbm(buf)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _decode_netpbm(buf: bytes) -> Image:
    """The image that load_image reads from a file's bytes."""
    magic = buf[:2]
    if magic not in (b"P5", b"P6"):
        raise DataError(f"unsupported magic number {magic!r}")
    width, height, maxval, offset = _parse_netpbm_header(buf)
    if width <= 0 or height <= 0:
        raise DataError("non-positive image dimensions")
    if not 0 < maxval <= 255:
        raise DataError(f"maxval {maxval} outside (0, 255]")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = buf[offset : offset + need]
    if len(payload) < need:
        raise DataError(f"expected {need} pixel bytes, found {len(payload)}")
    samples = np.frombuffer(payload, dtype=np.uint8)
    if maxval < 255 and samples.max() > maxval:
        raise DataError(f"sample {samples.max()} above maxval {maxval}")
    arr = samples.astype(np.float64) / maxval
    return Image(width, height, channels, arr.reshape(height, width, channels))


def save_image(img: Image, path) -> None:
    """Write img as binary PGM (1 channel) or PPM (3 channels), maxval 255."""
    magic = b"P5" if img.channels == 1 else b"P6"
    payload = np.rint(img.data * 255.0).clip(0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (img.width, img.height))
        fh.write(payload.tobytes())


def save_mask_pgm(mask: np.ndarray, path) -> None:
    """Write a binary pixel mask as a 0/255 PGM."""
    mask = np.asarray(mask)
    h, w = mask.shape
    img = Image(w, h, 1, (mask > 0).astype(np.float64).reshape(h, w, 1))
    save_image(img, path)


# ---------------------------------------------------------------------------
# Superpixel decomposition
# ---------------------------------------------------------------------------

def check_superpixel_target(img: Image, target_count: int) -> None:
    """Raise SuperpixelTargetError, both a DataError and a ValueError,
    unless the target lies in [1, the image's pixel count]."""
    w, h = img.width, img.height
    if not 1 <= target_count <= w * h:
        raise SuperpixelTargetError(
            f"superpixel target {target_count} outside [1, {w * h}] "
            f"for a {w}x{h} image"
        )


def compute_superpixels(img: Image, target_count: int) -> SuperpixelMap:
    """`superpixel_maps` of one image."""
    return superpixel_maps([img], target_count)[0]


def superpixel_maps(images, target_count: int) -> list[SuperpixelMap]:
    """Grid-seeded SLIC-style clustering in (x, y, intensity) space, one
    map per image.

    Runs a fixed number of k-means iterations from a regular seed grid,
    then enforces 4-connectivity by merging stray components into their
    best neighbor. Deterministic for fixed inputs, and each map depends on
    its own image only; the final count n lies in [1, 4 * target_count].
    With zero image gradient the result reduces to nearest-seed (Voronoi)
    blocks. Every target is checked first (`check_superpixel_target`):
    the first image it does not fit raises SuperpixelTargetError.

    Images of one shape share the seed grid, so they run together, in
    chunks of at most _CHUNK_PIXELS pixels (at least one image): every
    k-means iteration and every merge round then costs one set of array
    passes per chunk instead of one per image.
    """
    for img in images:
        check_superpixel_target(img, target_count)
    maps = [None] * len(images)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, img in enumerate(images):
        by_shape.setdefault((img.height, img.width), []).append(i)
    for (h, w), members in by_shape.items():
        per_chunk = max(1, _CHUNK_PIXELS // (h * w))
        min_size = max(1, (w * h) // (4 * target_count))
        for s in range(0, len(members), per_chunk):
            chunk = members[s:s + per_chunk]
            assign = _kmeans_assign(np.stack([images[i].intensity() for i in chunk]), target_count)
            labels, counts = _enforce_connectivity(assign, min_size, 4 * target_count)
            for i, image_labels, n in zip(chunk, labels, counts):
                maps[i] = SuperpixelMap(w, h, image_labels, n)
    return maps


def _kmeans_assign(intensity: np.ndarray, target_count: int) -> np.ndarray:
    """Centre index of every pixel after the k-means iterations, for a
    stack of m same-shape images, shape (m, h, w); image j's centres are
    numbered j * (its centre count) + its own index.

    Each centre scans a window of +-reach pixels (reach = ceil(2 grid
    intervals)) around its anchor, the centre truncated toward zero. A
    pixel takes, among its image's centres whose window covers it, the
    one with the smallest distance d2 = (dx*dx + dy*dy) / interval**2 +
    di*di, and the lowest index among equal d2. Pixels outside every
    window take their image's nearest centre. Coordinates are each
    image's own, so every d2, centre and label is the one the image gets
    alone.

    Every iteration evaluates the windows cropped to a disc of radius c
    (`_window_pass`), c = `_crop(interval)`, one grid interval as SLIC
    searches: the offsets (oy, ox) from the anchor with m(oy)**2 +
    m(ox)**2 <= c**2 (`_disc`), m(o) being the least distance along one
    axis from a centre anywhere in its anchor pixel to the pixel o from
    it. The target is at most the pixel count, so interval >= 1 and 1 <= c
    < reach. Let B_p be the smallest d2 the cropped windows give pixel p.
    The crop drops a covering centre for p only when p's offset from its
    anchor lies outside the disc; then p is more than c pixels from the
    centre (the anchor is the centre rounded down, so the centre lies in
    [anchor, anchor + 1) on each axis), and its spatial term exceeds (c /
    interval)**2. So when B_p is at most ((c - _NEED_MARGIN) /
    interval)**2, the cropped windows found p's winner, with the lowest
    index among equal d2: the margin dwarfs the rounding of both bounds,
    and a computed d2 is at least its computed spatial term (both terms
    are non-negative and rounding is monotone), so a dropped centre can
    neither beat B_p nor tie with it. This holds for any crop, which moves
    only work, never a label. Pixels above the bound, and pixels no
    cropped window covers (B_p = inf), are decided again against all the
    windows covering them (`_full_pass`).

    The windows are evaluated in blocks of whole seed-grid rows of at
    most _KMEANS_BLOCK entries (at least one row), sized so that a
    block's buffers fit a 2 MB per-core L2 cache; the blocks move no
    label either.
    """
    m, h, w = intensity.shape
    interval = math.sqrt(w * h / target_count)
    rows = max(1, round(h / interval))
    cols = max(1, round(w / interval))

    cy = (np.arange(rows) + 0.5) * h / rows - 0.5
    cx = (np.arange(cols) + 0.5) * w / cols - 0.5
    seed_y, seed_x = [a.ravel() for a in np.meshgrid(cy, cx, indexing="ij")]
    iy = np.clip(np.rint(seed_y).astype(int), 0, h - 1)
    ix = np.clip(np.rint(seed_x).astype(int), 0, w - 1)
    centers_i = intensity[:, iy, ix].ravel()
    n_centers = len(centers_i)
    centers = (np.tile(seed_x, m), np.tile(seed_y, m), centers_i)

    pixel_x = np.tile(np.arange(w, dtype=np.float64), m * h)
    pixel_y = np.tile(np.repeat(np.arange(h, dtype=np.float64), w), m)
    pixel_i = intensity.ravel()
    pixels = (pixel_x, pixel_y, pixel_i)
    scale2 = interval * interval
    reach = math.ceil(2 * interval)
    crop = _crop(interval)
    proven = ((crop - _NEED_MARGIN) / interval) ** 2

    # each image padded by reach on every side, so no window leaves its image
    padded = np.pad(intensity, ((0, 0), (reach, reach), (reach, reach))).ravel()
    # the window entries of a block of whole seed-grid rows (d2, gathered
    # values, gather indices, tie flags) and, per block width, each entry's
    # centre, kept for every iteration
    kept = len(_disc(crop)[0])
    most = min(m * rows, max(1, _KMEANS_BLOCK // (cols * kept))) * cols * kept
    work = (np.empty(most), np.empty(most), np.empty(most, dtype=np.intp), np.empty(most, dtype=bool),
            {})
    for it in range(_KMEANS_ITERS):
        if it:
            # x/y sums are sums of integers, hence exact; the intensity
            # sums run in raster order, so means may differ from a
            # pairwise sum in the last ulp
            counts = np.bincount(flat, minlength=n_centers)
            used = counts > 0
            for center, values in zip(centers, pixels):
                sums = np.bincount(flat, weights=values, minlength=n_centers)
                center[used] = sums[used] / counts[used]
        assign, best = _window_pass(padded, (m, h, w), centers, cols, scale2, reach, crop, work)
        flat = assign.ravel()
        redo = np.flatnonzero(best.ravel() > proven)
        flat[redo] = _full_pass(redo, pixels, centers, (cy, cx), scale2, reach, (h, w))
    return assign.reshape(m, h, w)


def _crop(interval):
    """Half-width of the evaluated windows, one grid interval rounded; a
    function of its own so that tests can force another crop."""
    return round(interval)


def _disc(crop):
    """Window offsets (rows, cols) of the square +-crop, as indices 0 ..
    2 * crop into it, row-major: those with m(oy)**2 + m(ox)**2 <= crop**2,
    where m(o) = o - 1 for o >= 1 and -o otherwise, the least distance
    along one axis from a centre in [anchor, anchor + 1) to the pixel o
    from its anchor. A dropped offset is at least sqrt(crop**2 + 1) from
    the centre.
    """
    o = np.arange(-crop, crop + 1)
    least = np.where(o >= 1, o - 1, -o)
    return np.nonzero(least[:, None] ** 2 + least ** 2 <= crop * crop)


def _window_pass(padded, shape, centers, cols, scale2, reach, crop, work):
    """Each pixel's winner among the windows cropped to `_disc(crop)`,
    and its d2 (-1 and inf where none covers it), both of shape (m * h,
    w): the m images' rasters one after another.

    The rule does not depend on the order the centres are visited, so
    blocks of whole seed-grid rows, of one image or of several, are
    evaluated at once, as many rows as the `work` buffers hold (sized by
    `_KMEANS_BLOCK`). `padded` is the stack of images each padded by
    reach, raveled: a canvas of m slabs of h + 2 * reach rows, pixel (y,
    x) of image j at slab row y + reach, column x + reach. So every window
    lies inside its own image's slab, and the slab's offset enters only
    the gather indices. The spatial term is two row gathers, by the disc's
    rows and columns, of separable (offset, centre) tables of dy*dy and
    dx*dx: d2 is the same float expression, in the image's own
    coordinates, as a one-centre-at-a-time loop, so each d2 is bit-equal.
    A block's entries run (disc offset, centre), so the inner loops run
    over the block's centres. A band buffer over the block's canvas rows
    keeps per pixel the smallest d2 (`np.minimum.at`), then the lowest
    centre among the entries equal to it. Blocks merge in ascending index
    with a strict `<`, so a tie stays with the earlier, lower-index block.
    """
    m, h, w = shape
    center_x, center_y, center_i = centers
    n = len(center_x)
    rows = n // cols
    slab = h + 2 * reach
    pw = w + 2 * reach
    # windows are anchored at the centre truncated toward zero; anchor_y
    # is the anchor's canvas row less reach
    base_x = center_x.astype(int)
    base_y = center_y.astype(int)
    per_image = n // m
    anchor_y = base_y + np.repeat(np.arange(m) * slab, per_image)
    assign = np.full((m * h, w), -1, dtype=np.int32)
    dist = np.full((m * h, w), np.inf)
    side = 2 * crop + 1
    disc_y, disc_x = _disc(crop)
    kept = len(disc_y)
    d2_buf, win_buf, idx_buf, tie_buf, lanes = work
    block_rows = len(d2_buf) // (cols * kept)
    starts = np.arange(0, rows, block_rows) * cols
    y_lo = np.minimum.reduceat(anchor_y, starts)
    y_hi = np.maximum.reduceat(anchor_y, starts)
    # a block's band: canvas rows y_lo + reach - crop .. y_hi + reach + crop
    n_band = y_hi - y_lo + side
    band_d2 = np.empty(int(n_band.max()) * pw)
    band_at = np.empty(int(n_band.max()) * pw, dtype=np.int32)
    offs = np.arange(-crop, crop + 1)[:, None]
    disc = (disc_y * pw + disc_x)[:, None]
    for k0, lo, rows_in_band in zip(starts.tolist(), y_lo.tolist(), n_band.tolist()):
        k1 = min(n, k0 + block_rows * cols)
        nk = k1 - k0
        by, bx = base_y[k0:k1], base_x[k0:k1]
        size = kept * nk
        d2 = d2_buf[:size].reshape(kept, nk)
        win = win_buf[:size].reshape(kept, nk)
        idx = idx_buf[:size].reshape(kept, nk)
        # the same expression as `_d2`, made separable and in place
        dx = (bx + offs).astype(np.float64)
        dx -= center_x[k0:k1]
        dx *= dx
        dy = (by + offs).astype(np.float64)
        dy -= center_y[k0:k1]
        dy *= dy
        # every index is in range: "clip" only spares take's buffered copy
        np.take(dy, disc_y, axis=0, out=d2, mode="clip")
        d2 += np.take(dx, disc_x, axis=0, out=win, mode="clip")
        d2 /= scale2
        top = lo + reach - crop
        np.add((anchor_y[k0:k1] - lo) * pw + bx + reach - crop, disc, out=idx)
        di = np.take(padded[top * pw:], idx, out=win, mode="clip")
        di -= center_i[k0:k1]
        di /= _INTENSITY_SCALE
        di *= di
        d2 += di
        # per band pixel the smallest d2, then the lowest centre holding
        # it: entry (e, c) belongs to centre k0 + c, which `lanes` holds
        # per block width, raveled, so no entry's centre costs a remainder
        bd = band_d2[:rows_in_band * pw]
        at = band_at[:rows_in_band * pw]
        bd.fill(np.inf)
        at.fill(nk)
        np.minimum.at(bd, idx_buf[:size], d2_buf[:size])
        np.take(bd, idx, out=win, mode="clip")
        hit = np.flatnonzero(np.equal(d2, win, out=tie_buf[:size].reshape(kept, nk)))
        if nk not in lanes:
            lanes[nk] = np.tile(np.arange(nk, dtype=np.int32), kept)
        np.minimum.at(at, idx_buf[hit], lanes[nk][hit])
        at += k0
        # merge each image's rows of the band, lower-index blocks keeping ties
        bd, at = bd.reshape(rows_in_band, pw), at.reshape(rows_in_band, pw)
        for j in range(k0 // per_image, (k1 - 1) // per_image + 1):
            b0 = max(top, j * slab + reach)
            b1 = min(top + rows_in_band, j * slab + reach + h)
            y0 = j * h + b0 - j * slab - reach
            band_dist = bd[b0 - top:b1 - top, reach:reach + w]
            winner = at[b0 - top:b1 - top, reach:reach + w]
            closer = band_dist < dist[y0:y0 + b1 - b0]
            np.copyto(dist[y0:y0 + b1 - b0], band_dist, where=closer)
            np.copyto(assign[y0:y0 + b1 - b0], winner, where=closer, casting="same_kind")
    return assign, dist


def _full_pass(at, pixels, centers, grid, scale2, reach, shape):
    """Winner of each raveled pixel in `at` among all the windows of its
    image that cover it, by the same d2 and tie rule (the image's nearest
    centre if none does). Pixel p lies in image p // (h * w), whose
    centres follow those of the images before it.

    grid = (ys, xs) holds the seed rows and columns, ascending: an image's
    centre k was seeded at (ys[k // len(xs)], xs[k % len(xs)]). Every
    anchor lies within its image's largest anchor-to-seed distance of its
    seed, per axis, so the windows covering a pixel belong to seeds within
    reach plus that distance of it: a rectangle of the grid. Read row by
    row, its centres run in ascending index, so argmin takes the lowest;
    rows and columns past the grid's edge are clamped, which repeats them
    and keeps that.
    """
    grid_y, grid_x = grid
    h, w = shape
    rows, cols = len(grid_y), len(grid_x)
    winner = np.empty(len(at), dtype=np.int32)
    best = np.empty(len(at))
    if not at.size:
        return winner
    anchor_x, anchor_y = centers[0].astype(int), centers[1].astype(int)
    drift_y = np.abs(anchor_y.reshape(-1, rows, cols) - grid_y[:, None]).max(axis=(1, 2))
    drift_x = np.abs(anchor_x.reshape(-1, rows, cols) - grid_x).max(axis=(1, 2))
    image, local = np.divmod(at, h * w)
    y, x = np.divmod(local, w)
    span_y = reach + drift_y[image] + _NEED_MARGIN
    span_x = reach + drift_x[image] + _NEED_MARGIN
    r0 = np.searchsorted(grid_y, y - span_y)
    c0 = np.searchsorted(grid_x, x - span_x)
    nr = max(1, int((np.searchsorted(grid_y, y + span_y, side="right") - r0).max()))
    nc = max(1, int((np.searchsorted(grid_x, x + span_x, side="right") - c0).max()))
    r = np.minimum(r0[:, None] + np.arange(nr), rows - 1)
    r *= cols
    r += (image * (rows * cols))[:, None]
    c = np.minimum(c0[:, None] + np.arange(nc), cols - 1)
    table = (r[:, :, None] + c[:, None, :]).reshape(len(at), nr * nc)
    step = max(1, _KMEANS_BLOCK // (nr * nc))
    for s in range(0, len(at), step):
        p, py, px = at[s:s + step], y[s:s + step, None], x[s:s + step, None]
        near = table[s:s + step]
        out = np.abs(anchor_x[near] - px) > reach
        out |= np.abs(anchor_y[near] - py) > reach
        d2 = _d2([v[p, None] for v in pixels], centers, near, scale2)
        d2[out] = np.inf
        col = np.argmin(d2, axis=1)
        picked = np.arange(len(p))
        winner[s:s + step] = near[picked, col]
        best[s:s + step] = d2[picked, col]
    missing = np.flatnonzero(best == np.inf)
    if missing.size:
        own = (image[missing] * (rows * cols))[:, None] + np.arange(rows * cols)
        d2 = _d2([v[at[missing], None] for v in pixels], centers, own, scale2)
        winner[missing] = own[np.arange(len(missing)), np.argmin(d2, axis=1)]
    return winner


def _d2(pixels, centers, at, scale2):
    """d2 of pixels (x, y, i) to the centres at index `at`, broadcast, in
    the scalar loop's order: (dx*dx + dy*dy) / scale2 + di*di."""
    (pixel_x, pixel_y, pixel_i), (center_x, center_y, center_i) = pixels, centers
    d2 = pixel_x - center_x[at]
    d2 *= d2
    dy = pixel_y - center_y[at]
    dy *= dy
    d2 += dy
    d2 /= scale2
    di = pixel_i - center_i[at]
    di /= _INTENSITY_SCALE
    di *= di
    d2 += di
    return d2


def _enforce_connectivity(assign: np.ndarray, min_size: int, max_count: int):
    """Split each assignment of a stack (m, h, w) into 4-connected
    components, then merge undersized components (and any surplus beyond
    max_count) into the adjacent component sharing the longest boundary.

    Each image follows this contract on its own. Components are numbered
    in raster order of their first pixel; a merged component keeps the
    number of the one it merged into. The merges follow this order, which
    fixes the result:

    - first the components smaller than min_size, then, while more than
      max_count components remain, any component (the surplus);
    - within a phase the next component merged is the smallest by
      (size, number) among the eligible ones that have a neighbour;
    - it merges into the neighbour with the longest shared boundary,
      ties going to the lower number;
    - a phase stops when no eligible component has a neighbour left.

    The merges run in rounds over the stack's edge list (`_merge_round`),
    which give the same merges as one at a time. Returns (labels, counts):
    per image int32 ids 0..n-1 in raster order of first appearance, and n.
    """
    comp, ncomp = _label_components(assign)
    m = len(comp)
    # components never cross images, so each image's run of numbers
    # starts at its first pixel's
    first = comp[:, 0, 0]
    image = np.repeat(np.arange(m), np.diff(first, append=ncomp))
    sizes = np.bincount(comp.ravel(), minlength=ncomp)
    alive = np.bincount(image, minlength=m)
    groups = ncomp
    if sizes.min() < min_size or alive.max() > max_count:
        parent = np.arange(ncomp)
        pairs, contact, _ = _label_pairs(comp, ncomp)
        edges = (pairs[:, 0], pairs[:, 1], contact)
        while edges is not None and edges[0].size:
            edges = _merge_round(edges, sizes, parent, image, alive, min_size, max_count)
        # resolve merge chains, then renumber groups by their first pixel:
        # component ids are already in raster order, so a group's first
        # appearance is that of its lowest member id
        while True:
            root = parent[parent]
            if np.array_equal(root, parent):
                break
            parent = root
        _, lowest = np.unique(parent, return_index=True)
        groups = len(lowest)
        new_id = np.empty(ncomp, dtype=np.int32)
        new_id[parent[np.sort(lowest)]] = np.arange(groups, dtype=np.int32)
        comp = new_id[parent][comp]
    # each image's groups are numbered after those of the images before it
    offset = comp[:, 0, 0].copy()
    comp -= offset[:, None, None]
    return comp, np.diff(offset, append=groups).tolist()


def _merge_round(edges, sizes, parent, image, alive, min_size, max_count):
    """One round of `_enforce_connectivity`'s merges over the edge list
    (lo, hi, contact) of the live components; updates sizes (0 once
    merged away), parent, and the per-image live counts in place, and
    returns the next edge list, or None when no image merges again.

    An image is in the min-size phase while a component below min_size
    has a neighbour, else in the surplus phase while more than max_count
    components remain. Keys are (size, number). The eligible components
    are those below min_size in the min-size phase, and in the surplus
    phase the N = alive - max_count of smallest key: every merge the
    one-at-a-time order makes at a key below the (N + 1)-th smallest key
    now is of one of those N (a key only grows), so it makes all of those
    merges before it stops. Every eligible component with no eligible
    neighbour of a smaller key merges. Either way a key only grows and a
    component, once not eligible, stays so. Then such a local minimum
    keeps its size and contacts until the one-at-a-time order reaches it,
    since that order merges the smallest eligible key first and every
    eligible neighbour's key stays larger; and the merges of one round
    touch disjoint neighbourhoods, so their order does not matter.
    """
    lo, hi, contact = edges
    ncomp, m = len(sizes), len(alive)
    touching = np.zeros(ncomp, dtype=bool)
    touching[lo] = True
    touching[hi] = True
    small = touching & (sizes < min_size)
    min_phase = np.bincount(image[small], minlength=m) > 0
    surplus = ~min_phase & (alive > max_count)
    if not (min_phase.any() or surplus.any()):
        return None
    key = sizes * ncomp + np.arange(ncomp)
    eligible = small & min_phase[image]
    if surplus.any():
        live = np.flatnonzero(touching & surplus[image])
        order = live[np.lexsort((key[live], image[live]))]
        owner = image[order]
        rank = np.arange(len(order)) - np.searchsorted(owner, owner)
        eligible[order[rank < (alive - max_count)[owner]]] = True
    both = eligible[lo] & eligible[hi]
    merging = eligible.copy()
    merging[np.where(key[lo] > key[hi], lo, hi)[both]] = False
    # the longest contact, ties to the lower number
    from_lo, from_hi = merging[lo], merging[hi]
    either = from_lo | from_hi
    src = np.where(from_lo, lo, hi)[either]
    nbr = np.where(from_lo, hi, lo)[either]
    score = np.zeros(ncomp, dtype=np.int64)
    np.maximum.at(score, src, contact[either] * ncomp + (ncomp - 1 - nbr))
    src = np.flatnonzero(merging)
    dst = ncomp - 1 - score[src] % ncomp
    parent[src] = dst
    np.add.at(sizes, dst, sizes[src])
    sizes[src] = 0
    alive -= np.bincount(image[src], minlength=m)
    # relabel the edge list and sum the contacts that now join one pair;
    # edges of images that stopped are dropped
    active = min_phase | surplus
    a, b = parent[lo], parent[hi]
    keep = (a != b) & active[image[a]]
    a, b = a[keep], b[keep]
    pair, at = np.unique(np.minimum(a, b) * ncomp + np.maximum(a, b), return_inverse=True)
    contact = np.bincount(at, weights=contact[keep], minlength=len(pair)).astype(np.int64)
    return pair // ncomp, pair % ncomp, contact


def _label_components(assign: np.ndarray):
    """4-connected regions of equal value, numbered 0..n-1 in raster order
    of their first pixel (the order a raster-scan flood fill finds them).
    A stack (m, h, w) is read as its images one after another; no region
    crosses from one image into the next.

    Each row splits into runs of equal value, numbered in raster order.
    Runs in adjacent rows join where they overlap and hold the same
    value; each overlap is listed once, at its first column. The joins
    then go through a union-find as array passes. Every run points to a
    smaller-numbered run or to itself (a root). First each lower run
    points to its smallest upper neighbour, which settles that join; then,
    until every other join has both ends at one root, pointers jump to
    their target's target until none changes, and each root still joined
    to a smaller root points to the smallest. Pointers only decrease, so
    an unchanged sum means no pointer moved, and each region ends at its
    lowest run, the one that holds its first pixel.
    """
    start = np.ones(assign.shape, dtype=bool)
    np.not_equal(assign[..., 1:], assign[..., :-1], out=start[..., 1:])
    run = np.cumsum(start, dtype=np.intp).reshape(assign.shape)
    run -= 1
    n = int(run.flat[-1]) + 1
    same = assign[..., 1:, :] == assign[..., :-1, :]
    first = same.copy()
    first[..., 1:] &= ~same[..., :-1] | start[..., 1:, 1:]
    # joins in raster order: lower runs ascend, and each lower run's upper
    # runs ascend, so its first join names its smallest upper neighbour
    upper, lower = run[..., :-1, :][first], run[..., 1:, :][first]
    label = np.arange(n)
    head = np.ones(len(lower), dtype=bool)
    np.not_equal(lower[1:], lower[:-1], out=head[1:])
    label[lower[head]] = upper[head]
    # a first join's ends share a root from here on; only the rest can
    # still be open
    np.logical_not(head, out=head)
    upper, lower = upper[head], lower[head]
    total = int(label.sum())
    while True:
        while True:
            # in place: a pointer read after it jumped only jumps further;
            # every index is in range, so "clip" just spares take's buffer
            np.take(label, label, out=label, mode="clip")
            jumped = int(label.sum())
            if jumped == total:
                break
            total = jumped
        a, b = label[upper], label[lower]
        open_ = a != b
        if not open_.any():
            break
        upper, lower, a, b = upper[open_], lower[open_], a[open_], b[open_]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        total = int(label.sum())
    ids = np.cumsum(label == np.arange(n), dtype=np.int32)
    ids -= 1
    return ids[label][run], int(ids[-1]) + 1


def _label_pairs(labels: np.ndarray, n: int, values: np.ndarray | None = None):
    """(pairs, counts, sums) of a map with labels 0..n-1: each adjacent
    label pair (lo, hi), lo < hi, once, in ascending order; the number of
    4-adjacent pixel pairs across it; given per-pixel values, the sum of
    those pixel pairs' mean values (else None). Pixel pairs are taken,
    and summed, left-right, then top-bottom, each in raster order. In a
    stack (m, h, w) of maps, pixels of different maps are not adjacent.
    """
    keys, means = [], []
    for a, b in ((np.s_[..., :-1], np.s_[..., 1:]), (np.s_[..., :-1, :], np.s_[..., 1:, :])):
        la, lb = labels[a], labels[b]
        diff = la != lb
        la, lb = la[diff], lb[diff]
        keys.append(np.minimum(la, lb).astype(np.int64) * n + np.maximum(la, lb))
        if values is not None:
            means.append(0.5 * (values[a][diff] + values[b][diff]))
    keys, sums = np.concatenate(keys), None
    if values is None:  # the inverse would cost an argsort
        uniq, counts = np.unique(keys, return_counts=True)
    else:
        uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        sums = np.bincount(inverse, weights=np.concatenate(means))
    return np.column_stack([uniq // n, uniq % n]), counts, sums


# ---------------------------------------------------------------------------
# Features and boundary strengths
# ---------------------------------------------------------------------------

def _sobel_magnitude(intensity: np.ndarray) -> np.ndarray:
    """Gradient magnitude with the 3x3 Sobel kernel, replicate borders."""
    p = np.pad(intensity, 1, mode="edge")
    gx = (
        (p[:-2, 2:] + 2 * p[1:-1, 2:] + p[2:, 2:])
        - (p[:-2, :-2] + 2 * p[1:-1, :-2] + p[2:, :-2])
    )
    gy = (
        (p[2:, :-2] + 2 * p[2:, 1:-1] + p[2:, 2:])
        - (p[:-2, :-2] + 2 * p[:-2, 1:-1] + p[:-2, 2:])
    )
    return np.hypot(gx, gy)


def histograms(values: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """Per-label appearance histograms, shape (n, FEATURE_DIM).

    values holds (N, channels) pixel values in [0, 1], labels their (N,)
    int labels in 0..n-1. Each of three channels gets HIST_BINS bins, a
    grayscale channel counting as all three, and each channel's block is
    L1-normalized (all zeros for a label with no pixels).
    """
    channels = values.shape[1]
    binned = np.minimum((values * HIST_BINS).astype(np.int64), HIST_BINS - 1)
    base = labels * (channels * HIST_BINS)
    hist = np.zeros(n * channels * HIST_BINS)
    for ch in range(channels):
        hist += np.bincount(base + ch * HIST_BINS + binned[:, ch], minlength=len(hist))
    hist = hist.reshape(n, channels, HIST_BINS)
    block_sums = hist.sum(axis=2, keepdims=True)
    np.divide(hist, block_sums, out=hist, where=block_sums > 0)
    # a grayscale block is counted once and copied into the three slots
    return np.repeat(hist, 3 // channels, axis=1).reshape(n, FEATURE_DIM)


def extract_features(img: Image, smap: SuperpixelMap) -> SuperpixelGraph:
    """Per-superpixel histograms plus the boundary-weighted adjacency.

    Descriptors are the superpixels' `histograms` (D = FEATURE_DIM = 24).
    boundary_prob of an edge is the mean Sobel gradient magnitude over the
    pixels incident to the shared boundary, clamped to [0, 1].
    """
    if (img.height, img.width) != (smap.height, smap.width):
        raise ValueError("superpixel map does not match image dimensions")
    h, w, n = img.height, img.width, smap.n
    labels = smap.labels
    features = histograms(img.data.reshape(h * w, img.channels), labels.ravel(), n)

    areas = np.bincount(labels.ravel(), minlength=n).astype(np.int64)
    xs, ys = np.meshgrid(np.arange(w), np.arange(h))
    cx = np.bincount(labels.ravel(), weights=(xs + 0.5).ravel(), minlength=n) / areas
    cy = np.bincount(labels.ravel(), weights=(ys + 0.5).ravel(), minlength=n) / areas
    centroids = np.column_stack([cx, cy])

    pairs, counts, sums = _label_pairs(labels, n, _sobel_magnitude(img.intensity()))
    boundary = np.clip(sums / counts, 0.0, 1.0)
    return SuperpixelGraph(smap, features, pairs.astype(np.int32), boundary, areas, centroids)


def labels_to_mask(labeling: np.ndarray, smap: SuperpixelMap) -> np.ndarray:
    """Lift a per-superpixel binary labeling to the pixel grid."""
    labeling = np.asarray(labeling).astype(np.uint8)
    if labeling.shape != (smap.n,):
        raise ValueError("labeling length does not match superpixel count")
    return labeling[smap.labels]
