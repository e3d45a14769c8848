"""Image I/O, superpixel decomposition, and per-superpixel features.

Everything downstream runs on the graph produced here: nodes are
superpixels carrying L1-normalized intensity histograms, edges connect
superpixels that share a pixel boundary and carry a boundary strength
in [0, 1] derived from the Sobel gradient along that boundary.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


class UnsupportedMagicError(DataError):
    """File is not a binary PGM (P5) or PPM (P6)."""


class MalformedHeaderError(DataError):
    """Header fields missing, non-numeric, or out of range."""


class TruncatedDataError(DataError):
    """Pixel payload shorter than the header promises."""


class SuperpixelTargetError(DataError, ValueError):
    """Superpixel target outside [1, the image's pixel count]."""


HIST_BINS = 8
FEATURE_DIM = 3 * HIST_BINS

# Intensity scale of the SLIC-style distance; spatial distances are
# normalized by the grid interval, intensities (range [0,1]) by this.
_INTENSITY_SCALE = 0.2
_KMEANS_ITERS = 10
# window elements evaluated per block of seed-grid rows (at least one row)
_KMEANS_BLOCK = 1 << 16
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
            raise MalformedHeaderError("incomplete header: missing size/maxval fields")
        if not token.isdigit():
            raise MalformedHeaderError(f"non-numeric header token {token!r}")
        fields.append(int(token))
    if pos >= len(buf):
        raise MalformedHeaderError("missing whitespace after maxval")
    pos += 1  # single whitespace byte separates header from payload
    return fields[0], fields[1], fields[2], pos


def load_image(path) -> Image:
    """Decode a binary PGM (P5) or PPM (P6) file, scaling values to [0, 1].

    Bytes after the raster are ignored: Netpbm allows several images in
    one file, and this reads the first.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:2]
    if magic not in (b"P5", b"P6"):
        raise UnsupportedMagicError(f"unsupported magic number {magic!r}")
    width, height, maxval, offset = _parse_netpbm_header(buf)
    if width <= 0 or height <= 0:
        raise MalformedHeaderError("non-positive image dimensions")
    if not 0 < maxval <= 255:
        raise MalformedHeaderError(f"maxval {maxval} outside (0, 255]")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = buf[offset : offset + need]
    if len(payload) < need:
        raise TruncatedDataError(
            f"expected {need} pixel bytes, found {len(payload)}"
        )
    samples = np.frombuffer(payload, dtype=np.uint8)
    if maxval < 255 and samples.max() > maxval:
        raise DataError(f"{path}: sample {samples.max()} above maxval {maxval}")
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

def compute_superpixels(img: Image, target_count: int) -> SuperpixelMap:
    """Grid-seeded SLIC-style clustering in (x, y, intensity) space.

    Runs a fixed number of k-means iterations from a regular seed grid,
    then enforces 4-connectivity by merging stray components into their
    best neighbor. Deterministic for fixed inputs; the final count n lies
    in [1, 4 * target_count]. With zero image gradient the result reduces
    to nearest-seed (Voronoi) blocks. A target outside [1, pixel count]
    raises SuperpixelTargetError, both a DataError and a ValueError.
    """
    w, h = img.width, img.height
    if not 1 <= target_count <= w * h:
        raise SuperpixelTargetError(
            f"superpixel target {target_count} outside [1, {w * h}] "
            f"for a {w}x{h} image"
        )
    assign = _kmeans_assign(img.intensity(), target_count)
    min_size = max(1, (w * h) // (4 * target_count))
    labels, n = _enforce_connectivity(assign, min_size, 4 * target_count)
    return SuperpixelMap(w, h, labels, n)


def _kmeans_assign(intensity: np.ndarray, target_count: int) -> np.ndarray:
    """Centre index of every pixel after the k-means iterations.

    Each centre scans a window of +-reach pixels (reach = ceil(2 grid
    intervals)) around its anchor, the centre truncated toward zero. A
    pixel takes, among the centres whose window covers it, the one with
    the smallest distance d2 = (dx*dx + dy*dy) / interval**2 + di*di, and
    the lowest index among equal d2. Pixels outside every window take the
    globally nearest centre.

    Every iteration evaluates the windows cropped to +-c pixels around
    their anchors (`_window_pass`), c = `_crop(interval)`, one grid
    interval as SLIC searches. The target is at most the pixel count, so
    interval >= 1 and 1 <= c < reach. Let B_p be the smallest d2 the
    cropped windows give pixel p. The crop drops a covering centre for p
    only when its anchor is more than c pixels from p in x or y; then its
    centre is too (the anchor is the centre rounded down), so its spatial
    term exceeds (c / interval)**2. So when B_p is at most ((c -
    _NEED_MARGIN) / interval)**2, the cropped windows found p's winner,
    with the lowest index among equal d2: the margin dwarfs the rounding
    of both bounds, and a computed d2 is at least its computed spatial
    term (both terms are non-negative and rounding is monotone), so a
    dropped centre can neither beat B_p nor tie with it. This holds for
    any crop, which moves only work, never a label. Pixels above the
    bound, and pixels no cropped window covers (B_p = inf), are decided
    again against all the windows covering them (`_full_pass`).
    """
    h, w = intensity.shape
    interval = math.sqrt(w * h / target_count)
    rows = max(1, round(h / interval))
    cols = max(1, round(w / interval))

    cy = (np.arange(rows) + 0.5) * h / rows - 0.5
    cx = (np.arange(cols) + 0.5) * w / cols - 0.5
    centers_y, centers_x = [a.ravel() for a in np.meshgrid(cy, cx, indexing="ij")]
    iy = np.clip(np.rint(centers_y).astype(int), 0, h - 1)
    ix = np.clip(np.rint(centers_x).astype(int), 0, w - 1)
    centers_i = intensity[iy, ix]
    n_centers = len(centers_x)
    centers = (centers_x, centers_y, centers_i)

    pixel_x = np.tile(np.arange(w, dtype=np.float64), h)
    pixel_y = np.repeat(np.arange(h, dtype=np.float64), w)
    pixel_i = intensity.ravel()
    pixels = (pixel_x, pixel_y, pixel_i)
    scale2 = interval * interval
    reach = math.ceil(2 * interval)
    crop = _crop(interval)
    proven = ((crop - _NEED_MARGIN) / interval) ** 2

    padded = np.pad(intensity, reach).ravel()
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
        assign, best = _window_pass(padded, (h, w), centers, cols, scale2, reach, crop)
        flat = assign.ravel()
        redo = np.flatnonzero(best.ravel() > proven)
        flat[redo] = _full_pass(redo, pixels, centers, (cy, cx), scale2, reach, (h, w))
    return assign


def _crop(interval):
    """Half-width of the evaluated windows, one grid interval rounded; a
    function of its own so that tests can force another crop."""
    return round(interval)


def _window_pass(padded, shape, centers, cols, scale2, reach, crop):
    """Each pixel's winner among the windows cropped to +-crop pixels, and
    its d2 (-1 and inf where none covers it).

    The rule does not depend on the order the centres are visited, so
    blocks of whole seed-grid rows are evaluated at once. Every window of
    a block is gathered from the image padded by reach (`padded`, raveled:
    pixel (y, x) sits at (y + reach, x + reach), so every window lies
    inside; the padding is never read back), and d2 is the same float
    expression as a one-centre-at-a-time loop, so each d2 is bit-equal. A
    band buffer over the block's rows keeps per pixel the smallest d2
    (`np.minimum.at`), then the first entry equal to it (entries run
    centre by centre, so the lowest index). Blocks merge in ascending
    index with a strict `<`, so a tie stays with the earlier, lower-index
    block.
    """
    h, w = shape
    center_x, center_y, center_i = centers
    rows = len(center_x) // cols
    # windows are anchored at the centre truncated toward zero
    base_x = center_x.astype(int)
    base_y = center_y.astype(int)
    pw = w + 2 * reach
    assign = np.full((h, w), -1, dtype=np.int32)
    dist = np.full((h, w), np.inf)
    # band buffers span the padded image but a block touches only its band
    band_d2 = np.empty((h + 2 * reach) * pw)
    band_at = np.empty((h + 2 * reach) * pw, dtype=np.intp)
    side = 2 * crop + 1
    full = side * side
    block_rows = max(1, _KMEANS_BLOCK // (cols * full))
    most = min(rows, block_rows) * cols * full
    d2_buf = np.empty(most)
    win_buf = np.empty(most)
    idx_buf = np.empty(most, dtype=np.intp)
    tie_buf = np.empty(most, dtype=bool)
    offs = np.arange(-crop, crop + 1)
    square = np.arange(side)[:, None] * pw + np.arange(side)
    for r in range(0, rows, block_rows):
        k0, k1 = r * cols, min(rows, r + block_rows) * cols
        by, bx = base_y[k0:k1], base_x[k0:k1]
        y_lo, y_hi = int(by.min()), int(by.max())
        windows = (k1 - k0, side, side)
        size = (k1 - k0) * full
        # the same expression as `_d2`, made separable and in place
        dx = (bx[:, None] + offs).astype(np.float64)
        dx -= center_x[k0:k1, None]
        dx *= dx
        dy = (by[:, None] + offs).astype(np.float64)
        dy -= center_y[k0:k1, None]
        dy *= dy
        d2 = d2_buf[:size].reshape(windows)
        np.add(dy[:, :, None], dx[:, None, :], out=d2)
        d2 /= scale2
        # band: padded rows top .. top + n_band - 1, full padded width
        top = y_lo + reach - crop
        n_band = y_hi - y_lo + side
        idx = idx_buf[:size].reshape(windows)
        np.add(((by - y_lo) * pw + bx + reach - crop)[:, None, None], square, out=idx)
        di = win_buf[:size].reshape(windows)
        # every index is in range: "clip" only spares take's buffered copy
        np.take(padded[top * pw:], idx, out=di, mode="clip")
        di -= center_i[k0:k1, None, None]
        di /= _INTENSITY_SCALE
        di *= di
        d2 += di
        # per band pixel the smallest d2, then the first entry holding
        # it; entries run centre by centre, so that is the lowest index
        bd = band_d2[:n_band * pw]
        at = band_at[:n_band * pw]
        bd.fill(np.inf)
        at.fill(size)
        idx, d2 = idx.ravel(), d2.ravel()
        np.minimum.at(bd, idx, d2)
        np.take(bd, idx, out=win_buf[:size], mode="clip")
        tie = np.equal(d2, win_buf[:size], out=tie_buf[:size])
        hit = np.flatnonzero(tie)
        np.minimum.at(at, idx[hit], hit)
        # merge the band's image rows, lower-index blocks keeping ties
        y0 = max(0, top - reach)
        y1 = min(h, top - reach + n_band)
        r0 = y0 + reach - top
        band_dist = bd.reshape(n_band, pw)[r0:r0 + y1 - y0, reach:reach + w]
        winner = at.reshape(n_band, pw)[r0:r0 + y1 - y0, reach:reach + w]
        winner //= full
        winner += k0
        closer = band_dist < dist[y0:y1]
        np.copyto(dist[y0:y1], band_dist, where=closer)
        np.copyto(assign[y0:y1], winner, where=closer, casting="same_kind")
    return assign, dist


def _full_pass(at, pixels, centers, grid, scale2, reach, shape):
    """Winner of each raveled pixel in `at` among all the windows that
    cover it, by the same d2 and tie rule (the globally nearest centre if
    none does).

    grid = (ys, xs) holds the seed rows and columns, ascending: centre k
    was seeded at (ys[k // len(xs)], xs[k % len(xs)]). Every anchor lies
    within the largest anchor-to-seed distance of its seed, per axis, so
    the windows covering a pixel belong to seeds within reach plus that
    distance of it: a rectangle of the grid. Read row by row, its centres
    run in ascending index, so argmin takes the lowest; rows and columns
    past the grid's edge are clamped, which repeats them and keeps that.
    """
    grid_y, grid_x = grid
    cols = len(grid_x)
    winner = np.empty(len(at), dtype=np.int32)
    best = np.empty(len(at))
    if not at.size:
        return winner
    anchor_x, anchor_y = centers[0].astype(int), centers[1].astype(int)
    span_y = reach + np.abs(anchor_y.reshape(-1, cols) - grid_y[:, None]).max() + _NEED_MARGIN
    span_x = reach + np.abs(anchor_x.reshape(-1, cols) - grid_x).max() + _NEED_MARGIN
    y, x = np.divmod(at, shape[1])
    r0 = np.searchsorted(grid_y, y - span_y)
    c0 = np.searchsorted(grid_x, x - span_x)
    nr = max(1, int((np.searchsorted(grid_y, y + span_y, side="right") - r0).max()))
    nc = max(1, int((np.searchsorted(grid_x, x + span_x, side="right") - c0).max()))
    r = np.minimum(r0[:, None] + np.arange(nr), len(grid_y) - 1)
    r *= cols
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
        rows = np.arange(len(p))
        winner[s:s + step] = near[rows, col]
        best[s:s + step] = d2[rows, col]
    missing = best == np.inf
    if missing.any():
        d2 = _d2([v[at[missing], None] for v in pixels], centers, slice(None), scale2)
        winner[missing] = np.argmin(d2, axis=1)
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
    """Split the assignment into 4-connected components, then merge
    undersized components (and any surplus beyond max_count) into the
    adjacent component sharing the longest boundary.

    Components are numbered in raster order of their first pixel; a merged
    component keeps the number of the one it merged into. The merges
    follow this order, which fixes the result:

    - first the components smaller than min_size, then, while more than
      max_count components remain, any component (the surplus);
    - within a phase the next component merged is the smallest by
      (size, number) among the eligible ones that have a neighbour;
    - it merges into the neighbour with the longest shared boundary,
      ties going to the lower number;
    - a phase stops when no eligible component has a neighbour left.

    Returns (labels, n): int32 ids 0..n-1 in raster order of first
    appearance.
    """
    comp, ncomp = _label_components(assign)
    sizes = np.bincount(comp.ravel(), minlength=ncomp).tolist()
    if min(sizes) >= min_size and ncomp <= max_count:
        return comp, ncomp
    # per component, the number of pixel pairs it shares with each neighbour
    contact: list[dict[int, int]] = [{} for _ in range(ncomp)]
    pairs, lengths, _ = _label_pairs(comp, ncomp)
    for lo, hi, length in zip(*pairs.T.tolist(), lengths.tolist()):
        contact[lo][hi] = length
        contact[hi][lo] = length
    parent = np.arange(ncomp)
    alive = ncomp

    def merge_phase(heap, below, limit):
        """Merge by the contract while `heap` holds entries and more
        than `limit` components remain; a component stays eligible while
        its size is below `below`. Entries are (size, id); one goes stale
        when its component grows or is merged away (size 0)."""
        nonlocal alive
        heapq.heapify(heap)
        while heap and alive > limit:
            size, src = heapq.heappop(heap)
            nbrs = contact[src]
            if size != sizes[src] or not nbrs:
                continue
            # the longest boundary, ties to the lower number
            longest = dst = -1
            for nbr, length in nbrs.items():
                if length > longest or (length == longest and nbr < dst):
                    longest, dst = length, nbr
            parent[src] = dst
            sizes[dst] += size
            sizes[src] = 0
            contact[src] = {}
            alive -= 1
            into = contact[dst]
            del into[src]
            for nbr, length in nbrs.items():
                if nbr != dst:
                    into[nbr] = into.get(nbr, 0) + length
                    other = contact[nbr]
                    del other[src]
                    other[dst] = other.get(dst, 0) + length
            if sizes[dst] < below:
                heapq.heappush(heap, (sizes[dst], dst))

    merge_phase([(s, c) for c, s in enumerate(sizes) if s < min_size], min_size, 1)
    if alive > max_count:  # else the surplus phase could pop nothing
        merge_phase([(s, c) for c, s in enumerate(sizes) if s], math.inf, max_count)

    # resolve merge chains, then renumber groups by their first pixel:
    # component ids are already in raster order, so a group's first
    # appearance is that of its lowest member id
    while True:
        root = parent[parent]
        if np.array_equal(root, parent):
            break
        parent = root
    _, first = np.unique(parent, return_index=True)
    new_id = np.empty(ncomp, dtype=np.int32)
    new_id[parent[np.sort(first)]] = np.arange(len(first), dtype=np.int32)
    return new_id[parent][comp], len(first)


def _label_components(assign: np.ndarray):
    """4-connected regions of equal value, numbered 0..n-1 in raster order
    of their first pixel (the order a raster-scan flood fill finds them).

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
    h, w = assign.shape
    start = np.ones((h, w), dtype=bool)
    np.not_equal(assign[:, 1:], assign[:, :-1], out=start[:, 1:])
    run = np.cumsum(start, dtype=np.intp).reshape(h, w)
    run -= 1
    n = int(run[-1, -1]) + 1
    same = assign[1:] == assign[:-1]
    first = same.copy()
    first[:, 1:] &= ~same[:, :-1] | start[1:, 1:]
    # joins in raster order: lower runs ascend, and each lower run's upper
    # runs ascend, so its first join names its smallest upper neighbour
    upper, lower = run[:-1][first], run[1:][first]
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
    and summed, left-right, then top-bottom, each in raster order.
    """
    keys, means = [], []
    for a, b in ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1], np.s_[1:])):
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
    base = labels * FEATURE_DIM
    hist = np.zeros(n * FEATURE_DIM)
    for ch in range(3):
        hist += np.bincount(base + ch * HIST_BINS + binned[:, ch % channels],
                            minlength=n * FEATURE_DIM)
    hist = hist.reshape(n, 3, HIST_BINS)
    block_sums = hist.sum(axis=2, keepdims=True)
    np.divide(hist, block_sums, out=hist, where=block_sums > 0)
    return hist.reshape(n, FEATURE_DIM)


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
