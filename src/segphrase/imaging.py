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
_KMEANS_BLOCK = 1 << 15


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
    """Return (magic, width, height, maxval, payload_offset)."""
    if len(buf) < 2:
        raise MalformedHeaderError("file too short for a magic number")
    magic = buf[:2].decode("ascii", errors="replace")
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
    return magic, fields[0], fields[1], fields[2], pos


def load_image(path) -> Image:
    """Decode a binary PGM (P5) or PPM (P6) file, scaling values to [0, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) >= 2 and buf[:1] == b"P" and buf[:2] not in (b"P5", b"P6"):
        raise UnsupportedMagicError(f"unsupported magic number {buf[:2]!r}")
    magic, width, height, maxval, offset = _parse_netpbm_header(buf)
    if magic not in ("P5", "P6"):
        raise UnsupportedMagicError(f"unsupported magic number {magic!r}")
    if width <= 0 or height <= 0:
        raise MalformedHeaderError("non-positive image dimensions")
    if not 0 < maxval <= 255:
        raise MalformedHeaderError(f"maxval {maxval} outside (0, 255]")
    channels = 1 if magic == "P5" else 3
    need = width * height * channels
    payload = buf[offset : offset + need]
    if len(payload) < need:
        raise TruncatedDataError(
            f"expected {need} pixel bytes, found {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / maxval
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

    The rule does not depend on the order the centres are visited, so
    each iteration evaluates blocks of whole seed-grid rows at once. Every
    window of a block is gathered from the image padded by reach, and d2
    is the same float expression as a one-centre-at-a-time loop, so each
    d2 is bit-equal. A band buffer over the block's rows keeps per pixel
    the smallest d2 (`np.minimum.at`), then the first entry equal to it
    (entries run centre by centre, so the lowest index). Blocks merge in
    ascending index with a strict `<`, so a tie stays with the earlier,
    lower-index block.

    From the second iteration on, a block's windows are cropped by an
    exact bound. Let U_p be d2 from pixel p to the centre p took last
    iteration, at that centre's new position, and U the largest U_p over
    the rows the block's windows reach. A computed d2 is at least its
    computed spatial term: both terms are non-negative and rounding is
    monotone. A window pixel more than c = ceil(sqrt(U) * interval) + 1
    from the anchor in x or y is more than c from the centre (the anchor
    is the centre rounded down), a full pixel beyond sqrt(U) intervals,
    which dwarfs any rounding, so its spatial term exceeds U. If p's
    previous centre still covers p, p's winning d2 is at most U_p <= U, so
    that window pixel can neither win nor tie. If it no longer covers p,
    p is more than reach from it in x or y, so U_p is at least
    reach**2 / interval**2, c exceeds reach and nothing is cropped.
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

    pixel_x = np.tile(np.arange(w, dtype=np.float64), h)
    pixel_y = np.repeat(np.arange(h, dtype=np.float64), w)
    pixel_i = intensity.ravel()
    scale2 = interval * interval
    reach = max(1, int(math.ceil(2 * interval)))
    # padded coordinates: pixel (y, x) sits at (y + reach, x + reach), so
    # every window lies inside; values in the padding are never read back
    pw = w + 2 * reach
    padded = np.pad(intensity, reach).ravel()
    assign = np.empty((h, w), dtype=np.int32)
    flat = assign.ravel()
    dist = np.empty((h, w))
    # band buffers span the padded image but a block touches only its band
    band_d2 = np.empty((h + 2 * reach) * pw)
    band_at = np.empty((h + 2 * reach) * pw, dtype=np.intp)
    full = (2 * reach + 1) ** 2
    block_rows = max(1, _KMEANS_BLOCK // (cols * full))
    blocks = [(r * cols, min(rows, r + block_rows) * cols)
              for r in range(0, rows, block_rows)]
    most = min(rows, block_rows) * cols * full
    d2_buf = np.empty(most)
    win_buf = np.empty(most)
    idx_buf = np.empty(most, dtype=np.intp)
    tie_buf = np.empty(most, dtype=bool)
    row_bound = None

    for it in range(_KMEANS_ITERS):
        # windows are anchored at the centre truncated toward zero
        base_x = centers_x.astype(int)
        base_y = centers_y.astype(int)
        if it:
            row_bound = _row_bounds(
                assign, (centers_x, centers_y, centers_i),
                (pixel_x, pixel_y, pixel_i), scale2, dist, band_d2[:h * w],
            )
        dist.fill(np.inf)
        assign.fill(-1)
        for k0, k1 in blocks:
            by, bx = base_y[k0:k1], base_x[k0:k1]
            y_lo, y_hi = int(by.min()), int(by.max())
            crop = reach if row_bound is None else _window_crop(
                float(row_bound[max(0, y_lo - reach):y_hi + reach + 1].max()),
                interval, reach,
            )
            side = 2 * crop + 1
            shape = (k1 - k0, side, side)
            size = shape[0] * side * side
            # d2 in the scalar loop's order: (dx*dx + dy*dy) / scale2 + di*di
            offs = np.arange(-crop, crop + 1)
            dx = (bx[:, None] + offs).astype(np.float64)
            dx -= centers_x[k0:k1, None]
            dx *= dx
            dy = (by[:, None] + offs).astype(np.float64)
            dy -= centers_y[k0:k1, None]
            dy *= dy
            d2 = d2_buf[:size].reshape(shape)
            np.add(dy[:, :, None], dx[:, None, :], out=d2)
            d2 /= scale2
            # band: padded rows top .. top + n_band - 1, full padded width
            top = y_lo + reach - crop
            n_band = y_hi - y_lo + side
            idx = idx_buf[:size].reshape(shape)
            np.add(((by - y_lo) * pw + bx + reach - crop)[:, None, None],
                   np.arange(side)[:, None] * pw + np.arange(side), out=idx)
            di = win_buf[:size].reshape(shape)
            # every index is in range: "clip" only spares take's buffered copy
            np.take(padded[top * pw:], idx, out=di, mode="clip")
            di -= centers_i[k0:k1, None, None]
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
            winner //= side * side
            winner += k0
            closer = band_dist < dist[y0:y1]
            np.copyto(dist[y0:y1], band_dist, where=closer)
            np.copyto(assign[y0:y1], winner, where=closer, casting="same_kind")
        # pixels outside every search window: assign to globally nearest seed
        missing = np.flatnonzero(flat < 0)
        if missing.size:
            mx, my, mi = pixel_x[missing], pixel_y[missing], pixel_i[missing]
            d2 = (
                (mx[:, None] - centers_x) ** 2 + (my[:, None] - centers_y) ** 2
            ) / scale2 + (
                (mi[:, None] - centers_i) / _INTENSITY_SCALE
            ) ** 2
            flat[missing] = np.argmin(d2, axis=1)
        # x/y sums are sums of integers, hence exact; the intensity sums
        # run in raster order, so means may differ from a pairwise sum in
        # the last ulp
        counts = np.bincount(flat, minlength=n_centers)
        used = counts > 0
        for centers, values in ((centers_x, pixel_x), (centers_y, pixel_y), (centers_i, pixel_i)):
            sums = np.bincount(flat, weights=values, minlength=n_centers)
            centers[used] = sums[used] / counts[used]
    return assign


def _row_bounds(assign, centers, pixels, scale2, out, tmp):
    """Per image row, the largest d2 of a pixel to the centre `assign`
    gives it, by the windows' float expression.

    centers are (x, y, intensity) per centre and pixels the same per
    pixel, raveled; out is an (h, w) buffer and tmp an (h * w,) one.
    """
    (center_x, center_y, center_i), (pixel_x, pixel_y, pixel_i) = centers, pixels
    flat, d2 = assign.ravel(), out.ravel()
    np.take(center_x, flat, out=d2, mode="clip")
    np.subtract(pixel_x, d2, out=d2)
    d2 *= d2
    np.take(center_y, flat, out=tmp, mode="clip")
    np.subtract(pixel_y, tmp, out=tmp)
    tmp *= tmp
    d2 += tmp
    d2 /= scale2
    np.take(center_i, flat, out=tmp, mode="clip")
    np.subtract(pixel_i, tmp, out=tmp)
    tmp /= _INTENSITY_SCALE
    tmp *= tmp
    d2 += tmp
    return out.max(axis=1)


def _window_crop(bound: float, interval: float, reach: int) -> int:
    """Half-width, around the anchor, of the window part that can hold a
    winner or a tie, `bound` being the largest d2 from a pixel the
    windows reach to its previous centre (see `_kmeans_assign`)."""
    return min(reach, math.ceil(math.sqrt(bound) * interval) + 1)


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
    contact = _boundary_lengths(comp, ncomp)
    parent = np.arange(ncomp)
    alive = ncomp

    def merge_phase(heap, eligible, limit):
        """Merge by the contract while `heap` holds entries and more
        than `limit` components remain. Entries are (size, id); one goes
        stale when its component grows or is merged away (size 0)."""
        nonlocal alive
        heapq.heapify(heap)
        while heap and alive > limit:
            size, src = heapq.heappop(heap)
            nbrs = contact[src]
            if size != sizes[src] or not nbrs:
                continue
            dst = max(nbrs, key=lambda c: (nbrs[c], -c))
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
            if eligible(sizes[dst]):
                heapq.heappush(heap, (sizes[dst], dst))

    merge_phase([(s, c) for c, s in enumerate(sizes) if s < min_size],
                lambda size: size < min_size, 1)
    merge_phase([(s, c) for c, s in enumerate(sizes) if s],
                lambda size: True, max_count)

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

    Every pixel starts with its own raster index; taking the minimum
    across equal-valued neighbours and jumping to the label's own label
    repeats until nothing changes, which leaves each region labelled with
    its first pixel. Labels only decrease, so an unchanged sum means a
    fixed point.
    """
    h, w = assign.shape
    flat = np.arange(h * w, dtype=np.int32)
    lab = flat.reshape(h, w)
    same_x = assign[:, 1:] == assign[:, :-1]
    same_y = assign[1:] == assign[:-1]
    total = -1
    while True:
        np.minimum(lab[:, 1:], lab[:, :-1], out=lab[:, 1:], where=same_x)
        np.minimum(lab[:, :-1], lab[:, 1:], out=lab[:, :-1], where=same_x)
        np.minimum(lab[1:], lab[:-1], out=lab[1:], where=same_y)
        np.minimum(lab[:-1], lab[1:], out=lab[:-1], where=same_y)
        np.take(flat, flat, out=flat, mode="clip")
        new_total = int(flat.sum(dtype=np.int64))
        if new_total == total:
            break
        total = new_total
    first = flat == np.arange(h * w, dtype=np.int32)
    ids = np.cumsum(first, dtype=np.int32)
    ids -= 1
    return ids[lab], int(ids[-1]) + 1


def _boundary_lengths(comp: np.ndarray, ncomp: int) -> list[dict[int, int]]:
    """Per component, the number of 4-adjacent pixel pairs it shares with
    each neighbouring component."""
    keys = []
    for a, b in ((comp[:, :-1], comp[:, 1:]), (comp[:-1], comp[1:])):
        diff = a != b
        a, b = a[diff], b[diff]
        keys.append(np.minimum(a, b).astype(np.int64) * ncomp + np.maximum(a, b))
    pairs, lengths = np.unique(np.concatenate(keys), return_counts=True)
    contact: list[dict[int, int]] = [{} for _ in range(ncomp)]
    for lo, hi, length in zip((pairs // ncomp).tolist(), (pairs % ncomp).tolist(), lengths.tolist()):
        contact[lo][hi] = length
        contact[hi][lo] = length
    return contact


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


def extract_features(img: Image, smap: SuperpixelMap) -> SuperpixelGraph:
    """Per-superpixel histograms plus the boundary-weighted adjacency.

    Descriptors are HIST_BINS-bin intensity histograms per channel
    (grayscale is expanded to three identical channels, so D =
    FEATURE_DIM = 24), each block L1-normalized. boundary_prob of an edge
    is the mean Sobel gradient magnitude over the pixels incident to the
    shared boundary, clamped to [0, 1].
    """
    if (img.height, img.width) != (smap.height, smap.width):
        raise ValueError("superpixel map does not match image dimensions")
    h, w, n = img.height, img.width, smap.n
    bins, dim = HIST_BINS, FEATURE_DIM
    data = img.data if img.channels == 3 else np.repeat(img.data, 3, axis=2)
    labels = smap.labels

    binned = np.minimum((data * bins).astype(np.int64), bins - 1)
    features = np.zeros((n, dim))
    for ch in range(3):
        idx = labels.ravel() * dim + ch * bins + binned[:, :, ch].ravel()
        counts = np.bincount(idx, minlength=n * dim)
        features += counts.reshape(n, dim)
    features = features.reshape(n, 3, bins)
    block_sums = features.sum(axis=2, keepdims=True)
    np.divide(features, block_sums, out=features, where=block_sums > 0)
    features = features.reshape(n, dim)

    areas = np.bincount(labels.ravel(), minlength=n).astype(np.int64)
    xs, ys = np.meshgrid(np.arange(w), np.arange(h))
    cx = np.bincount(labels.ravel(), weights=(xs + 0.5).ravel(), minlength=n) / areas
    cy = np.bincount(labels.ravel(), weights=(ys + 0.5).ravel(), minlength=n) / areas
    centroids = np.column_stack([cx, cy])

    grad = _sobel_magnitude(img.intensity())
    pair_lo, pair_hi, pair_val = [], [], []
    for la, lb, ga, gb in (
        (labels[:, :-1], labels[:, 1:], grad[:, :-1], grad[:, 1:]),
        (labels[:-1, :], labels[1:, :], grad[:-1, :], grad[1:, :]),
    ):
        diff = la != lb
        lo = np.minimum(la[diff], lb[diff])
        hi = np.maximum(la[diff], lb[diff])
        pair_lo.append(lo)
        pair_hi.append(hi)
        pair_val.append(0.5 * (ga[diff] + gb[diff]))
    lo = np.concatenate(pair_lo)
    hi = np.concatenate(pair_hi)
    val = np.concatenate(pair_val)

    if lo.size:
        key = lo.astype(np.int64) * n + hi
        uniq, inverse = np.unique(key, return_inverse=True)
        sums = np.bincount(inverse, weights=val, minlength=len(uniq))
        counts = np.bincount(inverse, minlength=len(uniq))
        edges = np.column_stack([uniq // n, uniq % n]).astype(np.int32)
        boundary = np.clip(sums / counts, 0.0, 1.0)
    else:
        edges = np.empty((0, 2), dtype=np.int32)
        boundary = np.empty(0)

    return SuperpixelGraph(smap, features, edges, boundary, areas, centroids)


def labels_to_mask(labeling: np.ndarray, smap: SuperpixelMap) -> np.ndarray:
    """Lift a per-superpixel binary labeling to the pixel grid."""
    labeling = np.asarray(labeling).astype(np.uint8)
    if labeling.shape != (smap.n,):
        raise ValueError("labeling length does not match superpixel count")
    return labeling[smap.labels]
