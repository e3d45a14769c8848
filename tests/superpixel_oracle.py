"""Reference superpixel decomposition: the original per-centre k-means
update and per-pixel BFS connectivity pass, kept verbatim so tests can
check the vectorised `segphrase.imaging` code against it label for label.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np

from segphrase.imaging import _INTENSITY_SCALE, _KMEANS_ITERS, Image, SuperpixelMap


def compute_superpixels(img: Image, target_count: int) -> SuperpixelMap:
    """Grid-seeded SLIC-style clustering in (x, y, intensity) space.

    Runs a fixed number of k-means iterations from a regular seed grid,
    then enforces 4-connectivity by merging stray components into their
    best neighbor. Deterministic for fixed inputs; the final count n lies
    in [1, 4 * target_count]. With zero image gradient the result reduces
    to nearest-seed (Voronoi) blocks.
    """
    w, h = img.width, img.height
    if not 1 <= target_count <= w * h:
        raise ValueError(f"target_count must be in [1, {w * h}]")

    intensity = img.intensity()
    interval = math.sqrt(w * h / target_count)
    rows = max(1, round(h / interval))
    cols = max(1, round(w / interval))

    cy = (np.arange(rows) + 0.5) * h / rows - 0.5
    cx = (np.arange(cols) + 0.5) * w / cols - 0.5
    centers_y, centers_x = [a.ravel() for a in np.meshgrid(cy, cx, indexing="ij")]
    iy = np.clip(np.rint(centers_y).astype(int), 0, h - 1)
    ix = np.clip(np.rint(centers_x).astype(int), 0, w - 1)
    centers_i = intensity[iy, ix]

    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    reach = max(1, int(math.ceil(2 * interval)))
    assign = np.zeros((h, w), dtype=np.int32)

    for _ in range(_KMEANS_ITERS):
        dist = np.full((h, w), np.inf)
        assign.fill(-1)
        for k in range(len(centers_x)):
            x0 = max(0, int(centers_x[k]) - reach)
            x1 = min(w, int(centers_x[k]) + reach + 1)
            y0 = max(0, int(centers_y[k]) - reach)
            y1 = min(h, int(centers_y[k]) + reach + 1)
            if x0 >= x1 or y0 >= y1:
                continue
            dx = xs[y0:y1, x0:x1] - centers_x[k]
            dy = ys[y0:y1, x0:x1] - centers_y[k]
            di = (intensity[y0:y1, x0:x1] - centers_i[k]) / _INTENSITY_SCALE
            d2 = (dx * dx + dy * dy) / (interval * interval) + di * di
            closer = d2 < dist[y0:y1, x0:x1]
            dist[y0:y1, x0:x1][closer] = d2[closer]
            assign[y0:y1, x0:x1][closer] = k
        # pixels outside every search window: assign to globally nearest seed
        missing = assign < 0
        if missing.any():
            mx, my, mi = xs[missing], ys[missing], intensity[missing]
            d2 = (
                (mx[:, None] - centers_x) ** 2 + (my[:, None] - centers_y) ** 2
            ) / (interval * interval) + (
                (mi[:, None] - centers_i) / _INTENSITY_SCALE
            ) ** 2
            assign[missing] = np.argmin(d2, axis=1)
        for k in range(len(centers_x)):
            sel = assign == k
            if sel.any():
                centers_x[k] = xs[sel].mean()
                centers_y[k] = ys[sel].mean()
                centers_i[k] = intensity[sel].mean()

    min_size = max(1, (w * h) // (4 * target_count))
    labels, n = _enforce_connectivity(assign, min_size, 4 * target_count)
    return SuperpixelMap(w, h, labels, n)


def _enforce_connectivity(assign: np.ndarray, min_size: int, max_count: int):
    """Split the assignment into 4-connected components, then merge
    undersized components (and any surplus beyond max_count) into the
    adjacent component sharing the longest boundary."""
    h, w = assign.shape
    comp = np.full((h, w), -1, dtype=np.int32)
    sizes = []
    ncomp = 0
    for sy in range(h):
        for sx in range(w):
            if comp[sy, sx] >= 0:
                continue
            val = assign[sy, sx]
            queue = deque([(sy, sx)])
            comp[sy, sx] = ncomp
            count = 0
            while queue:
                y, x = queue.popleft()
                count += 1
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and comp[ny, nx] < 0 and assign[ny, nx] == val:
                        comp[ny, nx] = ncomp
                        queue.append((ny, nx))
            sizes.append(count)
            ncomp += 1

    # boundary lengths between components
    contact: dict[int, Counter] = {c: Counter() for c in range(ncomp)}
    a, b = comp[:, :-1].ravel(), comp[:, 1:].ravel()
    for pa, pb in zip(a[a != b], b[a != b]):
        contact[pa][pb] += 1
        contact[pb][pa] += 1
    a, b = comp[:-1, :].ravel(), comp[1:, :].ravel()
    for pa, pb in zip(a[a != b], b[a != b]):
        contact[pa][pb] += 1
        contact[pb][pa] += 1

    parent = list(range(ncomp))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    size_of = dict(enumerate(sizes))

    def merge(src, dst):
        parent[src] = dst
        size_of[dst] += size_of.pop(src)
        for nbr, length in contact.pop(src).items():
            nbr = find(nbr)
            if nbr == dst:
                continue
            contact[dst][nbr] += length
            contact[nbr][dst] += length
            contact[nbr].pop(src, None)
        contact[dst].pop(src, None)

    def merge_one(candidates) -> bool:
        """Merge the smallest candidate into its longest-boundary neighbor."""
        mergeable = [c for c in candidates if contact[c]]
        if not mergeable:
            return False
        src = min(mergeable, key=lambda c: (size_of[c], c))
        neighbors = {find(n): l for n, l in contact[src].items() if find(n) != src}
        if not neighbors:
            return False
        dst = max(neighbors, key=lambda n: (neighbors[n], -n))
        merge(src, dst)
        return True

    while True:
        small = [c for c, s in size_of.items() if s < min_size]
        if not small or not merge_one(small):
            break
    while len(size_of) > max_count:
        if not merge_one(list(size_of)):
            break

    roots = np.array([find(c) for c in range(ncomp)], dtype=np.int32)
    comp = roots[comp]
    # contiguous ids in raster order of first appearance
    order = {}
    flat = comp.ravel()
    for v in flat:
        if v not in order:
            order[v] = len(order)
    remap = np.zeros(ncomp, dtype=np.int32)
    for old, new in order.items():
        remap[old] = new
    return remap[comp], len(order)
