"""SLIC superpixel clustering: localized 5-D k-means over (l, a, b, x, y).

For grayscale input the chroma channels are identically zero, so centers
carry (l, x, y) only. The search for each center is bounded to a 4S x 4S
window around it, 2S on each side, S being the grid step derived from the
target cluster count. Tie-breaking is fixed everywhere (lowest label index,
row-major scan) so the labeling is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .image import to_lightness, validate_image

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class SlicParams:
    """Tunables for the superpixel clustering."""

    n_segments: int = 50
    compactness: float = 10.0  # color normalizer, on the l in [0,100] scale
    max_iters: int = 10
    # Stop once the mean center displacement is at most this many pixels;
    # otherwise max_iters bounds the loop. It ends most noiseless phantoms
    # early, while speckled ones still move more and use the whole budget.
    conv_eps: float = 0.25

    def __post_init__(self):
        if self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        if self.compactness <= 0:
            raise ValueError("compactness must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.conv_eps < 0:
            raise ValueError("conv_eps must be >= 0")


@dataclass
class SuperpixelLabeling:
    """Per-pixel cluster labels: an int array of the image shape whose values
    are dense in [0, n_labels), plus the grid step S they were clustered at.
    """

    labels: np.ndarray
    step: float
    # largest per-axis pixel-to-claiming-center offset seen during assignment;
    # bounded by the 2S search reach (plus window rounding)
    max_assign_offset: float = 0.0

    @property
    def n_labels(self) -> int:
        return int(self.labels.max()) + 1


def step_size(n_pixels: int, k: int) -> float:
    """Grid step S = sqrt(N / K)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n_pixels:
        raise ValueError(f"k={k} exceeds pixel count {n_pixels}")
    return float(np.sqrt(n_pixels / k))


def _gradient_map(l_plane: np.ndarray) -> np.ndarray:
    # (l(x+1,y)-l(x-1,y))^2 + (l(x,y+1)-l(x,y-1))^2, border pixels repeated
    p = np.pad(l_plane, 1, mode="edge")
    return (p[1:-1, 2:] - p[1:-1, :-2]) ** 2 + (p[2:, 1:-1] - p[:-2, 1:-1]) ** 2


def seed_grid(l_plane: np.ndarray, step: float) -> np.ndarray:
    """Regular-grid seeds, each nudged to the lowest-gradient pixel in its
    3x3 neighborhood (ties keep the first in row-major scan order, and a seed
    moves only to a gradient strictly below its own). Neighborhoods are
    truncated at the border.

    Returns a (K, 3) array of (l, x, y).
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    h, w = l_plane.shape
    spacing = max(1, round(step))
    offset = round(step / 2)
    padded = np.pad(_gradient_map(l_plane), 1, constant_values=np.inf)
    gy, gx = np.meshgrid(
        np.arange(min(offset, h - 1), h, spacing),
        np.arange(min(offset, w - 1), w, spacing),
        indexing="ij",
    )
    gy, gx = gy.ravel(), gx.ravel()
    dy, dx = np.divmod(np.arange(9), 3)  # 3x3 neighborhood in scan order
    ny, nx = gy[:, None] + dy, gx[:, None] + dx  # padded coordinates: +1 each
    grad = padded[ny, nx]
    best = np.argmin(grad, axis=1)
    k = np.arange(len(gy))
    moved = grad[k, best] < grad[:, 4]
    by = np.where(moved, ny[k, best] - 1, gy)
    bx = np.where(moved, nx[k, best] - 1, gx)
    return np.stack(
        [l_plane[by, bx], bx.astype(np.float64), by.astype(np.float64)], axis=1
    )


def _assign(
    l_plane: np.ndarray, centers: np.ndarray, s: float, compactness: float
) -> tuple[np.ndarray, float]:
    """One assignment pass of the localized k-means.

    Centers are visited in index order; each claims the pixels of its 4S x 4S
    window to which it is strictly closer than every earlier center, so ties
    go to the lower index. A pixel outside every window goes to the spatially
    nearest center. Returns the labels and the largest per-axis offset from a
    window-claimed pixel to its center (0.0 when no pixel was claimed).
    """
    h, w = l_plane.shape
    ax = np.arange(w, dtype=np.float64)
    ay = np.arange(h, dtype=np.float64)
    reach = 2.0 * s  # search half-width per center
    x0s = np.maximum(0, np.floor(centers[:, 1] - reach)).astype(int).tolist()
    x1s = np.minimum(w, np.ceil(centers[:, 1] + reach) + 1).astype(int).tolist()
    y0s = np.maximum(0, np.floor(centers[:, 2] - reach)).astype(int).tolist()
    y1s = np.minimum(h, np.ceil(centers[:, 2] + reach) + 1).astype(int).tolist()
    ss = s * s
    dist = np.full((h, w), np.inf)
    labels = np.full((h, w), -1, dtype=np.int32)
    for idx, (cl, cx, cy) in enumerate(centers.tolist()):
        y0, y1, x0, x1 = y0s[idx], y1s[idx], x0s[idx], x1s[idx]
        d2 = l_plane[y0:y1, x0:x1] - cl
        d2 /= compactness
        np.square(d2, out=d2)
        ds2 = (ay[y0:y1, None] - cy) ** 2 + (ax[x0:x1] - cx) ** 2
        ds2 /= ss
        d2 += ds2
        win = dist[y0:y1, x0:x1]
        better = d2 < win  # strict: earlier index wins ties
        np.minimum(win, d2, out=win)
        np.copyto(labels[y0:y1, x0:x1], idx, where=better)

    claimed = labels >= 0  # an unclaimed pixel's -1 takes the last center: masked out
    max_offset = max(
        np.abs(ax - centers[:, 1].take(labels)).max(where=claimed, initial=0.0),
        np.abs(ay[:, None] - centers[:, 2].take(labels)).max(where=claimed, initial=0.0),
    )

    # Once centers drift a pixel can fall outside every 4S window; give it
    # to the spatially nearest center so the partition invariant holds.
    oy, ox = np.nonzero(~claimed)
    d = (ox[:, None] - centers[None, :, 1]) ** 2 + (oy[:, None] - centers[None, :, 2]) ** 2
    labels[oy, ox] = np.argmin(d, axis=1)
    return labels, float(max_offset)


def slic(
    img: np.ndarray,
    params: SlicParams | None = None,
    enforce: bool = True,
) -> SuperpixelLabeling:
    """Cluster the image into superpixels and enforce label connectivity.

    ``enforce=False`` returns the raw converged assignment, where every pixel
    is within the 4S x 4S search window of its center but labels may still be
    fragmented. No pipeline stage uses it; it stays because it is the one way
    to see the assignment that connectivity enforcement starts from: the
    benchmark times enforcement as the difference of the two calls and counts
    the raw fragments, and the tests check enforcement against an oracle on
    those labels.
    """
    img = validate_image(img)
    params = params or SlicParams()
    h, w = img.shape
    s = step_size(h * w, params.n_segments)
    l_plane = to_lightness(img)
    centers = seed_grid(l_plane, max(1.0, s))

    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    max_offset = 0.0

    for _ in range(params.max_iters):
        labels, offset = _assign(l_plane, centers, s, params.compactness)
        max_offset = max(max_offset, offset)

        flat = labels.ravel()
        counts = np.bincount(flat, minlength=len(centers))
        nonempty = counts > 0
        new_centers = centers.copy()  # empty clusters keep their coordinates
        for j, plane in enumerate((l_plane, xs, ys)):
            sums = np.bincount(flat, weights=plane.ravel(), minlength=len(centers))
            new_centers[nonempty, j] = sums[nonempty] / counts[nonempty]
        disp = np.sqrt(((new_centers[nonempty, 1:] - centers[nonempty, 1:]) ** 2).sum(axis=1))
        centers = new_centers
        if disp.size == 0 or float(disp.mean()) <= params.conv_eps:
            break

    # enforcement renumbers densely itself, keeping the order of labels
    labels = _enforce_connectivity(labels, round(s) ** 2 // 4) if enforce else _drop_empty(labels)
    return SuperpixelLabeling(labels=labels, step=s, max_assign_offset=max_offset)


def _drop_empty(labels: np.ndarray) -> np.ndarray:
    present = np.unique(labels)
    lut = np.full(present.max() + 1, -1, dtype=np.int32)
    lut[present] = np.arange(len(present), dtype=np.int32)
    return lut[labels]


def _components(labels: np.ndarray) -> tuple[np.ndarray, int]:
    # Unique id per (label, 4-connected component) pair, numbered in scan
    # order of each component's first pixel. One labelling pass over a
    # (2h-1) x (2w-1) grid: pixel (y, x) sits at (2y, 2x), and the cell
    # between two 4-adjacent pixels is set when their labels agree.
    # ndimage.label numbers components in raster order.
    h, w = labels.shape
    grid = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    grid[::2, ::2] = True
    grid[::2, 1::2] = labels[:, 1:] == labels[:, :-1]
    grid[1::2, ::2] = labels[1:, :] == labels[:-1, :]
    comp, n = ndimage.label(grid, structure=_FOUR_CONNECTED)
    return comp[::2, ::2] - 1, n


def _neighbour_pairs(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Distinct (a, b) with a != b 4-adjacent somewhere in ``ids`` (values in
    # [0, n)), each pair in both directions, sorted by a then b.
    a = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()]).astype(np.int64)
    b = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()]).astype(np.int64)
    diff = a != b
    a, b = a[diff], b[diff]
    keys = np.unique(np.concatenate([a * n + b, b * n + a]))
    return keys // n, keys % n


def _enforce_connectivity(labels: np.ndarray, min_size: int) -> np.ndarray:
    """Make every label's pixel set one 4-connected component.

    ``labels`` holds non-negative ints. Per label, the largest 4-connected
    component keeps the label (ties: the component whose first pixel comes
    first in row-major scan order). Every other component of at least
    ``min_size`` pixels becomes a new label, numbered from ``labels.max() + 1``
    in order of (original label, size descending, first pixel).

    The remaining fragments merge in rounds. A round visits the pending
    fragments in scan order of their first pixel; each one takes, among the
    current labels of its 4-adjacent pixels, the one with the largest
    current area (ties: the lower label), and that label's area grows by the
    fragment's size at once, so later visits in the round see it. A fragment
    with no labelled neighbour yet waits for the next round. Labels are
    renumbered densely at the end, keeping their order. ``_components``
    numbers components in first-pixel scan order, so these orders are id orders.
    """
    comp, n_comp = _components(labels)
    sizes = np.bincount(comp.ravel(), minlength=n_comp)
    comp_label = np.empty(n_comp, dtype=np.int64)
    comp_label[comp.ravel()] = labels.ravel()

    ranked = np.lexsort((-sizes, comp_label))  # stable: ties stay in id order
    is_kept = np.ones(n_comp, dtype=bool)
    is_kept[1:] = comp_label[ranked[1:]] != comp_label[ranked[:-1]]
    kept, rest = ranked[is_kept], ranked[~is_kept]
    promoted = rest[sizes[rest] >= min_size]
    next_label = int(labels.max()) + 1
    final = np.full(n_comp, -1, dtype=np.int64)  # -1 = pending merge
    final[kept] = comp_label[kept]
    final[promoted] = np.arange(next_label, next_label + len(promoted))

    # component adjacency in CSR form: neighbours of c are dst[ptr[c]:ptr[c + 1]]
    src, dst = _neighbour_pairs(comp, n_comp)
    ptr = np.searchsorted(src, np.arange(n_comp + 1)).tolist()
    dst = dst.tolist()
    labelled = final >= 0
    area = np.bincount(
        final[labelled], weights=sizes[labelled], minlength=next_label + len(promoted)
    ).astype(np.int64).tolist()
    current = final.tolist()
    size_of = sizes.tolist()
    pending = np.nonzero(~labelled)[0].tolist()
    # The pixel grid is connected and every label keeps a component, so some
    # pending fragment touches a labelled one: each round merges at least one
    # fragment and the loop ends.
    while pending:
        deferred = []
        for cid in pending:
            cand = {current[d] for d in dst[ptr[cid] : ptr[cid + 1]]}
            cand.discard(-1)
            if not cand:
                deferred.append(cid)
                continue
            best = min(cand, key=lambda lab: (-area[lab], lab))
            current[cid] = best
            area[best] += size_of[cid]
        pending = deferred
    return _drop_empty(np.array(current, dtype=np.int32)[comp])
