"""SLIC superpixel clustering: localized 5-D k-means over (l, a, b, x, y).

For grayscale input the chroma channels are identically zero, so centers
carry (l, x, y) only. The search for each center is bounded to a 2S x 2S
window around it, S on each side, S being the grid step derived from the
target cluster count: the reference window of Achanta et al. (TPAMI 2012).
Intensities are uint8, so each pass takes a window's colour term from a
(K, 256) table of every center against every grey level's lightness instead
of recomputing it per pixel. Tie-breaking is fixed everywhere (lowest label
index, row-major scan) so the labeling is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .image import to_lightness, validate_image

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
# the lightness of each uint8 grey level: row 0 of to_lightness over 0..255
_LEVELS = to_lightness(np.arange(256, dtype=np.uint8)[None])[0]

# Achanta et al.'s setting: color normalizer m on the l in [0, 100] scale,
# and the iteration budget of the k-means loop
COMPACTNESS = 10.0
MAX_ITERS = 10
# Stop once the mean center displacement is at most this many pixels;
# otherwise MAX_ITERS bounds the loop. It ends most noiseless phantoms
# early, while speckled ones still move more and use the whole budget.
CONV_EPS = 0.25
# Half-width of each center's search window, in grid steps S: Achanta et
# al.'s 2S x 2S window
SEARCH_REACH = 1.0


@dataclass(frozen=True)
class SlicParams:
    """The target cluster count of the superpixel clustering."""

    n_segments: int = 50

    def __post_init__(self):
        if self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")


@dataclass
class SuperpixelLabeling:
    """Per-pixel cluster labels: an int array of the image shape whose values
    are dense in [0, n_labels), plus the grid step S they were clustered at.
    """

    labels: np.ndarray
    step: float
    # each assignment pass's (labels, claimed mask or None, centers), arrays
    # slic allocates anyway; max_assign_offset reduces them only when read
    passes: tuple = field(default=(), repr=False)

    @property
    def n_labels(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def max_assign_offset(self) -> float:
        """Largest per-axis offset from a window-claimed pixel to its center
        over all passes; bounded by the S search reach (plus window rounding).
        Computed from the kept passes when read, so it costs nothing unless
        read."""
        return max((_assign_offset(*p) for p in self.passes), default=0.0)


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
    codes: np.ndarray, centers: np.ndarray, s: float, compactness: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """One assignment pass of the localized k-means over the uint8 grey
    levels ``codes``.

    Centers are visited in index order; each claims the pixels of its 2S x 2S
    window to which it is strictly closer than every earlier center, so ties
    go to the lower index. A window's colour term ((l - c_l) / m)^2 is read
    from a (K, 256) table built once per pass over the grey levels' lightness,
    the same operations per level as per pixel. A pixel outside every window
    goes to the spatially nearest center. Returns the labels and the mask of
    window-claimed pixels, None when every pixel was claimed.
    """
    h, w = codes.shape
    tab = _LEVELS - centers[:, :1]
    tab /= compactness
    np.square(tab, out=tab)
    # squared column and row offsets of every pixel from every center
    dx2 = (np.arange(w, dtype=np.float64) - centers[:, 1:2]) ** 2
    dy2 = (np.arange(h, dtype=np.float64) - centers[:, 2:3]) ** 2
    reach = SEARCH_REACH * s  # search half-width per center
    x0s, y0s = np.maximum(0, np.floor(centers[:, 1:] - reach)).astype(int).T.tolist()
    x1s, y1s = np.minimum((w, h), np.ceil(centers[:, 1:] + reach) + 1).astype(int).T.tolist()
    ss = s * s
    dist = np.full((h, w), np.inf)
    labels = np.full((h, w), -1, dtype=np.int32)
    for idx, row in enumerate(tab):
        y0, y1, x0, x1 = y0s[idx], y1s[idx], x0s[idx], x1s[idx]
        d2 = row.take(codes[y0:y1, x0:x1])
        ds2 = dy2[idx, y0:y1, None] + dx2[idx, x0:x1]
        ds2 /= ss
        d2 += ds2
        win = dist[y0:y1, x0:x1]
        better = d2 < win  # strict: earlier index wins ties
        np.minimum(win, d2, out=win)
        np.copyto(labels[y0:y1, x0:x1], idx, where=better)

    if labels.min() >= 0:
        return labels, None
    # Once centers drift a pixel can fall outside every 2S window; give it
    # to the spatially nearest center so the partition invariant holds.
    claimed = labels >= 0
    oy, ox = np.nonzero(~claimed)
    d = (ox[:, None] - centers[None, :, 1]) ** 2 + (oy[:, None] - centers[None, :, 2]) ** 2
    labels[oy, ox] = np.argmin(d, axis=1)
    return labels, claimed


def _assign_offset(labels: np.ndarray, claimed: np.ndarray | None, centers: np.ndarray) -> float:
    # largest per-axis offset from a claimed pixel (every pixel when
    # ``claimed`` is None) to its center; 0.0 when no pixel was claimed
    h, w = labels.shape
    where = True if claimed is None else claimed
    dx = np.abs(np.arange(w, dtype=np.float64) - centers[:, 1].take(labels))
    dy = np.abs(np.arange(h, dtype=np.float64)[:, None] - centers[:, 2].take(labels))
    return float(max(dx.max(where=where, initial=0.0), dy.max(where=where, initial=0.0)))


def slic(
    img: np.ndarray,
    params: SlicParams | None = None,
    enforce: bool = True,
) -> SuperpixelLabeling:
    """Cluster the image into superpixels and enforce label connectivity.

    Per label the largest 4-connected component keeps it, other components
    of at least round(S)^2 // 4 pixels become new labels, and each smaller
    fragment takes Achanta et al.'s adjacent label: that of the pixel above
    its first pixel, or to its left on the top row.

    ``enforce=False`` returns the raw converged assignment, whose labels may
    still be fragmented. No pipeline stage uses it; the benchmark and the
    tests' enforcement oracle start from it.
    """
    img = validate_image(img)
    params = params or SlicParams()
    h, w = img.shape
    s = step_size(h * w, params.n_segments)
    l_plane = to_lightness(img)
    centers = seed_grid(l_plane, max(1.0, s))

    codes = img.astype(np.intp)
    k = len(centers)
    ys, xs = np.indices((h, w), dtype=np.float64).reshape(2, -1)
    passes = []

    while True:
        labels, claimed = _assign(codes, centers, s, COMPACTNESS)
        passes.append((labels, claimed, centers))
        if len(passes) == MAX_ITERS:
            break  # the last pass's center update would go unused

        # Pixel counts and x, y sums are integers, exact in any order, so
        # after pass 1 they follow the pixels that changed label. Lightness
        # sums depend on the order of float additions: one scan each pass.
        flat = labels.ravel()
        if len(passes) == 1:
            tally = np.stack([np.bincount(flat, wts, minlength=k) for wts in (None, xs, ys)])
        else:
            moved = np.flatnonzero(flat != prev)
            came, gone = flat[moved], prev[moved]
            for row, wts in zip(tally, (None, xs[moved], ys[moved])):
                row += np.bincount(came, wts, minlength=k)
                row -= np.bincount(gone, wts, minlength=k)
        prev = flat
        counts = tally[0]
        nonempty = counts > 0
        new_centers = centers.copy()  # empty clusters keep their coordinates
        sums = np.vstack([np.bincount(flat, l_plane.ravel(), minlength=k), tally[1:]])
        new_centers[nonempty] = (sums[:, nonempty] / counts[nonempty]).T
        disp = np.sqrt(((new_centers[nonempty, 1:] - centers[nonempty, 1:]) ** 2).sum(axis=1))
        centers = new_centers
        if float(disp.mean()) <= CONV_EPS:
            break

    # enforcement renumbers densely itself, keeping the order of labels
    labels = _enforce_connectivity(labels, round(s) ** 2 // 4) if enforce else _drop_empty(labels)
    return SuperpixelLabeling(labels=labels, step=s, passes=tuple(passes))


def _drop_empty(labels: np.ndarray) -> np.ndarray:
    # renumber the non-negative labels densely, keeping their order
    present = np.bincount(labels.ravel()) > 0
    return (np.cumsum(present, dtype=np.int32) - 1)[labels]


def _components(labels: np.ndarray) -> tuple[np.ndarray, int]:
    # Unique id per (label, 4-connected component) pair, numbered in scan
    # order of each component's first pixel. One labelling pass over a
    # (2h-1) x (2w-1) grid: pixel (y, x) sits at (2y, 2x), and the cell
    # between two 4-adjacent pixels is set when their labels agree.
    # ndimage.label numbers components in raster order.
    from scipy import ndimage
    h, w = labels.shape
    grid = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    grid[::2, ::2] = True
    grid[::2, 1::2] = labels[:, 1:] == labels[:, :-1]
    grid[1::2, ::2] = labels[1:, :] == labels[:-1, :]
    comp, n = ndimage.label(grid, structure=_FOUR_CONNECTED)
    return comp[::2, ::2] - 1, n


def _enforce_connectivity(labels: np.ndarray, min_size: int) -> np.ndarray:
    """Make every label's pixel set one 4-connected component.

    ``labels`` holds non-negative ints. Per label, the largest 4-connected
    component keeps the label (ties: the component whose first pixel comes
    first in row-major scan order). Every other component of at least
    ``min_size`` pixels becomes a new label, numbered from ``labels.max() + 1``
    in order of (original label, size descending, first pixel).

    Each remaining fragment takes Achanta et al.'s adjacent label: the final
    label of the pixel above its first pixel, or to its left on the top row.
    A fragment holding pixel (0, 0) has no such neighbour and becomes the
    last new label. Labels are renumbered densely at the end, keeping their
    order.
    """
    comp, n_comp = _components(labels)
    flat = comp.ravel()
    sizes = np.bincount(flat, minlength=n_comp)
    # ndimage.label numbers components in raster order, so the running
    # maximum of the ids steps up by one exactly at each first pixel
    first = np.flatnonzero(np.diff(np.maximum.accumulate(flat), prepend=-1))
    comp_label = labels.ravel().take(first)

    ranked = np.lexsort((-sizes, comp_label))  # stable: ties stay in id order
    is_kept = np.ones(n_comp, dtype=bool)
    is_kept[1:] = comp_label[ranked[1:]] != comp_label[ranked[:-1]]
    kept, rest = ranked[is_kept], ranked[~is_kept]
    promoted = rest[sizes[rest] >= min_size]
    next_label = int(labels.max()) + 1
    final = np.full(n_comp, -1, dtype=np.int64)  # -1 = pending merge
    final[kept] = comp_label[kept]
    final[promoted] = np.arange(next_label, next_label + len(promoted))
    if final[0] < 0:
        final[0] = next_label + len(promoted)

    # The pixel above a first pixel (left of it on the top row) comes earlier
    # in raster order, so its component has a smaller id: each step resolves
    # one more level of every chain, and id 0 is labelled.
    w = labels.shape[1]
    parent = flat.take(np.where(first >= w, first - w, first - 1))
    while final.min() < 0:
        final = np.where(final < 0, final[parent], final)
    return _drop_empty(final.astype(np.int32))[comp]
