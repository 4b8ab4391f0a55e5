"""Tumor ROI extraction: region growing over the superpixel adjacency graph
from a seed point, plus boundary tracing and the radial profile used by the
shape features.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .image import validate_image, write_pgm
from .slic import _FOUR_CONNECTED, SuperpixelLabeling, adjacency

# Moore neighborhood in clockwise order (y axis points down): W NW N NE E SE S SW
_MOORE = [(-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1)]


@dataclass
class RoiMask:
    mask: np.ndarray  # bool, image shape
    boundary: list[tuple[int, int]]  # closed, 8-connected, (x, y)
    area_px: int
    perimeter: float

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "RoiMask":
        """The ROI of a (single-component) mask, with its traced boundary."""
        mask = np.asarray(mask, dtype=bool)
        boundary, perimeter = trace_boundary(mask)
        return cls(mask=mask, boundary=boundary, area_px=int(mask.sum()), perimeter=perimeter)


def block_means(img: np.ndarray, labeling: SuperpixelLabeling) -> np.ndarray:
    """Mean intensity of every superpixel."""
    img = validate_image(img)
    labels = labeling.labels
    if labels.shape != img.shape:
        raise ValueError("labeling does not match image dimensions")
    k = labeling.n_labels
    counts = np.bincount(labels.ravel(), minlength=k)
    if (counts == 0).any():
        raise ValueError("labeling contains empty labels")
    sums = np.bincount(labels.ravel(), weights=img.ravel().astype(np.float64), minlength=k)
    return sums / counts


def default_threshold(img: np.ndarray) -> float:
    """0.15 x intensity range of the (preprocessed) image."""
    img = validate_image(img)
    return 0.15 * float(int(img.max()) - int(img.min()))


def grow(
    img: np.ndarray, labeling: SuperpixelLabeling, seed_x: int, seed_y: int, threshold: float
) -> RoiMask:
    """Grow the ROI over the superpixel graph from the block of the seed
    pixel (seed_x, seed_y).

    A neighboring block joins when |mean_i - mean_seed| < threshold (strict;
    gray levels, >= 0). The union of accepted blocks is reduced to the seed's
    4-connected component and its boundary is traced clockwise.
    """
    img = validate_image(img)
    h, w = img.shape
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if not (0 <= seed_x < w and 0 <= seed_y < h):
        raise ValueError(f"seed ({seed_x},{seed_y}) outside {w}x{h} image")
    means = block_means(img, labeling)
    seed_label = int(labeling.labels[seed_y, seed_x])
    g_seed = means[seed_label]
    neigh = adjacency(labeling)

    accepted = {seed_label}
    frontier = [seed_label]
    while frontier:
        nxt = []
        for lab in frontier:
            for other in sorted(neigh[lab]):
                if other in accepted:
                    continue
                if abs(means[other] - g_seed) < threshold:
                    accepted.add(other)
                    nxt.append(other)
        frontier = nxt

    mask = np.isin(labeling.labels, sorted(accepted))
    comp, _ = ndimage.label(mask, structure=_FOUR_CONNECTED)
    return RoiMask.from_mask(comp == comp[seed_y, seed_x])


def trace_boundary(mask: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Moore-neighbor boundary trace, clockwise from the topmost-leftmost
    pixel. Returns the closed contour as (x, y) pairs and the chain-code
    perimeter (axial step 1, diagonal step sqrt 2).

    A single-pixel mask has perimeter 4 by the unit-square convention.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty mask")
    h, w = mask.shape
    ys, xs = np.nonzero(mask)
    if len(xs) == 1:
        return [(int(xs[0]), int(ys[0]))], 4.0

    start = (int(xs[np.lexsort((xs, ys))[0]]), int(ys[np.lexsort((xs, ys))[0]]))

    def inside(p):
        return 0 <= p[0] < w and 0 <= p[1] < h and mask[p[1], p[0]]

    contour = [start]
    # entry direction: came from the west (start is leftmost in its topmost row)
    cur = start
    back_dir = 0  # index into _MOORE pointing at the backtrack neighbor
    first_move = None
    while True:
        found = False
        for step in range(1, 9):
            d = (back_dir + step) % 8
            nxt = (cur[0] + _MOORE[d][0], cur[1] + _MOORE[d][1])
            if inside(nxt):
                if cur == start:
                    if first_move is None:
                        first_move = d
                    elif d == first_move and len(contour) > 1:
                        # re-entered the start with the same exit: loop closed
                        return _close(contour)
                contour.append(nxt)
                # backtrack is the neighbor scanned just before the hit
                prev = (back_dir + step - 1) % 8
                px = cur[0] + _MOORE[prev][0] - nxt[0]
                py = cur[1] + _MOORE[prev][1] - nxt[1]
                back_dir = _MOORE.index((px, py))
                cur = nxt
                found = True
                break
        if not found:
            # isolated pixel reached through a one-pixel bridge
            return _close(contour)
        if cur == start and len(contour) > 8 * mask.sum():
            return _close(contour)


def _close(contour: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], float]:
    # drop the duplicated start if the trace re-appended it
    while len(contour) > 1 and contour[-1] == contour[0]:
        contour.pop()
    per = 0.0
    n = len(contour)
    for i in range(n):
        x0, y0 = contour[i]
        x1, y1 = contour[(i + 1) % n]
        per += np.hypot(x1 - x0, y1 - y0)
    return contour, float(per)


def centroid_radial_lengths(
    mask: np.ndarray, boundary: list[tuple[int, int]]
) -> np.ndarray:
    """Normalized centroid-to-boundary distances d(i), max-normalized to 1."""
    mask = np.asarray(mask, dtype=bool)
    ys, xs = np.nonzero(mask)
    if len(xs) == 0:
        raise ValueError("empty mask")
    cx, cy = xs.mean(), ys.mean()
    pts = np.asarray(boundary, dtype=np.float64)
    d = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    dmax = d.max()
    if dmax == 0:
        raise ValueError("degenerate single-pixel mask has no radial profile")
    return d / dmax


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """Dice overlap 2|A∩B| / (|A|+|B|)."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    denom = a.sum() + b.sum()
    if denom == 0:
        return 1.0
    return 2.0 * np.logical_and(a, b).sum() / denom


def mask_to_pgm(mask: np.ndarray) -> bytes:
    """Binary mask as a 0/255 PGM."""
    return write_pgm(np.where(np.asarray(mask, dtype=bool), 255, 0).astype(np.uint8))


def pgm_to_mask(img: np.ndarray) -> np.ndarray:
    return validate_image(img) >= 128


def boundary_to_text(boundary: list[tuple[int, int]]) -> str:
    """'x y' per line; the closing edge back to the first point is implied."""
    return "\n".join(f"{x} {y}" for x, y in boundary) + "\n"


ANNOTATION_FIELDS = ["image", "seed_x", "seed_y", "label"]
_LABELS = {"benign", "malignant", "unknown"}
_INTEGER = re.compile(r"[+-]?[0-9]+")


def read_annotations(text: str) -> list[dict]:
    """Parse the annotation CSV: image,seed_x,seed_y,label.

    A row without exactly four fields, a non-integer seed, an unknown label,
    an image named twice or a CSV syntax error raises ``ValueError`` naming its
    1-based line.
    """
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    try:
        if reader.fieldnames != ANNOTATION_FIELDS:
            raise ValueError(
                f"bad annotation header {reader.fieldnames}, expected {ANNOTATION_FIELDS}"
            )
        first_line: dict[str, int] = {}
        for rec in reader:
            where = f"annotation line {reader.line_num}"
            if None in rec or None in rec.values():
                raise ValueError(f"{where}: expected {len(ANNOTATION_FIELDS)} fields")
            if rec["label"] not in _LABELS:
                raise ValueError(f"{where}: bad label {rec['label']!r} for {rec['image']}")
            if rec["image"] in first_line:
                raise ValueError(
                    f"{where}: image {rec['image']!r} already annotated"
                    f" on line {first_line[rec['image']]}"
                )
            first_line[rec["image"]] = reader.line_num
            # int() alone would also take "1_0", " 3" and non-ASCII digits
            if not all(_INTEGER.fullmatch(rec[k]) for k in ("seed_x", "seed_y")):
                raise ValueError(
                    f"{where}: seed ({rec['seed_x']!r}, {rec['seed_y']!r}) is not two integers"
                )
            rows.append({**rec, "seed_x": int(rec["seed_x"]), "seed_y": int(rec["seed_y"])})
    except csv.Error as exc:  # e.g. a bare carriage return inside a row
        # DictReader.line_num only advances after a row parses
        raise ValueError(f"annotation line {max(reader.reader.line_num, 1)}: {exc}") from None
    return rows


def write_annotations(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=ANNOTATION_FIELDS, lineterminator="\n")
    writer.writeheader()
    for rec in rows:
        writer.writerow({k: rec[k] for k in ANNOTATION_FIELDS})
    return out.getvalue()
