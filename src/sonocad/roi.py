"""Tumor ROI extraction: region growing at the superpixel level from a seed
point, plus boundary tracing and the radial profile used by the shape
features.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .image import validate_image, write_pgm
from .slic import _FOUR_CONNECTED, SuperpixelLabeling

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
    """Grow the ROI from the block of the seed pixel (seed_x, seed_y).

    A block joins when it is 4-adjacent to the region and |mean_i - mean_seed|
    < threshold (strict; gray levels, >= 0). Each block is compared with the
    seed block, not with the grown region, so the visit order does not matter:
    the ROI is the seed pixel's 4-connected component among the pixels of the
    seed block and of every block within the threshold. Its boundary is traced
    clockwise.
    """
    img = validate_image(img)
    h, w = img.shape
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if not (0 <= seed_x < w and 0 <= seed_y < h):
        raise ValueError(f"seed ({seed_x},{seed_y}) outside {w}x{h} image")
    means = block_means(img, labeling)
    seed_label = labeling.labels[seed_y, seed_x]
    keep = np.abs(means - means[seed_label]) < threshold
    keep[seed_label] = True
    comp, _ = ndimage.label(keep[labeling.labels], structure=_FOUR_CONNECTED)
    return RoiMask.from_mask(comp == comp[seed_y, seed_x])


def trace_boundary(mask: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Moore-neighbor boundary trace, clockwise from the topmost-leftmost
    pixel. Returns the closed contour as (x, y) pairs and the chain-code
    perimeter (axial step 1, diagonal step sqrt 2).

    A single-pixel mask has perimeter 4 by the unit-square convention. A walk
    that has not closed after 8 steps per mask pixel raises ``ValueError``.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty mask")
    ys, xs = np.nonzero(mask)
    if len(xs) == 1:
        return [(int(xs[0]), int(ys[0]))], 4.0

    inside = np.pad(mask, 1)  # a background frame: neighbours need no bounds test
    start = (int(xs[0]), int(ys[0]))  # nonzero scans row-major: topmost, then leftmost
    contour = [start]
    x, y = start
    back = 0  # index into _MOORE of the backtrack: the start is entered from the west
    first_move = None
    limit = 8 * len(xs)
    while True:
        for step in range(1, 9):
            d = (back + step) % 8
            dx, dy = _MOORE[d]
            if inside[y + dy + 1, x + dx + 1]:
                break
        else:
            break  # the start pixel has no neighbour in the mask
        if (x, y) == start:
            if first_move is None:
                first_move = d
            elif d == first_move:
                # left the start the same way again (Jacob's criterion): the
                # loop is closed, drop the repeated start
                contour.pop()
                break
        x, y = x + dx, y + dy
        contour.append((x, y))
        if len(contour) > limit:
            raise ValueError(f"boundary trace did not close within {limit} steps")
        # the new backtrack is the neighbour scanned just before the hit
        back = (d // 2 * 2 + 6) % 8

    steps = np.diff(np.array(contour + contour[:1]), axis=0)
    # cumsum adds the steps in contour order; sum() would add them pairwise
    return contour, float(np.cumsum(np.hypot(steps[:, 0], steps[:, 1]))[-1])


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


def parse_seed(texts: list[str]) -> tuple[int, int]:
    """The seed point (x, y) from its two decimal fields, ASCII digits with an
    optional sign; int() alone would also take "1_0", " 3" and non-ASCII
    digits."""
    if len(texts) != 2 or not all(map(_INTEGER.fullmatch, texts)):
        raise ValueError(f"seed {tuple(texts)!r} is not two integers")
    return int(texts[0]), int(texts[1])


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
            try:
                seed_x, seed_y = parse_seed([rec["seed_x"], rec["seed_y"]])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            rows.append({**rec, "seed_x": seed_x, "seed_y": seed_y})
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
