"""The nine-dimensional feature vector of a segmented tumor.

Four geometric (aspect ratio, roundness, compactness, roughness), four
texture (contrast ratio plus GLCM energy / homogeneity / correlation) and
one gray feature (posterior attenuation coefficient), in that fixed order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .image import validate_image
from .roi import _LABELS, RoiMask, centroid_radial_lengths

FEATURE_NAMES = [
    "ar", "rd", "cp", "rg", "cr", "energy", "homogeneity", "correlation", "ac",
]

_ANGLE_OFFSETS = {0: (1, 0), 45: (1, -1), 90: (0, -1), 135: (-1, -1)}

# height of the posterior rectangle below the ROI, as a fraction of the ROI's
# bounding-box height
POSTERIOR_FRACTION = 0.5


@dataclass(frozen=True)
class GlcmSpec:
    levels: int = 32
    distance: int = 1
    angles: tuple[int, ...] = (0, 45, 90, 135)

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("levels must be >= 2")
        if self.distance < 1:
            raise ValueError("distance must be >= 1")
        if not self.angles:
            raise ValueError("need at least one angle")
        bad = set(self.angles) - set(_ANGLE_OFFSETS)
        if bad:
            raise ValueError(f"unsupported angles {sorted(bad)}")


@dataclass(frozen=True)
class FeatureVector:
    ar: float
    rd: float
    cp: float
    rg: float
    cr: float
    energy: float
    homogeneity: float
    correlation: float
    ac: float

    def to_array(self) -> np.ndarray:
        arr = np.array([getattr(self, n) for n in FEATURE_NAMES], dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("non-finite feature value")
        return arr


def bounding_box(mask: np.ndarray) -> tuple[int, int, int, int]:
    """(row_min, row_max, col_min, col_max), inclusive."""
    ys, xs = np.nonzero(np.asarray(mask, dtype=bool))
    if len(xs) == 0:
        raise ValueError("empty mask")
    return int(ys.min()), int(ys.max()), int(xs.min()), int(xs.max())


def aspect_ratio(mask: np.ndarray) -> float:
    """Height / width of the axis-aligned bounding box."""
    r0, r1, c0, c1 = bounding_box(mask)
    return (r1 - r0 + 1) / (c1 - c0 + 1)


def roundness(area: float, perimeter: float) -> float:
    """4*pi*S / L^2; 1 in the circular limit."""
    if perimeter <= 0:
        raise ValueError("perimeter must be > 0")
    return 4.0 * math.pi * area / perimeter**2


def compactness(area: float, perimeter: float) -> float:
    """S / (4*pi*L^2); equals roundness / (16*pi^2) for any shape."""
    if perimeter <= 0:
        raise ValueError("perimeter must be > 0")
    return area / (4.0 * math.pi * perimeter**2)


def roughness(profile: np.ndarray) -> float:
    """Mean absolute successive difference of the radial profile, with
    wraparound from the last sample back to the first."""
    d = np.asarray(profile, dtype=np.float64)
    if d.size < 2:
        raise ValueError("need at least 2 radial samples")
    return float(np.abs(d - np.roll(d, -1)).mean())


def contrast_ratio(img: np.ndarray, mask: np.ndarray) -> float:
    """(max+1)/(min+1) over the masked intensities; +1 guards min = 0."""
    img = validate_image(img)
    vals = img[np.asarray(mask, dtype=bool)]
    if vals.size == 0:
        raise ValueError("empty mask")
    return (int(vals.max()) + 1) / (int(vals.min()) + 1)


def quantize(img: np.ndarray, levels: int) -> np.ndarray:
    """Equal-width binning of [0, 255] into ``levels`` bins."""
    return (validate_image(img).astype(np.int64) * levels) // 256


def glcm(img: np.ndarray, mask: np.ndarray, spec: GlcmSpec | None = None) -> np.ndarray:
    """Symmetric normalized co-occurrence matrix over the masked region.

    Pairs are counted at displacement d along every requested angle,
    both endpoints inside the mask, then symmetrized and normalized to
    sum 1.
    """
    spec = spec or GlcmSpec()
    img = validate_image(img)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != img.shape:
        raise ValueError("mask does not match image")
    if not mask.any():
        raise ValueError("empty mask")
    q = quantize(img, spec.levels)
    h, w = img.shape
    counts = np.zeros((spec.levels, spec.levels), dtype=np.float64)
    for ang in spec.angles:
        dx, dy = _ANGLE_OFFSETS[ang]
        dx *= spec.distance
        dy *= spec.distance
        x0s, x1s = max(0, -dx), min(w, w - dx)
        y0s, y1s = max(0, -dy), min(h, h - dy)
        src_m = mask[y0s:y1s, x0s:x1s]
        dst_m = mask[y0s + dy : y1s + dy, x0s + dx : x1s + dx]
        both = src_m & dst_m
        a = q[y0s:y1s, x0s:x1s][both]
        b = q[y0s + dy : y1s + dy, x0s + dx : x1s + dx][both]
        np.add.at(counts, (a, b), 1.0)
    total = counts.sum()
    if total == 0:
        raise ValueError(
            f"no co-occurring pixel pairs at d={spec.distance}, angles={spec.angles}"
        )
    p = counts + counts.T
    return p / p.sum()


def glcm_energy(p: np.ndarray) -> float:
    return float(np.sum(p**2))


def glcm_homogeneity(p: np.ndarray) -> float:
    n = p.shape[0]
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return float(np.sum(p / (1.0 + (i - j) ** 2)))


def glcm_correlation(p: np.ndarray) -> float:
    """Pearson correlation of the co-occurrence marginals; 0 when a marginal
    is degenerate (constant region)."""
    n = p.shape[0]
    idx = np.arange(n, dtype=np.float64)
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mu_x = float(idx @ px)
    mu_y = float(idx @ py)
    var_x = float(((idx - mu_x) ** 2) @ px)
    var_y = float(((idx - mu_y) ** 2) @ py)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    cov = float(((idx[:, None] - mu_x) * (idx[None, :] - mu_y) * p).sum())
    return cov / math.sqrt(var_x * var_y)


def attenuation_coefficient(img: np.ndarray, mask: np.ndarray) -> float:
    """Mean ROI intensity over the mean of the posterior rectangle.

    The rectangle spans the mask's bounding-box columns and extends below it
    by ``POSTERIOR_FRACTION`` of the box height (clipped to the image). Both
    means carry a +1 offset so an all-black band cannot zero the denominator.
    """
    img = validate_image(img)
    mask = np.asarray(mask, dtype=bool)
    r0, r1, c0, c1 = bounding_box(mask)
    h = r1 - r0 + 1
    rows = max(1, round(POSTERIOR_FRACTION * h))
    y0, y1 = r1 + 1, min(img.shape[0], r1 + 1 + rows)
    if y0 >= y1:
        raise ValueError("mask touches the bottom edge, posterior rectangle is empty")
    roi_mean = float(img[mask].mean())
    back_mean = float(img[y0:y1, c0 : c1 + 1].mean())
    return (roi_mean + 1.0) / (back_mean + 1.0)


def extract_all(img: np.ndarray, roi: RoiMask) -> FeatureVector:
    """All nine features, in the canonical order."""
    profile = centroid_radial_lengths(roi.mask, roi.boundary)
    p = glcm(img, roi.mask)
    return FeatureVector(
        ar=aspect_ratio(roi.mask),
        rd=roundness(roi.area_px, roi.perimeter),
        cp=compactness(roi.area_px, roi.perimeter),
        rg=roughness(profile),
        cr=contrast_ratio(img, roi.mask),
        energy=glcm_energy(p),
        homogeneity=glcm_homogeneity(p),
        correlation=glcm_correlation(p),
        ac=attenuation_coefficient(img, roi.mask),
    )


FEATURE_CSV_FIELDS = ["image"] + FEATURE_NAMES + ["label"]


def write_feature_csv(rows: list[tuple[str, FeatureVector, str]]) -> str:
    """Rows of (image id, features, class label) as CSV, 12 significant
    digits per float."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FEATURE_CSV_FIELDS)
    for image_id, fv, label in rows:
        writer.writerow([image_id] + [f"{v:.12g}" for v in fv.to_array()] + [label])
    return out.getvalue()


def read_feature_csv(text: str) -> list[tuple[str, FeatureVector, str]]:
    """Parse ``write_feature_csv`` output; labels must be benign, malignant
    or unknown. Any malformed input raises ``ValueError`` naming its 1-based
    line."""
    reader = csv.reader(io.StringIO(text))
    rows = []
    try:
        header = next(reader, None)
        if header != FEATURE_CSV_FIELDS:
            raise ValueError(
                "empty feature CSV" if header is None else f"bad feature CSV header {header}"
            )
        for rec in reader:
            if len(rec) != len(FEATURE_CSV_FIELDS):
                raise ValueError(f"expected {len(FEATURE_CSV_FIELDS)} fields, got {len(rec)}")
            if rec[10] not in _LABELS:
                raise ValueError(f"bad label {rec[10]!r}")
            values = [float(v) for v in rec[1:10]]
            if not all(map(math.isfinite, values)):
                raise ValueError("non-finite feature value")
            rows.append((rec[0], FeatureVector(*values), rec[10]))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"line {max(reader.line_num, 1)}: {exc}") from None
    return rows
