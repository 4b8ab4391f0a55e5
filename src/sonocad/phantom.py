"""Synthetic ultrasound-like phantoms with ground-truth lesion masks.

Benign cases are wide, smooth ellipses with a brightened posterior band;
malignant cases are tall star-shaped lesions over a posterior shadow. Both
carry optional multiplicative speckle. The truth mask is the noiseless
rasterization, so segmentation quality can be scored unambiguously.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .image import write_pgm
from .pipeline import write_file
from .roi import CLASSES, mask_to_pgm, write_annotations


@dataclass(frozen=True)
class PhantomSpec:
    width: int = 160
    height: int = 160
    kind: str = "benign"  # benign | malignant
    lesion_intensity: int = 40
    # two-tone background: a darker tone around/above the lesion and a
    # brighter tone below it. Each tone is a large flat population, so after
    # histogram equalization every non-lesion region sits far above the
    # lesion in gray value and region growing cannot leak into it.
    background_top: int = 100
    background_bottom: int = 180
    semi_axis_x: float = 26.0
    semi_axis_y: float = 18.0
    spikes: int = 0  # 0 = smooth ellipse
    spike_amplitude: float = 0.0  # radial perturbation fraction
    posterior_mode: str = "enhancement"  # enhancement | shadow
    posterior_delta: int = 60
    speckle_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CLASSES:
            raise ValueError(f"unknown class {self.kind!r}")
        if self.posterior_mode not in ("enhancement", "shadow"):
            raise ValueError(f"unknown posterior mode {self.posterior_mode!r}")
        if self.semi_axis_x < 2 or self.semi_axis_y < 2:
            raise ValueError("semi-axes must be >= 2")
        if not all(0 <= v < math.inf for v in (self.spike_amplitude, self.speckle_sigma)):
            raise ValueError("amplitude and sigma must be finite and >= 0")


def default_spec(kind: str, seed: int = 0) -> PhantomSpec:
    """Class-typical parameters: wide smooth ellipse + posterior enhancement
    for benign, tall spiky star + posterior shadow for malignant."""
    if kind == "benign":
        return PhantomSpec(kind="benign", semi_axis_x=26.0, semi_axis_y=18.0,
                           spikes=0, spike_amplitude=0.0,
                           posterior_mode="enhancement", posterior_delta=60, seed=seed)
    return PhantomSpec(kind="malignant", semi_axis_x=17.0, semi_axis_y=24.0,
                       spikes=8, spike_amplitude=0.25,
                       posterior_mode="shadow", posterior_delta=60, seed=seed)


@dataclass
class PhantomCase:
    image: np.ndarray  # uint8
    truth_mask: np.ndarray  # bool, noiseless geometry
    seed_x: int
    seed_y: int
    label: int  # roi.CLASSES[kind]: +1 malignant, -1 benign


def generate(spec: PhantomSpec) -> PhantomCase:
    """Rasterize one phantom; deterministic per spec (including seed)."""
    w, h = spec.width, spec.height
    cx, cy = w / 2.0, h * 0.35  # upper-middle, leaving room for the posterior band
    max_ry = spec.semi_axis_y * (1.0 + spec.spike_amplitude)
    max_rx = spec.semi_axis_x * (1.0 + spec.spike_amplitude)
    # the lesion plus half its height of posterior band must stay in frame
    if cx - max_rx < 0 or cx + max_rx >= w or cy - max_ry < 0:
        raise ValueError("lesion does not fit in the frame")
    if cy + max_ry + max_ry >= h:
        raise ValueError("no room for the posterior rectangle below the lesion")

    # Only the box that reaches a pixel past max_rx, max_ry can hold the
    # lesion: beyond it rho > 1 + spike_amplitude >= limit, with a full
    # pixel's margin over rounding. Every pixel's value is the full frame's.
    # The fit check above can leave the right-hand margin past the frame.
    y0, y1 = int(cy - max_ry), math.ceil(cy + max_ry) + 1
    x0, x1 = int(cx - max_rx), min(w, math.ceil(cx + max_rx) + 1)
    ys, xs = np.ogrid[y0:y1, x0:x1]
    dx = (xs - cx) / spec.semi_axis_x
    dy = (ys - cy) / spec.semi_axis_y
    rho = np.sqrt(dx**2 + dy**2)
    if spec.spikes > 0 and spec.spike_amplitude > 0:
        theta = np.arctan2(ys - cy, xs - cx)
        limit = 1.0 + spec.spike_amplitude * np.sin(spec.spikes * theta)
    else:
        limit = 1.0
    mask = np.zeros((h, w), dtype=bool)
    mask[y0:y1, x0:x1] = rho <= limit

    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    r1 = rows[-1]
    img = np.full((h, w), float(spec.background_top))
    img[r1 + 1 :, :] = spec.background_bottom
    box_h = rows[-1] - rows[0] + 1
    band = max(1, round(0.5 * box_h))
    if spec.posterior_mode == "enhancement":
        band_value = spec.background_bottom + spec.posterior_delta
    else:
        band_value = spec.background_bottom - spec.posterior_delta
        if band_value <= spec.background_top:
            raise ValueError("posterior shadow must stay brighter than the upper tone")
    img[r1 + 1 : min(h, r1 + 1 + band), cols[0] : cols[-1] + 1] = band_value
    img[mask] = spec.lesion_intensity

    if spec.speckle_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        img = img * (1.0 + rng.normal(0.0, spec.speckle_sigma, size=img.shape))
    img = np.clip(np.round(img), 0, 255).astype(np.uint8)

    my, mx = np.nonzero(mask)
    sx, sy = int(round(mx.mean())), int(round(my.mean()))
    if not mask[sy, sx]:  # centroid can fall just off-mask for odd stars
        j = np.argmin((mx - sx) ** 2 + (my - sy) ** 2)
        sx, sy = int(mx[j]), int(my[j])
    return PhantomCase(image=img, truth_mask=mask, seed_x=sx, seed_y=sy,
                       label=CLASSES[spec.kind])


def _jitter(base: PhantomSpec, rng: np.random.Generator, case_seed: int) -> PhantomSpec:
    if base.kind == "benign":
        a = rng.uniform(20.0, 30.0)
        ratio = rng.uniform(0.55, 0.85)
        return replace(
            base,
            semi_axis_x=a,
            semi_axis_y=a * ratio,
            lesion_intensity=int(rng.integers(30, 51)),
            background_top=int(rng.integers(90, 106)),
            background_bottom=int(rng.integers(175, 196)),
            posterior_delta=int(rng.integers(45, 61)),
            seed=case_seed,
        )
    ry = rng.uniform(20.0, 26.0)
    ratio = rng.uniform(0.55, 0.8)
    top = int(rng.integers(90, 106))
    bottom = int(rng.integers(175, 196))
    return replace(
        base,
        semi_axis_x=ry * ratio,
        semi_axis_y=ry,
        spikes=int(rng.integers(7, 12)),
        spike_amplitude=rng.uniform(0.18, 0.3),
        lesion_intensity=int(rng.integers(30, 51)),
        background_top=top,
        background_bottom=bottom,
        # shadow tone stays at least 30 levels above the upper tone
        posterior_delta=int(rng.integers(40, bottom - top - 29)),
        seed=case_seed,
    )


def generate_dataset(
    n_benign: int = 62,
    n_malignant: int = 88,
    seed: int = 0,
    speckle_sigma: float = 0.0,
) -> list[tuple[str, PhantomCase]]:
    """Jittered labeled cases, deterministic per seed.

    Per-case randomness derives from ``seed + case index`` so cases can be
    regenerated independently.
    """
    if n_benign < 1 or n_malignant < 1:
        raise ValueError("need at least one case per class")
    cases = []
    kinds = ["benign"] * n_benign + ["malignant"] * n_malignant
    for i, kind in enumerate(kinds):
        rng = np.random.default_rng(seed + i)
        base = replace(default_spec(kind), speckle_sigma=speckle_sigma)
        spec = _jitter(base, rng, case_seed=seed + i)
        name = f"case_{i:04d}_{kind}"
        cases.append((name, generate(spec)))
    return cases


def write_dataset(cases: list[tuple[str, PhantomCase]], out_dir: str) -> str:
    """Write each case as PGM plus the shared annotation CSV; returns the
    annotation path."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for name, case in cases:
        write_file(os.path.join(out_dir, f"{name}.pgm"), write_pgm(case.image))
        write_file(os.path.join(out_dir, f"{name}_truth.pgm"), mask_to_pgm(case.truth_mask))
        rows.append({"image": f"{name}.pgm", "seed_x": case.seed_x, "seed_y": case.seed_y,
                     "label": "malignant" if case.label == 1 else "benign"})
    ann_path = os.path.join(out_dir, "annotations.csv")
    write_file(ann_path, write_annotations(rows))
    return ann_path
