"""End-to-end orchestration: annotated images in, evaluation report out.

The stage functions (``preprocess`` to ``evaluate_cv``) are the one place where
config fields become calls; ``run_pipeline`` and the CLI are built from them.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from . import features as feat
from . import image, metrics, roi, slic, svm
from .config import PipelineConfig


@dataclass
class CaseResult:
    name: str
    preprocessed: np.ndarray
    labeling: slic.SuperpixelLabeling
    roi_mask: roi.RoiMask
    features: feat.FeatureVector


def preprocess(img: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    return image.preprocess(img, cfg.denoise_radius, cfg.unsharp_amount, cfg.unsharp_radius)


def segment(
    pre: np.ndarray, seed_x: int, seed_y: int, cfg: PipelineConfig
) -> tuple[slic.SuperpixelLabeling, roi.RoiMask]:
    """Superpixels of the preprocessed image, and the ROI grown from the seed."""
    labeling = slic.slic(pre, cfg.slic_params())
    threshold = roi.default_threshold(pre) if cfg.grow_threshold is None else cfg.grow_threshold
    mask = roi.grow(pre, labeling, seed_x, seed_y, threshold)
    return labeling, mask


def features(pre: np.ndarray, roi_mask: roi.RoiMask, cfg: PipelineConfig) -> feat.FeatureVector:
    return feat.extract_all(pre, roi_mask, cfg.glcm_spec(), cfg.posterior_fraction)


def process_case(
    img: np.ndarray, seed_x: int, seed_y: int, cfg: PipelineConfig, name: str = ""
) -> CaseResult:
    """Preprocess, segment from the seed, and extract the feature vector."""
    pre = preprocess(img, cfg)
    labeling, mask = segment(pre, seed_x, seed_y, cfg)
    fv = features(pre, mask, cfg)
    return CaseResult(name=name, preprocessed=pre, labeling=labeling, roi_mask=mask, features=fv)


@dataclass
class BatchResult:
    feature_rows: list[tuple[str, feat.FeatureVector, str]]
    errors: list[tuple[str, str, str]]  # (case, stage, message)


def extract_batch(rows: list[dict], base_dir: str, cfg: PipelineConfig) -> BatchResult:
    """Run extraction over every annotated case (``read_annotations`` rows,
    image names relative to ``base_dir``), collecting per-case errors instead
    of aborting."""
    out_rows = []
    errors = []
    for rec in rows:
        name = rec["image"]
        try:
            with open(os.path.join(base_dir, name), "rb") as fh:
                img = image.read_pgm(fh.read())
        except (OSError, image.PgmParseError) as exc:
            errors.append((name, "read", str(exc)))
            continue
        try:
            result = process_case(img, rec["seed_x"], rec["seed_y"], cfg, name=name)
        except (ValueError, image.PgmParseError) as exc:
            errors.append((name, "extract", str(exc)))
            continue
        out_rows.append((name, result.features, rec["label"]))
    return BatchResult(feature_rows=out_rows, errors=errors)


def rows_to_matrix(
    rows: list[tuple[str, feat.FeatureVector, str]]
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Feature CSV rows to (X, y, ids); rows labeled 'unknown' are dropped."""
    labeled = [(n, fv, lab) for n, fv, lab in rows if lab != "unknown"]
    if not labeled:
        raise ValueError("no labeled cases")
    x = np.stack([fv.to_array() for _, fv, _ in labeled])
    y = np.array([1 if lab == "malignant" else -1 for _, _, lab in labeled])
    ids = [n for n, _, _ in labeled]
    return x, y, ids


def grid_search(
    x: np.ndarray, y: np.ndarray, ids: list[str], cfg: PipelineConfig
) -> svm.GridSearchResult:
    return svm.grid_search(
        x, y, ids, k=cfg.folds, seed=cfg.seed,
        c_exponents=cfg.c_exponents, g_exponents=cfg.g_exponents, kernel=cfg.kernel,
    )


def train(x: np.ndarray, y: np.ndarray, cfg: PipelineConfig) -> svm.SmoSVC:
    return svm.SmoSVC(c=cfg.svm_c, kernel=cfg.kernel, gamma=cfg.svm_gamma).fit(x, y)


def evaluate_cv(
    x: np.ndarray, y: np.ndarray, ids: list[str], cfg: PipelineConfig
) -> tuple[list[metrics.ConfusionCounts], metrics.RocCurve]:
    """Per-fold confusion counts plus a pooled ROC over held-out decisions."""
    folds = svm.cross_validate(
        x, y, ids, cfg.folds, cfg.seed, c=cfg.svm_c, kernel=cfg.kernel, gamma=cfg.svm_gamma
    )
    per_fold = [metrics.accumulate(f.predictions, y[f.test_idx]) for f in folds]
    decisions = np.empty(len(y))
    for f in folds:
        decisions[f.test_idx] = f.decisions
    return per_fold, metrics.roc(decisions, y)


def run_pipeline(annotations_path: str, cfg: PipelineConfig, out_dir: str) -> dict:
    """Full run: extraction, grid search, final CV evaluation and artifacts.

    Writes features.csv, errors.csv (when any), surface.csv, model.json,
    report.csv and roc.csv into ``out_dir``. Deterministic for a fixed
    config and inputs.
    """
    with open(annotations_path) as fh:
        rows = roi.read_annotations(fh.read())
    labels = [rec["label"] for rec in rows]
    if min(labels.count("benign"), labels.count("malignant")) < cfg.folds:
        raise ValueError(f"annotations need {cfg.folds} benign and {cfg.folds} malignant cases")
    os.makedirs(out_dir, exist_ok=True)
    batch = extract_batch(rows, os.path.dirname(os.path.abspath(annotations_path)), cfg)
    _write(out_dir, "features.csv", feat.write_feature_csv(batch.feature_rows))
    if batch.errors:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["case", "stage", "message"])
        w.writerows(batch.errors)
        _write(out_dir, "errors.csv", out.getvalue())

    x, y, ids = rows_to_matrix(batch.feature_rows)
    search = grid_search(x, y, ids, cfg)
    _write(out_dir, "surface.csv", search.surface_csv())
    tuned = cfg.override(svm_c=search.best_c, svm_gamma=search.best_gamma)
    _write(out_dir, "model.json", svm.model_to_json(train(x, y, tuned)))

    per_fold, curve = evaluate_cv(x, y, ids, tuned)
    _write(out_dir, "report.csv", metrics.report_csv(per_fold))
    _write(out_dir, "roc.csv", metrics.roc_csv(curve))

    total = sum(per_fold, metrics.ConfusionCounts())
    return {
        "cases": len(batch.feature_rows),
        "errors": len(batch.errors),
        "best_c": search.best_c,
        "best_gamma": search.best_gamma,
        "cv_accuracy": metrics.evaluate(total)["accuracy"],
        "auc": curve.auc,
    }


def _write(out_dir: str, name: str, text: str):
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)
