"""End-to-end orchestration: annotated images in, evaluation report out.

The stage functions (``preprocess`` to ``evaluate_cv``) are the one place where
config fields become calls; ``run_pipeline`` and the CLI are built from them.
"""

from __future__ import annotations

import csv
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import features as feat
from . import image, metrics, roi, slic, svm
from .config import PipelineConfig


class CaseFailures(Exception):
    """Per-case failures left a class with fewer cases than folds."""


def read_image(path: str) -> np.ndarray:
    """The PGM image at ``path``; raises OSError or PgmParseError."""
    with open(path, "rb") as fh:
        return image.read_pgm(fh.read())


def write_file(path: str, data: str | bytes):
    with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


@dataclass
class CaseResult:
    name: str
    roi_mask: roi.RoiMask
    features: feat.FeatureVector


def preprocess(img: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    return image.preprocess(img, cfg.denoise_radius)


def segment(pre: np.ndarray, seed_x: int, seed_y: int, cfg: PipelineConfig) -> roi.RoiMask:
    """The ROI grown from the seed over the superpixels of the preprocessed
    image."""
    labeling = slic.slic(pre, slic.SlicParams(n_segments=cfg.n_segments))
    threshold = roi.default_threshold(pre) if cfg.grow_threshold is None else cfg.grow_threshold
    return roi.grow(pre, labeling, seed_x, seed_y, threshold)


def process_case(
    img: np.ndarray, seed_x: int, seed_y: int, cfg: PipelineConfig, name: str = ""
) -> CaseResult:
    """Preprocess, segment from the seed, and extract the feature vector."""
    pre = preprocess(img, cfg)
    mask = segment(pre, seed_x, seed_y, cfg)
    return CaseResult(name=name, roi_mask=mask, features=feat.extract_all(pre, mask))


@dataclass
class BatchResult:
    feature_rows: list[tuple[str, feat.FeatureVector, str]]
    errors: list[tuple[str, str, str]]  # (case, stage, message)


def _extract_case(rec: dict, base_dir: str, cfg: PipelineConfig):
    """(feature row, None) for one annotated case, or (None, its error)."""
    name = rec["image"]
    try:
        img = read_image(os.path.join(base_dir, name))
    except (OSError, image.PgmParseError) as exc:
        return None, (name, "read", str(exc))
    try:
        result = process_case(img, rec["seed_x"], rec["seed_y"], cfg, name=name)
    except (ValueError, image.PgmParseError) as exc:
        return None, (name, "extract", str(exc))
    return (name, result.features, rec["label"]), None


def extract_batch(rows: list[dict], base_dir: str, cfg: PipelineConfig) -> BatchResult:
    """Run extraction over every annotated case (``read_annotations`` rows,
    image names relative to ``base_dir``), collecting per-case errors instead
    of aborting. Cases run in forked workers, one per core of the affinity
    mask (serially on one core or without fork); rows and errors keep the
    annotation order, so the result does not depend on the worker count."""
    case = functools.partial(_extract_case, base_dir=base_dir, cfg=cfg)
    forks = hasattr(os, "sched_getaffinity") and "fork" in multiprocessing.get_all_start_methods()
    workers = min(len(os.sched_getaffinity(0)), len(rows)) if forks else 1
    if workers > 1:
        # fork, not spawn: workers need no re-import and see this module as it is now
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(case, rows))
    else:
        results = list(map(case, rows))
    return BatchResult(feature_rows=[r for r, _ in results if r],
                       errors=[e for _, e in results if e])


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


def _check_folds(labels: list[str], cfg: PipelineConfig):
    """ValueError naming the class when a class has fewer rows than folds;
    ``labels`` are class names, and 'unknown' counts for neither class."""
    for name in ("benign", "malignant"):
        if labels.count(name) < cfg.folds:
            raise ValueError(f"{labels.count(name)} {name} rows, too few for {cfg.folds} folds")


def _class_names(y: np.ndarray) -> list[str]:
    return ["malignant" if v == 1 else "benign" for v in y.tolist()]


def grid_search(
    x: np.ndarray, y: np.ndarray, ids: list[str], cfg: PipelineConfig
) -> svm.GridSearchResult:
    _check_folds(_class_names(y), cfg)
    return svm.grid_search(
        x, y, ids, k=cfg.folds, seed=cfg.seed,
        c_exponents=cfg.c_exponents, g_exponents=cfg.g_exponents,
    )


def train(x: np.ndarray, y: np.ndarray, cfg: PipelineConfig) -> svm.SmoSVC:
    return svm.SmoSVC(c=cfg.svm_c, gamma=cfg.svm_gamma).fit(x, y)


def evaluate_cv(
    x: np.ndarray, y: np.ndarray, ids: list[str], cfg: PipelineConfig
) -> tuple[list[metrics.ConfusionCounts], metrics.RocCurve]:
    """``score_folds`` of the config's (C, gamma) under k-fold CV."""
    _check_folds(_class_names(y), cfg)
    folds, dec = svm.cv_decisions(
        x, y, ids, cfg.folds, cfg.seed, [cfg.svm_c], [cfg.svm_gamma]
    )
    return score_folds(folds, dec[0, 0], y)


def score_folds(
    folds: list[np.ndarray], decisions: np.ndarray, y: np.ndarray
) -> tuple[list[metrics.ConfusionCounts], metrics.RocCurve]:
    """Per-fold confusion counts plus a pooled ROC over held-out decisions."""
    pred = np.where(decisions > 0, 1, -1)
    return [metrics.accumulate(pred[f], y[f]) for f in folds], metrics.roc(decisions, y)


def run_pipeline(annotations_path: str, cfg: PipelineConfig, out_dir: str) -> dict:
    """Full run: extraction, grid search, final fit and artifacts.

    Writes features.csv, errors.csv (when any), surface.csv, model.json,
    report.csv and roc.csv into ``out_dir``. The report scores the searched
    cell from the search's own held-out decisions: one cross-validation, and
    the report's accuracy is the surface's best. Raises ``CaseFailures`` when
    failed cases leave a class with fewer cases than folds. Deterministic.
    """
    with open(annotations_path) as fh:
        rows = roi.read_annotations(fh.read())
    labels = [rec["label"] for rec in rows]
    _check_folds(labels, cfg)
    os.makedirs(out_dir, exist_ok=True)
    batch = extract_batch(rows, os.path.dirname(os.path.abspath(annotations_path)), cfg)
    write_file(os.path.join(out_dir, "features.csv"), feat.write_feature_csv(batch.feature_rows))
    if batch.errors:
        with open(os.path.join(out_dir, "errors.csv"), "w") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerows([("case", "stage", "message"), *batch.errors])
    kept = [lab for _, _, lab in batch.feature_rows]
    for lab in ("benign", "malignant"):
        if kept.count(lab) < cfg.folds:
            raise CaseFailures(f"{labels.count(lab) - kept.count(lab)} of {labels.count(lab)} "
                               f"{lab} cases failed (see errors.csv), too few left for "
                               f"{cfg.folds} folds")

    x, y, ids = rows_to_matrix(batch.feature_rows)
    search = grid_search(x, y, ids, cfg)
    write_file(os.path.join(out_dir, "surface.csv"), search.surface_csv())
    tuned = cfg.override(svm_c=search.best_c, svm_gamma=search.best_gamma)
    write_file(os.path.join(out_dir, "model.json"), svm.model_to_json(train(x, y, tuned)))

    per_fold, curve = score_folds(search.folds, search.decisions, y)
    write_file(os.path.join(out_dir, "report.csv"), metrics.report_csv(per_fold))
    write_file(os.path.join(out_dir, "roc.csv"), metrics.roc_csv(curve))
    return {
        "cases": len(batch.feature_rows),
        "errors": len(batch.errors),
        "best_c": search.best_c,
        "best_gamma": search.best_gamma,
        "cv_accuracy": search.best_accuracy,
        "auc": curve.auc,
    }
