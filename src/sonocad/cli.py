"""Command-line front end.

Exit codes: 0 ok, 1 usage error, 2 input parse error, 3 run finished with
case-level failures (recorded in errors.csv).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import features as feat
from . import image, metrics, phantom, pipeline, roi, svm
from .config import PipelineConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CASE_FAILURES = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# config fields that a stage flag can set; each flag's dest is the field name
_FLAG_FIELDS = ("n_segments", "grow_threshold", "svm_c", "svm_gamma", "folds")


def _load_config(args) -> PipelineConfig:
    """The ``--config`` file (or the defaults), with the given flags on top."""
    cfg = PipelineConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = PipelineConfig.from_json(fh.read())
    return cfg.override(**{f: getattr(args, f, None) for f in _FLAG_FIELDS})


def cmd_preprocess(args) -> int:
    _load_config(args)  # a bad document exits 2, as in every stage
    out = image.preprocess(pipeline.read_image(args.input))
    pipeline.write_file(args.output, image.write_pgm(out))
    return EXIT_OK


def cmd_segment(args) -> int:
    try:
        sx, sy = roi.parse_seed(args.seed.split(","))
    except ValueError:
        print(f"error: bad --seed {args.seed!r}, expected X,Y", file=sys.stderr)
        return EXIT_USAGE
    cfg = _load_config(args)
    pre = image.preprocess(pipeline.read_image(args.input))
    mask = pipeline.segment(pre, sx, sy, cfg)
    pipeline.write_file(args.out_mask, roi.mask_to_pgm(mask.mask))
    pipeline.write_file(args.out_contour, roi.boundary_to_text(mask.boundary))
    return EXIT_OK


def cmd_features(args) -> int:
    from scipy import ndimage
    _load_config(args)
    pre = image.preprocess(pipeline.read_image(args.input))
    mask = roi.pgm_to_mask(pipeline.read_image(args.mask))
    _, n_regions = ndimage.label(mask, structure=np.ones((3, 3)))
    if n_regions != 1:  # the boundary trace follows one region only
        raise ValueError(f"mask has {n_regions} 8-connected regions, expected 1")
    roi_mask = roi.RoiMask.from_mask(mask)
    fv = feat.extract_all(pre, roi_mask)
    pipeline.write_file(args.out, feat.write_feature_csv([(args.input, fv, args.label)]))
    return EXIT_OK


def _load_features(path: str):
    with open(path) as fh:
        return pipeline.rows_to_matrix(feat.read_feature_csv(fh.read()))


def cmd_train(args) -> int:
    cfg = _load_config(args)
    x, y, _ = _load_features(args.features)
    pipeline.write_file(args.out, svm.model_to_json(pipeline.train(x, y, cfg)))
    return EXIT_OK


def cmd_gridsearch(args) -> int:
    cfg = _load_config(args)
    x, y, ids = _load_features(args.features)
    result = pipeline.grid_search(x, y, ids, cfg)
    pipeline.write_file(args.out, result.surface_csv())
    print(f"best c={result.best_c:.6g} gamma={result.best_gamma:.6g} "
          f"cv_accuracy={result.best_accuracy:.4f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    with open(args.model) as fh:
        clf = svm.model_from_json(fh.read())
    x, y, ids = _load_features(args.features)
    cfg = cfg.override(svm_c=clf.c, svm_gamma=clf.kernel_spec.gamma)
    per_fold, curve = pipeline.evaluate_cv(x, y, ids, cfg)
    pipeline.write_file(args.out, metrics.report_csv(per_fold))
    if args.roc:
        pipeline.write_file(args.roc, metrics.roc_csv(curve))
    print(f"auc={curve.auc:.4f}")
    return EXIT_OK


def cmd_phantom(args) -> int:
    cases = phantom.generate_dataset(
        n_benign=args.benign, n_malignant=args.malignant,
        seed=args.seed, speckle_sigma=args.speckle,
    )
    ann = phantom.write_dataset(cases, args.out_dir)
    print(f"wrote {len(cases)} cases, annotations at {ann}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    summary = pipeline.run_pipeline(args.annotations, cfg, args.out_dir)
    print(json.dumps(summary, indent=2))
    return EXIT_CASE_FAILURES if summary["errors"] else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sonocad",
                     description="Ultrasound tumor segmentation, features and classification")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, about: str):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", default=None, help="PipelineConfig JSON; flags override it")
        return p

    p = stage("preprocess", "equalize + denoise an image")
    p.add_argument("input"); p.add_argument("output")
    p.set_defaults(func=cmd_preprocess)

    p = stage("segment", "extract the ROI from a seed point")
    p.add_argument("input")
    p.add_argument("--seed", required=True, metavar="X,Y")
    p.add_argument("--k", dest="n_segments", type=int, default=None)
    p.add_argument("--threshold", dest="grow_threshold", type=float, default=None)
    p.add_argument("--out-mask", required=True)
    p.add_argument("--out-contour", required=True)
    p.set_defaults(func=cmd_segment)

    p = stage("features", "feature vector of an image + mask (image preprocessed first)")
    p.add_argument("input"); p.add_argument("mask")
    p.add_argument("--out", required=True)
    p.add_argument("--label", default="unknown", choices=roi.LABELS)
    p.set_defaults(func=cmd_features)

    p = stage("train", "train an SVM on a feature CSV")
    p.add_argument("features")
    p.add_argument("--c", dest="svm_c", type=float, default=None)
    p.add_argument("--gamma", dest="svm_gamma", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = stage("gridsearch", "CV accuracy over the (C, gamma) lattice")
    p.add_argument("features")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gridsearch)

    p = stage("evaluate", "k-fold evaluation of a trained model's settings")
    p.add_argument("model"); p.add_argument("features")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--roc", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("phantom", help="generate a synthetic labeled dataset")
    p.add_argument("--benign", type=int, default=62)
    p.add_argument("--malignant", type=int, default=88)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speckle", type=float, default=0.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_phantom)

    p = stage("pipeline", "run the whole chain from an annotation CSV")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except image.PgmParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except pipeline.CaseFailures as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CASE_FAILURES
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
