"""Superpixel-based tumor ROI extraction and benign/malignant classification
for B-mode ultrasound images."""

from .config import PipelineConfig
from .features import FeatureVector, GlcmSpec, extract_all
from .image import histogram_equalize, denoise, preprocess, read_pgm, write_pgm
from .metrics import ConfusionCounts, RocCurve, accumulate, evaluate, roc
from .phantom import PhantomSpec, generate, generate_dataset
from .roi import RoiMask, grow, trace_boundary
from .slic import SlicParams, SuperpixelLabeling
from .svm import MinMaxNormalizer, SmoSVC, grid_search, kfold_split

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "FeatureVector", "GlcmSpec", "extract_all",
    "histogram_equalize", "denoise", "preprocess", "read_pgm", "write_pgm",
    "ConfusionCounts", "RocCurve", "accumulate", "evaluate", "roc",
    "PhantomSpec", "generate", "generate_dataset",
    "RoiMask", "grow", "trace_boundary",
    "SlicParams", "SuperpixelLabeling",
    "MinMaxNormalizer", "SmoSVC", "grid_search", "kfold_split",
]
