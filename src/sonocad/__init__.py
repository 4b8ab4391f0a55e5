"""Superpixel-based tumor ROI extraction and benign/malignant classification
for B-mode ultrasound images. The API lives in the submodules, such as
``sonocad.pipeline`` and ``sonocad.svm``."""

__version__ = "0.1.0"
