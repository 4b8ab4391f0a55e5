"""Run configuration: one JSON document fully determines a pipeline run."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import get_args, get_origin, get_type_hints

from .slic import SlicParams
from .svm import KernelSpec, exponent_lattice

CONFIG_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig:
    version: int = CONFIG_VERSION
    # preprocessing; denoise_radius 0 skips the median filter
    denoise_radius: int = 1
    # superpixels; the other SLIC, GLCM and posterior settings are fixed at
    # the defaults of SlicParams, GlcmSpec and features.POSTERIOR_FRACTION
    n_segments: int = 50
    # region growing; None = 0.15 x intensity range of the preprocessed image
    grow_threshold: float | None = None
    # RBF classifier / evaluation
    svm_c: float = 1.0
    svm_gamma: float = 1.0
    folds: int = 5
    seed: int = 0
    c_exponents: tuple[float, float, float] = (-8.0, 8.0, 0.4)
    g_exponents: tuple[float, float, float] = (-8.0, 8.0, 0.4)

    def __post_init__(self):
        hints = get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, hints[f.name]):
                raise ValueError(f"config field {f.name}: {value!r} is not {f.type}")
        # the stage parameter objects and helpers check their own ranges
        SlicParams(n_segments=self.n_segments)
        KernelSpec(gamma=self.svm_gamma)
        for triple in (self.c_exponents, self.g_exponents):
            exponent_lattice(*triple)
        for name, ok, rule in [
            ("denoise_radius", self.denoise_radius >= 0, ">= 0 (0 skips the filter)"),
            ("svm_c", self.svm_c > 0, "> 0"),
            ("grow_threshold", self.grow_threshold is None or self.grow_threshold >= 0, ">= 0"),
            ("folds", self.folds >= 2, ">= 2"),
        ]:
            if not ok:
                raise ValueError(f"config field {name}: must be {rule}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        if data.get("version") != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {data.get('version')!r}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config fields {sorted(extra)}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})

    def override(self, **kwargs) -> "PipelineConfig":
        """Copy with the given fields replaced (flag-over-file precedence)."""
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the declared type; an int a float holds passes for
    a float, a bool for neither, and NaN or an infinity for no number."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        return (isinstance(value, tuple) and len(value) == len(args)
                and all(map(_conforms, value, args)))
    if args:  # a union, such as float | None
        return any(_conforms(value, a) for a in args)
    if isinstance(value, bool) or hint is type(None):
        return value is None
    if hint is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int that no float holds
            return False
    return isinstance(value, hint)
