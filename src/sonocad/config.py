"""Run configuration: one JSON document fully determines a pipeline run."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import get_args, get_origin, get_type_hints

from .image import MAX_DENOISE_RADIUS
from .slic import SlicParams
from .svm import DEFAULT_EXPONENTS, KernelSpec, exponent_lattice, finite_number

CONFIG_VERSION = 1  # the document's format: to_json writes it, from_json requires it


@dataclass(frozen=True)
class PipelineConfig:
    # preprocessing; denoise_radius 0 skips the median filter
    denoise_radius: int = 1
    # superpixels; the other SLIC, GLCM and posterior settings are constants:
    # slic.COMPACTNESS, MAX_ITERS and CONV_EPS, features.GlcmSpec and
    # features.POSTERIOR_FRACTION
    n_segments: int = 50
    # region growing; None = 0.15 x intensity range of the preprocessed image
    grow_threshold: float | None = None
    # RBF classifier / evaluation
    svm_c: float = 1.0
    svm_gamma: float = 1.0
    folds: int = 5
    seed: int = 0
    c_exponents: tuple[float, float, float] = DEFAULT_EXPONENTS
    g_exponents: tuple[float, float, float] = DEFAULT_EXPONENTS

    def __post_init__(self):
        hints = get_type_hints(type(self))
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, hints[f.name]):
                raise ValueError(f"config field {f.name}: {value!r} is not {f.type}")
        # the stage parameter objects and helpers check their own ranges
        for name, check in [("n_segments", SlicParams),
                            ("svm_gamma", lambda g: KernelSpec(gamma=g)),
                            ("c_exponents", lambda e: exponent_lattice(*e)),
                            ("g_exponents", lambda e: exponent_lattice(*e))]:
            try:
                check(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"config field {name}: {exc}") from None
        for name, ok, rule in [
            ("denoise_radius", 0 <= self.denoise_radius <= MAX_DENOISE_RADIUS,
             f">= 0 (0 skips the filter) and <= {MAX_DENOISE_RADIUS}"),
            ("svm_c", self.svm_c > 0, "> 0"),
            ("grow_threshold", self.grow_threshold is None or self.grow_threshold >= 0, ">= 0"),
            ("folds", self.folds >= 2, ">= 2"),
            ("seed", self.seed >= 0, ">= 0"),
        ]:
            if not ok:
                raise ValueError(f"config field {name}: must be {rule}")

    def to_json(self) -> str:
        return json.dumps({"version": CONFIG_VERSION, **asdict(self)}, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        version = data.pop("version", None)
        if type(version) is not int or version != CONFIG_VERSION:  # not a bool, not 1.0
            raise ValueError(f"unsupported config version {version!r}")
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
        return finite_number(value)
    return isinstance(value, hint)
