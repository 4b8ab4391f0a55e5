"""Grayscale image container, binary PGM I/O and preprocessing.

Images are 2-D uint8 numpy arrays (row-major, values 0..255). All windowed
operations clamp at the edges so output size always equals input size.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


class PgmParseError(ValueError):
    """Raised for malformed PGM streams; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def validate_image(img: np.ndarray) -> np.ndarray:
    """Check that ``img`` is a nonempty 2-D uint8 raster and return it."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale array, got shape {img.shape}")
    if img.size == 0:
        raise ValueError("zero-area image")
    if img.dtype != np.uint8:
        if img.min() < 0 or img.max() > 255:
            raise ValueError("intensities outside [0, 255]")
        img = img.astype(np.uint8)
    return img


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comments, then read one whitespace-delimited token.
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmParseError("unexpected end of header", pos)
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _read_int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, end = _read_token(data, pos)
    if not tok.isdigit():
        raise PgmParseError(f"invalid {what} {tok!r}", end - len(tok))
    return int(tok), end


def read_pgm(data: bytes) -> np.ndarray:
    """Parse a binary (P5) PGM byte stream into a uint8 image on 0..255.

    Only maxval <= 255 is accepted, and no sample may exceed it; ASCII (P2)
    files are rejected. A sample v is rescaled to round(v * 255 / maxval),
    halves rounding up, so maxval 255 reads unchanged and a sample equal to
    maxval reads as 255.
    """
    if data[:2] == b"P2":
        raise PgmParseError("ASCII PGM (P2) is not supported, need binary P5", 0)
    if data[:2] != b"P5":
        raise PgmParseError(f"bad magic {data[:2]!r}, expected b'P5'", 0)
    width, pos = _read_int_token(data, 2, "width")
    height, pos = _read_int_token(data, pos, "height")
    maxval, pos = _read_int_token(data, pos, "maxval")
    if width <= 0 or height <= 0:
        raise PgmParseError(f"non-positive dimensions {width}x{height}", pos)
    if maxval > 255:
        raise PgmParseError(f"maxval {maxval} exceeds 255", pos)
    if maxval <= 0:
        raise PgmParseError(f"non-positive maxval {maxval}", pos)
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PgmParseError("missing whitespace before pixel data", pos)
    pos += 1
    need = width * height
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise PgmParseError(
            f"truncated payload, expected {need} bytes got {len(payload)}",
            pos + len(payload),
        )
    samples = np.frombuffer(payload, dtype=np.uint8)
    over = np.flatnonzero(samples > maxval)
    if over.size:
        raise PgmParseError(
            f"sample {samples[over[0]]} exceeds maxval {maxval}", pos + int(over[0])
        )
    scaled = (samples.astype(np.uint32) * 255 + maxval // 2) // maxval
    return scaled.astype(np.uint8).reshape(height, width)


def write_pgm(img: np.ndarray) -> bytes:
    """Serialize a uint8 image as canonical binary PGM (P5, maxval 255)."""
    img = validate_image(img)
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes()


def histogram_equalize(img: np.ndarray) -> np.ndarray:
    """Standard CDF-remap histogram equalization.

    out(v) = round(255 * (cdf(v) - cdf_min) / (N - cdf_min)); an image with a
    single occupied bin maps to constant 0 (the denominator would be 0).
    """
    img = validate_image(img)
    hist = np.bincount(img.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    n = img.size
    cdf_min = cdf[np.nonzero(hist)[0][0]]
    if cdf_min == n:
        return np.zeros_like(img)
    lut = np.round(255.0 * (cdf - cdf_min) / (n - cdf_min))
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    return lut[img]


def denoise(img: np.ndarray, radius: int = 1) -> np.ndarray:
    """Median filter over a (2*radius+1)^2 window with edge-clamped sampling."""
    img = validate_image(img)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return ndimage.median_filter(img, size=2 * radius + 1, mode="nearest")


def unsharp(img: np.ndarray, amount: float = 1.0, radius: int = 1) -> np.ndarray:
    """Unsharp mask: img + amount * (img - boxblur(img)), clamped to [0, 255]."""
    img = validate_image(img)
    if amount < 0:
        raise ValueError("amount must be >= 0")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if amount == 0:
        return img.copy()
    blur = ndimage.uniform_filter(img.astype(np.float64), size=2 * radius + 1, mode="nearest")
    out = img.astype(np.float64) + amount * (img.astype(np.float64) - blur)
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


def to_lightness(img: np.ndarray) -> np.ndarray:
    """Map intensities to the lightness channel l = v * 100 / 255.

    For grayscale input the two chroma channels of the Lab embedding are
    identically zero, so the color distance between pixels reduces to |l_j -
    l_i| and only the l plane is materialized.
    """
    img = validate_image(img)
    return img.astype(np.float64) * (100.0 / 255.0)


def preprocess(
    img: np.ndarray,
    denoise_radius: int = 1,
    unsharp_amount: float = 0.0,
    unsharp_radius: int = 1,
) -> np.ndarray:
    """Equalize, then median-denoise, then (optionally) sharpen.

    ``denoise_radius=0`` skips the median filter; ``unsharp_amount=0``
    (the default) skips sharpening.
    """
    out = histogram_equalize(img)
    if denoise_radius != 0:
        out = denoise(out, denoise_radius)
    if unsharp_amount != 0:
        out = unsharp(out, unsharp_amount, unsharp_radius)
    return out
