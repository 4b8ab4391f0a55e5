"""Grayscale image container, binary PGM I/O and preprocessing.

Images are 2-D uint8 numpy arrays (row-major, values 0..255). All windowed
operations clamp at the edges so output size always equals input size.
"""

from __future__ import annotations

import re

import numpy as np


class PgmParseError(ValueError):
    """Raised for malformed PGM streams; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def validate_image(img: np.ndarray) -> np.ndarray:
    """``img`` as an array; ValueError unless it is a nonempty 2-D uint8
    raster."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale array, got shape {img.shape}")
    if img.size == 0:
        raise ValueError("zero-area image")
    if img.dtype != np.uint8:
        raise ValueError(f"expected uint8 intensities, got {img.dtype}")
    return img


# whitespace and '#' comments to skip, then one whitespace-delimited token;
# each skipped item takes at least one byte and the token may be empty, so the
# match never backtracks
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    m = _TOKEN.match(data, pos)
    if not m[1]:
        raise PgmParseError("unexpected end of header", m.start(1))
    return m[1], m.end()


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


def _median3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def denoise(img: np.ndarray) -> np.ndarray:
    """3x3 median filter with edge-clamped sampling, by Paeth's exact min/max
    network (Graphics Gems, 1990): sort each vertical triple into low <= mid
    <= high, and the median is the median of the largest of three lows, the
    median of three mids and the smallest of three highs.
    """
    img = validate_image(img)
    p = np.pad(img, 1, mode="edge")
    a, b, c = p[:-2], p[1:-1], p[2:]
    low, high = np.minimum(a, b), np.maximum(a, b)
    m = np.minimum(high, c)
    high = np.maximum(high, c)
    low, mid = np.minimum(low, m), np.maximum(low, m)
    return _median3(
        np.maximum(np.maximum(low[:, :-2], low[:, 1:-1]), low[:, 2:]),
        _median3(mid[:, :-2], mid[:, 1:-1], mid[:, 2:]),
        np.minimum(np.minimum(high[:, :-2], high[:, 1:-1]), high[:, 2:]),
    )


def to_lightness(img: np.ndarray) -> np.ndarray:
    """Map intensities to the lightness channel l = v * 100 / 255.

    For grayscale input the two chroma channels of the Lab embedding are
    identically zero, so the color distance between pixels reduces to |l_j -
    l_i| and only the l plane is materialized.
    """
    img = validate_image(img)
    return img.astype(np.float64) * (100.0 / 255.0)


def preprocess(img: np.ndarray) -> np.ndarray:
    """Equalize, then take the 3x3 median."""
    return denoise(histogram_equalize(img))
