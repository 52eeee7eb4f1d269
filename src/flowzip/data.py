"""Dataset handling: synthetic image generation and PPM / raw-tensor files.

The synthetic generator draws coarse uniform noise on a (H/4+1, W/4+1) node
grid, bilinearly upsamples it, and adds fine uniform noise of amplitude 8,
all from a SplitMix64 stream, so images are spatially correlated, span the
byte range, and are byte-identical for a given seed on any platform.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import DataFormatError
from .numerics import SplitMix64

FINE_NOISE = 8.0
COARSE_STEP = 4

U8T_MAGIC = b"U8T1"
# a run of whitespace or one '#' comment line; a header field of at most 9 digits
_PPM_SKIP = re.compile(rb"\s+|#[^\n]*\n")
_PPM_FIELD = re.compile(rb"\d{1,9}(?!\d)")


def gen_synth(seed: int, count: int, h: int = 16, w: int = 16, c: int = 3) -> np.ndarray:
    """Deterministic synthetic dataset of shape (count, c, h, w), dtype uint8."""
    if min(h, w) < 1 or h % COARSE_STEP or w % COARSE_STEP:
        raise DataFormatError(f"synthetic dims must be positive multiples of {COARSE_STEP}")
    rng = SplitMix64(seed)
    gh, gw = h // COARSE_STEP + 1, w // COARSE_STEP + 1
    nodes = rng.uniform(count * c * gh * gw).reshape(count, c, gh, gw) * 255.0
    fine = (rng.uniform(count * c * h * w).reshape(count, c, h, w) - 0.5) * (
        2 * FINE_NOISE
    )

    # bilinear interpolation of the node grid at pixel centers
    yi = np.arange(h)
    xi = np.arange(w)
    y0, ty = yi // COARSE_STEP, (yi % COARSE_STEP) / COARSE_STEP
    x0, tx = xi // COARSE_STEP, (xi % COARSE_STEP) / COARSE_STEP
    top = nodes[:, :, y0][:, :, :, x0] * (1 - tx) + nodes[:, :, y0][:, :, :, x0 + 1] * tx
    bot = (
        nodes[:, :, y0 + 1][:, :, :, x0] * (1 - tx)
        + nodes[:, :, y0 + 1][:, :, :, x0 + 1] * tx
    )
    img = top * (1 - ty[None, None, :, None]) + bot * ty[None, None, :, None]
    img = np.clip(img + fine, 0.0, 255.0)
    return np.floor(img + 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# file formats


def write_ppm(path: str, image: np.ndarray):
    """Canonical binary PPM (P6, maxval 255) from a (3,H,W) uint8 tensor."""
    c, h, w = image.shape
    if c != 3:
        raise DataFormatError("PPM requires exactly 3 channels")
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(image.transpose(1, 2, 0)).tobytes())


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise DataFormatError(f"cannot read image: {e}") from e


def read_ppm(path: str) -> np.ndarray:
    data = _read_bytes(path)
    if not data.startswith(b"P6"):
        raise DataFormatError(f"{path}: not a binary PPM (P6) file")
    # header: three whitespace-separated fields after P6, '#' comments allowed;
    # each match consumes what it scans, so the scan is linear in the header
    if _PPM_SKIP.match(data, 2) is None:
        raise DataFormatError(f"{path}: malformed PPM header")
    pos, fields = 2, []
    while len(fields) < 3:
        m = _PPM_SKIP.match(data, pos)
        if m is not None:
            pos = m.end()
            continue
        m = _PPM_FIELD.match(data, pos)
        if m is None:
            raise DataFormatError(f"{path}: malformed PPM header")
        fields.append(int(m.group()))
        pos = m.end()
    w, h, maxval = fields
    if maxval != 255:
        raise DataFormatError(f"{path}: only maxval 255 is supported")
    # exactly one whitespace byte after maxval; a comment there is refused
    if not data[pos : pos + 1].isspace():
        raise DataFormatError(f"{path}: malformed PPM header")
    pos += 1
    pixels = data[pos : pos + 3 * h * w]
    if len(pixels) != 3 * h * w:
        raise DataFormatError(f"{path}: truncated pixel data")
    return (
        np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1).copy()
    )


def write_u8t(path: str, image: np.ndarray):
    """Raw planar tensor: magic | c u8 | h u16 | w u16 | c*h*w bytes. A shape
    the header cannot hold is refused before the file is opened."""
    c, h, w = image.shape
    if c > 0xFF or max(h, w) > 0xFFFF:
        raise DataFormatError(f"{path}: shape {c}x{h}x{w} exceeds the u8t header's u8/u16/u16")
    with open(path, "wb") as f:
        f.write(U8T_MAGIC)
        f.write(bytes([c]))
        f.write(int(h).to_bytes(2, "little"))
        f.write(int(w).to_bytes(2, "little"))
        f.write(np.ascontiguousarray(image).tobytes())


def read_u8t(path: str) -> np.ndarray:
    data = _read_bytes(path)
    if len(data) < 9 or data[:4] != U8T_MAGIC:
        raise DataFormatError(f"{path}: not a raw u8 tensor file")
    c = data[4]
    h = int.from_bytes(data[5:7], "little")
    w = int.from_bytes(data[7:9], "little")
    if len(data) != 9 + c * h * w:
        raise DataFormatError(f"{path}: payload size mismatch")
    return np.frombuffer(data, dtype=np.uint8, offset=9).reshape(c, h, w).copy()


# extension (without its dot) -> (reader, writer): the one list of image formats
IMAGE_FORMATS = {"ppm": (read_ppm, write_ppm), "u8t": (read_u8t, write_u8t)}


def _image_format(path: str):
    for ext, rw in IMAGE_FORMATS.items():
        if path.endswith("." + ext):
            return rw
    raise DataFormatError(f"{path}: unsupported image extension")


def read_image(path: str) -> np.ndarray:
    return _image_format(path)[0](path)


def write_image(path: str, image: np.ndarray):
    _image_format(path)[1](path, image)


def load_dataset(paths: list[str]) -> np.ndarray:
    """Read images into one (N,C,H,W) array; all must share a single shape."""
    if not paths:
        raise DataFormatError("no input images")
    images = [read_image(p) for p in sorted(paths)]
    shape = images[0].shape
    for p, img in zip(sorted(paths), images):
        if img.shape != shape:
            raise DataFormatError(f"{p}: shape {img.shape} differs from {shape}")
    return np.stack(images)


def dataset_paths(directory: str) -> list[str]:
    try:
        names = sorted(os.listdir(directory))
    except OSError as e:
        raise DataFormatError(f"cannot list {directory}: {e}") from e
    exts = tuple("." + ext for ext in IMAGE_FORMATS)
    return [os.path.join(directory, n) for n in names if n.endswith(exts)]
