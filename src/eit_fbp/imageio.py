"""Lossless 16-bit PGM output plus an 8-bit PNG preview.

Pixels inside the inscribed disk are mapped affinely from [lo, hi] (their
data range) onto the full integer range, and the rest are written as 0; the
mapping is returned so callers can record it next to the file.  Levels are made
in the file's dtype; both writers are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .raster import RasterImage, rescale

PGM_MAXVAL = 65535
PNG_MAXVAL = 255


def _to_levels(img: RasterImage, maxval: int, dtype: str) -> tuple[np.ndarray, float, float]:
    """Quantize to [0, maxval] in ``dtype``; a constant disk maps to mid-gray."""
    out, lo, hi = rescale(img, maxval, maxval // 2)  # a fresh array, so rounded in place
    np.rint(np.clip(out, 0, maxval, out=out), out=out)
    return out.astype(dtype), lo, hi


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` under a temporary name next to ``path``, then move it
    into place, so ``path`` never holds a partly written file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def write_pgm(path: str | Path, img: RasterImage) -> tuple[float, float]:
    """Write a binary 16-bit P5 PGM; returns the (lo, hi) display mapping."""
    levels, lo, hi = _to_levels(img, PGM_MAXVAL, ">u2")
    header = f"P5\n{img.size} {img.size}\n{PGM_MAXVAL}\n".encode("ascii")
    write_atomic(path, header + levels.tobytes())
    return lo, hi


def write_png(path: str | Path, img: RasterImage) -> tuple[float, float]:
    """Write an 8-bit grayscale PNG preview; returns the (lo, hi) display mapping."""
    levels, lo, hi = _to_levels(img, PNG_MAXVAL, "u1")
    raw = np.pad(levels, ((0, 0), (1, 0))).tobytes()  # filter type 0 before each scanline

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", img.size, img.size, 8, 0, 0, 0, 0)
    payload = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw, 9))
        + chunk(b"IEND", b"")
    )
    write_atomic(path, payload)
    return lo, hi
