"""Lossless 16-bit PGM output plus an 8-bit PNG preview.

Both writers take a unit map, an image already mapped onto [0, 1], and only
encode it: each rounds it to its own integer range in the file's dtype.  Both
are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

PGM_MAXVAL = 65535
PNG_MAXVAL = 255
# the unit level of a disk without spread: it rounds to 32767 in the PGM and 127 in the PNG
MID_GRAY = (PGM_MAXVAL // 2) / PGM_MAXVAL


def _levels(unit: np.ndarray, maxval: int, dtype: str) -> np.ndarray:
    """``unit`` rounded to [0, maxval] in ``dtype``, 64 rows at a time, so the
    float temporary stays a fraction of the unit map that the caller holds."""
    levels = np.empty(unit.shape, dtype)
    for i in range(0, len(unit), 64):
        levels[i : i + 64] = np.rint(unit[i : i + 64] * maxval)
    return levels


def write_atomic(path: str | Path, data: bytes | bytearray) -> None:
    """Write ``data`` under a temporary name next to ``path``, then move it
    into place, so ``path`` never holds a partly written file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def write_pgm(path: str | Path, unit: np.ndarray) -> None:
    """Write the square ``unit`` map as a binary 16-bit P5 PGM."""
    header = f"P5\n{len(unit)} {len(unit)}\n{PGM_MAXVAL}\n".encode("ascii")
    write_atomic(path, header + _levels(unit, PGM_MAXVAL, ">u2").tobytes())


def write_png(path: str | Path, unit: np.ndarray) -> None:
    """Write the square ``unit`` map as an 8-bit grayscale PNG, deflated at zlib level 1.

    Every scanline is filtered by Up (type 2): each byte minus the one above it, mod 256,
    the first row's row above counting as zeros.  The images are smooth, so the differences
    deflate well even at zlib's fastest level.
    """
    levels = _levels(unit, PNG_MAXVAL, "u1")
    raw = np.empty((len(unit), len(unit) + 1), np.uint8)
    raw[:, 0] = 2  # the filter type before each scanline
    raw[0, 1:] = levels[0]
    np.subtract(levels[1:], levels[:-1], out=raw[1:, 1:])

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", len(unit), len(unit), 8, 0, 0, 0, 0)
    payload = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw, 1))
        + chunk(b"IEND", b"")
    )
    write_atomic(path, payload)
