"""Rasterized ground-truth images and image comparison metrics.

Every image is a square grid over the subject's bounding square, and only the
pixels inside or on its inscribed circle count: normalization, the display
range and comparison all read those pixels alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .phantom import Phantom


class SizeMismatch(ValueError):
    """Images being compared must share size and extent."""


@dataclass(frozen=True)
class RasterImage:
    """Square grid of scalars on a physical frame spanning [-extent, extent]^2.

    Row 0 is the top of the image (y decreasing down the rows).  Only the
    pixels whose centers lie inside or on the inscribed circle count.
    """

    pixels: np.ndarray
    extent: float

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.size == 0:
            raise ValueError(f"pixels must be a non-empty square 2-D array, got shape {p.shape}")
        if not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be finite and > 0, got {self.extent}")
        p.flags.writeable = False
        object.__setattr__(self, "pixels", p)

    @property
    def size(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class MetricsReport:
    rmse: float
    pearson: float
    psnr: float


def pixel_centers(size: int, extent: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centered x (left to right) and y (top to bottom) coordinates."""
    step = 2.0 * extent / size
    xs = -extent + (np.arange(size) + 0.5) * step
    ys = extent - (np.arange(size) + 0.5) * step
    return xs, ys


@functools.lru_cache(maxsize=4)  # a run holds one per distinct grid size, grid^2 bytes each
def inscribed_mask(size: int, extent: float) -> np.ndarray:
    """Boolean mask of pixel centers inside (or on) the inscribed circle: the one rule for
    which pixels count, built once per (size, extent) and returned read-only.

    The disk is exactly symmetric under both reflections and the transpose, although the pixel
    centers are not exactly antisymmetric: a center's x^2 + y^2 is R^2 (a^2 + b^2) / size^2 with
    a = 2j + 1 - size and b = 2i + 1 - size, and a^2 + b^2 is never size^2 (mod 4 it is 2 where
    size^2 is 0, and 0 where size^2 is 1), so it misses R^2 by at least R^2 / size^2, far more
    than rounding below a grid of 10^7.  So the top-left quadrant, rows and columns below
    (size + 1) / 2, with its reflections in x and y is the disk.
    """
    xs, ys = pixel_centers(size, extent)
    mask = xs[None, :] ** 2 + ys[:, None] ** 2 <= extent * extent
    mask.flags.writeable = False
    return mask


def rasterize_target(phantom: Phantom, grid_size: int) -> RasterImage:
    """Ground-truth conductivity map sampled at pixel centers.

    Each pixel inside the inscribed circle takes the conductivity of the
    material whose disk contains its center; pixels outside it are 0.  An
    inclusion is tested only on the rows and columns whose centers lie within
    its radius plus one pixel step of its center, a margin far wider than the
    rounding of the test, so no pixel it contains is left out.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    r = phantom.subject_radius
    xs, ys = pixel_centers(grid_size, r)
    step = 2.0 * r / grid_size

    img = np.zeros((grid_size, grid_size))
    inside = inscribed_mask(grid_size, r)
    img[inside] = 1.0 / phantom.subject_resistivity
    for c in phantom.perturbations:
        rows = _within(ys, c.center_y, c.radius + step)
        cols = _within(xs, c.center_x, c.radius + step)
        d2 = (xs[None, cols] - c.center_x) ** 2 + (ys[rows, None] - c.center_y) ** 2
        img[rows, cols][(d2 <= c.radius * c.radius) & inside[rows, cols]] = 1.0 / c.resistivity
    return RasterImage(img, r)


def _within(centers: np.ndarray, center: float, reach: float) -> slice:
    """The run of the monotonic ``centers`` within ``reach`` of ``center``."""
    near = np.flatnonzero(np.abs(centers - center) <= reach)
    return slice(near[0], near[-1] + 1) if near.size else slice(0, 0)


def rescale(img: RasterImage, flat: float) -> tuple[np.ndarray, float, float]:
    """Map the inscribed disk's pixels affinely from their (lo, hi) range onto [0, 1].

    Returns the mapped array, 0 outside the disk, and (lo, hi).  A disk
    without spread maps to ``flat``, so a degenerate range never divides by
    zero.
    """
    mask = inscribed_mask(img.size, img.extent)
    vals = img.pixels[mask]
    lo, hi = float(vals.min()), float(vals.max())
    if hi > lo:
        vals -= lo
        vals /= hi - lo
    else:
        vals[:] = flat
    out = np.zeros((img.size, img.size))
    out[mask] = vals
    return out, lo, hi


def normalize_image(img: RasterImage) -> RasterImage:
    """Min-max normalize the inscribed disk to [0, 1]; pixels outside it become 0.

    A constant disk maps to 0.5 everywhere inside it.
    """
    out, _, _ = rescale(img, 0.5)
    return RasterImage(out, img.extent)


def compare(a: RasterImage, b: RasterImage) -> MetricsReport:
    """RMSE, Pearson correlation and PSNR over the pixels of the inscribed disk.

    PSNR uses peak 1.0 (intended for normalized inputs) and is +inf for
    identical images; the Pearson correlation of a constant image is 0.
    """
    if a.size != b.size or a.extent != b.extent:
        raise SizeMismatch(
            f"image geometry mismatch: {a.size}/{a.extent} vs {b.size}/{b.extent}"
        )
    mask = inscribed_mask(a.size, a.extent)
    va = a.pixels[mask]
    vb = b.pixels[mask]
    scratch = np.subtract(va, vb)  # the squared error, then each product summed below
    rmse = float(np.sqrt(np.mean(np.square(scratch, out=scratch))))

    va -= va.mean()  # centred in place: three disk-sized buffers in all
    vb -= vb.mean()
    # elementwise reductions: threaded BLAS makes small dot products slow
    pairs = ((va, va), (vb, vb), (va, vb))
    aa, bb, ab = (float(np.multiply(u, v, out=scratch).sum()) for u, v in pairs)
    pearson = ab / math.sqrt(aa * bb) if aa * bb > 0 else 0.0

    psnr = math.inf if rmse == 0 else 20.0 * math.log10(1.0 / rmse)
    return MetricsReport(rmse=rmse, pearson=pearson, psnr=psnr)
