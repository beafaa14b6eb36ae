"""Rasterized ground-truth images and image comparison metrics."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .phantom import Phantom


class SizeMismatch(ValueError):
    """Images being compared must share size and extent."""


class TargetQuantity(enum.Enum):
    CONDUCTIVITY = "conductivity"
    RESISTIVITY = "resistivity"


@dataclass(frozen=True)
class RasterImage:
    """Square grid of scalars on a physical frame spanning [-extent, extent]^2.

    Row 0 is the top of the image (y decreasing down the rows).  When
    ``masked`` is set, pixels strictly outside the inscribed circle are 0.
    """

    size: int
    pixels: np.ndarray
    extent: float
    masked: bool

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=float)
        if p.shape != (self.size, self.size):
            raise ValueError(f"pixels shape {p.shape} != ({self.size}, {self.size})")
        p.flags.writeable = False
        object.__setattr__(self, "pixels", p)


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


def inscribed_mask(size: int, extent: float) -> np.ndarray:
    """Boolean mask of pixel centers inside (or on) the inscribed circle."""
    xs, ys = pixel_centers(size, extent)
    return xs[None, :] ** 2 + ys[:, None] ** 2 <= extent * extent


def rasterize_target(
    phantom: Phantom, grid_size: int, quantity: TargetQuantity = TargetQuantity.CONDUCTIVITY
) -> RasterImage:
    """Ground-truth material map sampled at pixel centers.

    Each pixel takes the conductivity (or resistivity) of the material whose
    disk contains its center; 0 outside the subject.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    r = phantom.subject_radius
    xs, ys = pixel_centers(grid_size, r)
    gx = xs[None, :]
    gy = ys[:, None]

    def level(resistivity: float) -> float:
        if quantity is TargetQuantity.CONDUCTIVITY:
            return 1.0 / resistivity
        return resistivity

    img = np.zeros((grid_size, grid_size))
    inside = inscribed_mask(grid_size, r)
    img[inside] = level(phantom.subject_resistivity)
    for c in phantom.perturbations:
        hit = (gx - c.center_x) ** 2 + (gy - c.center_y) ** 2 <= c.radius * c.radius
        img[hit & inside] = level(c.resistivity)
    return RasterImage(size=grid_size, pixels=img, extent=r, masked=True)


def _region(img: RasterImage) -> np.ndarray:
    """Pixels that count: the inscribed circle when ``img.masked``, else all."""
    if img.masked:
        return inscribed_mask(img.size, img.extent)
    return np.ones((img.size, img.size), dtype=bool)


def rescale(img: RasterImage, top: float, flat: float) -> tuple[np.ndarray, float, float]:
    """Map the counted pixels affinely from their (lo, hi) range onto [0, top].

    Returns the mapped array, 0 outside the counted region, and (lo, hi).
    A region without spread maps to ``flat``, so a degenerate range never
    divides by zero; (lo, hi) is (0, 0) when no pixel counts.
    """
    mask = _region(img)
    vals = img.pixels[mask]
    lo, hi = (float(vals.min()), float(vals.max())) if vals.size else (0.0, 0.0)
    if hi > lo:
        vals -= lo
        vals /= hi - lo
        vals *= top
    else:
        vals[:] = flat
    out = np.zeros((img.size, img.size))
    out[mask] = vals
    return out, lo, hi


def normalize_image(img: RasterImage) -> RasterImage:
    """Min-max normalize to [0, 1] over the masked region; mask zeros preserved.

    A constant masked region maps to 0.5 everywhere inside the mask.
    """
    out, _, _ = rescale(img, 1.0, 0.5)
    return RasterImage(size=img.size, pixels=out, extent=img.extent, masked=img.masked)


def compare(a: RasterImage, b: RasterImage) -> MetricsReport:
    """RMSE, Pearson correlation and PSNR over the intersection of the masks.

    PSNR uses peak 1.0 (intended for normalized inputs) and is +inf for
    identical images; the Pearson correlation of a constant image is 0.
    """
    if a.size != b.size or a.extent != b.extent:
        raise SizeMismatch(
            f"image geometry mismatch: {a.size}/{a.extent} vs {b.size}/{b.extent}"
        )
    mask = _region(a) & _region(b)
    va = a.pixels[mask]
    vb = b.pixels[mask]

    rmse = float(np.sqrt(np.mean((va - vb) ** 2)))

    da = va - va.mean()
    db = vb - vb.mean()
    # elementwise reductions: threaded BLAS makes small dot products slow
    denom = math.sqrt(float((da * da).sum()) * float((db * db).sum()))
    pearson = float((da * db).sum()) / denom if denom > 0 else 0.0

    psnr = math.inf if rmse == 0 else 20.0 * math.log10(1.0 / rmse)
    return MetricsReport(rmse=rmse, pearson=pearson, psnr=psnr)
