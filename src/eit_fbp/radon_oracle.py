"""Discrete Radon transform of raster images.

Deliberately simple pixel-based binning: each pixel's value is shared
linearly between the two lateral bins nearest its projected center, scaled
by pixel area / bin width.  (Dumping the whole value into a single bin
aliases badly against the bin grid at 45 degrees.)  It integrates every
pixel it is given, inside the inscribed circle or not.  It shares no code
path with the analytic projector or the FBP sampler, which is what makes it
useful as a cross-check and for round-trip tests.
"""

from __future__ import annotations

import math

import numpy as np

from .fbp import ReconConfig, reconstruct
from .projector import InvalidAngleStep, Quantity, Sinogram, sweep_angles
from .raster import RasterImage, pixel_centers


def discrete_radon(img: RasterImage, angle_step: float, n_bins: int) -> Sinogram:
    """Line-integral sinogram of ``img`` over the half-open [0, 180) sweep."""
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    angles = sweep_angles(angle_step)  # raises InvalidAngleStep
    r = img.extent
    bin_width = 2.0 * r / n_bins
    pixel_size = 2.0 * r / img.size
    weight = img.pixels.ravel() * (pixel_size * pixel_size / bin_width)

    xs, ys = pixel_centers(img.size, r)
    gx = np.broadcast_to(xs[None, :], (img.size, img.size)).ravel()
    gy = np.broadcast_to(ys[:, None], (img.size, img.size)).ravel()

    data = np.zeros((n_bins, len(angles)))
    for a, theta in enumerate(angles):
        th = math.radians(theta)
        proj = gx * math.cos(th) + gy * math.sin(th)
        inside = (proj >= -r) & (proj <= r)
        # fractional position on the bin-center grid; ends clamp so no mass leaks
        u = (proj[inside] + r) / bin_width - 0.5
        j0 = np.floor(u).astype(np.int64)
        frac = u - j0
        lo = np.clip(j0, 0, n_bins - 1)
        hi = np.clip(j0 + 1, 0, n_bins - 1)
        w = weight[inside]
        data[:, a] = np.bincount(lo, weights=w * (1.0 - frac), minlength=n_bins) + np.bincount(
            hi, weights=w * frac, minlength=n_bins
        )
    return Sinogram(
        data=data,
        angles_deg=angles,
        quantity=Quantity.CONDUCTANCE,
        slice_width=bin_width,
        subject_radius=r,
    )


def round_trip(img: RasterImage, config: ReconConfig, angle_step: float) -> RasterImage:
    """Radon transform followed by filtered back projection, for fidelity tests."""
    return reconstruct(discrete_radon(img, angle_step, img.size), config)


__all__ = ["discrete_radon", "round_trip", "InvalidAngleStep"]
