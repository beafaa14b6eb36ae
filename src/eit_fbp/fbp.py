"""Filtered back projection.

The whole sinogram is filtered at once in the frequency domain: one FFT down
the slice axis, zero-padded to a power of two, times the ramp-times-window
gains.  Each filtered column is then smeared back across the pixel grid along
its projection lines and accumulated over angles with weight pi / n_angles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .projector import Projection, Sinogram
from .raster import RasterImage, inscribed_mask, normalize_image, pixel_centers


class FrequencyOutOfRange(ValueError):
    """Normalized frequency must lie in [0, 1] (1 = Nyquist)."""


class EmptySinogram(ValueError):
    """Back projection needs at least one slice and one angle."""


class FilterKind(enum.Enum):
    RAM_LAK = "ramlak"
    SHEPP_LOGAN = "shepplogan"
    COSINE = "cosine"
    HAMMING = "hamming"
    HANN = "hann"
    NONE = "none"


class InterpKind(enum.Enum):
    NEAREST = "nearest"
    LINEAR = "linear"
    SPLINE = "spline"


@dataclass(frozen=True)
class ReconConfig:
    filter: FilterKind
    interp: InterpKind
    grid_size: int
    normalize: bool = True

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError(f"grid_size must be >= 2, got {self.grid_size}")


def filter_gain(kind: FilterKind, f: float) -> float:
    """Frequency response at normalized frequency f in [0, 1].

    All windowed kinds are the ramp |f| times their window; NONE is an
    all-pass used for unfiltered back projection.
    """
    if not 0.0 <= f <= 1.0:
        raise FrequencyOutOfRange(f"normalized frequency {f} outside [0, 1]")
    return float(_gains(kind, np.asarray(f, dtype=float)))


def _gains(kind: FilterKind, f: np.ndarray) -> np.ndarray:
    """:func:`filter_gain` at every normalized frequency in ``f``."""
    if kind is FilterKind.NONE:
        return np.ones_like(f)
    if kind is FilterKind.RAM_LAK:
        return f
    if kind is FilterKind.SHEPP_LOGAN:
        return f * np.sinc(f / 2.0)
    if kind is FilterKind.COSINE:
        return f * np.cos(np.pi * f / 2.0)
    if kind is FilterKind.HAMMING:
        return f * (0.54 + 0.46 * np.cos(np.pi * f))
    return f * 0.5 * (1.0 + np.cos(np.pi * f))  # Hann


def filter_projection(p: Projection, kind: FilterKind) -> Projection:
    """Apply a frequency filter to one projection.

    Values are zero-padded to the next power of two >= 2N before the FFT so
    circular-convolution wraparound cannot reach the data, then truncated
    back to N.  NONE returns the projection unchanged.
    """
    if kind is FilterKind.NONE:
        return p
    return Projection(_filter(p.values[:, None], kind)[:, 0], p.angle_deg, p.quantity)


def _filter(values: np.ndarray, kind: FilterKind) -> np.ndarray:
    """Filter every column of the (n_slices x n_columns) ``values`` at once.

    ``rfft`` zero-pads each column to the next power of two >= 2N itself.
    """
    n = values.shape[0]
    padded_len = 1 << max(2 * n - 1, 1).bit_length()
    spectrum = np.fft.rfft(values, n=padded_len, axis=0)
    half = padded_len // 2
    spectrum *= _gains(kind, np.arange(half + 1) / half)[:, None]
    return np.fft.irfft(spectrum, n=padded_len, axis=0)[:n]


def sample_projection(
    p: Projection,
    s: float,
    kind: InterpKind,
    subject_radius: float,
    slice_width: float,
) -> float:
    """Value of the projection at physical lateral coordinate ``s``.

    Slice centers sit at -R + (j + 1/2) w; outside [-R, R] the projection is
    extended with zeros.
    """
    if abs(s) > subject_radius:
        return 0.0
    t = (s + subject_radius - slice_width / 2.0) / slice_width
    return float(_sample_values(p.values, np.array([t]), kind)[0])


def _taps(padded: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """values[idx] with zero extension outside [0, n), where ``padded`` is
    ``values`` with two zeros on each side: clipping lands every index out of
    range on a zero."""
    return padded[np.clip(idx + 2, 0, padded.shape[0] - 1)]


def _sample_values(values: np.ndarray, t: np.ndarray, kind: InterpKind) -> np.ndarray:
    """Interpolate at fractional bin coordinates t (vectorized)."""
    values = np.pad(values, 2)
    if kind is InterpKind.NEAREST:
        # round half away from zero
        j = np.trunc(t + np.copysign(0.5, t)).astype(np.int64)
        return _taps(values, j)
    j0 = np.floor(t).astype(np.int64)
    u = t - j0
    if kind is InterpKind.LINEAR:
        return (1.0 - u) * _taps(values, j0) + u * _taps(values, j0 + 1)
    # Catmull-Rom cubic over the four surrounding bins
    pm1 = _taps(values, j0 - 1)
    p0 = _taps(values, j0)
    p1 = _taps(values, j0 + 1)
    p2 = _taps(values, j0 + 2)
    u2 = u * u
    u3 = u2 * u
    return 0.5 * (
        (2.0 * p0)
        + (p1 - pm1) * u
        + (2.0 * pm1 - 5.0 * p0 + 4.0 * p1 - p2) * u2
        + (3.0 * p0 - 3.0 * p1 + p2 - pm1) * u3
    )


def back_project(sino: Sinogram, config: ReconConfig) -> RasterImage:
    """Accumulate the (already filtered) sinogram over the pixel grid.

    Pixel centers span [-R, R]^2; each angle contributes its sampled column
    times d_theta = pi / n_angles, and pixels outside the inscribed circle
    are zeroed.
    """
    if sino.data.size == 0 or sino.n_angles == 0:
        raise EmptySinogram("sinogram has no data")
    size = config.grid_size
    r = sino.subject_radius
    w = sino.slice_width
    xs, ys = pixel_centers(size, r)
    gx = xs[None, :]
    gy = ys[:, None]

    acc = np.zeros((size, size))
    for a, theta in enumerate(sino.angles_deg):
        th = math.radians(theta)
        s = gx * math.cos(th) + gy * math.sin(th)
        t = (s + r - w / 2.0) / w
        contrib = _sample_values(sino.data[:, a], t, config.interp)
        contrib[np.abs(s) > r] = 0.0
        acc += contrib
    acc *= math.pi / sino.n_angles
    acc[~inscribed_mask(size, r)] = 0.0
    return RasterImage(size=size, pixels=acc, extent=r, masked=True)


def reconstruct(sino: Sinogram, config: ReconConfig) -> RasterImage:
    """Filter every column, back-project, and optionally min-max normalize."""
    if config.filter is not FilterKind.NONE:
        sino = replace(sino, data=_filter(sino.data, config.filter))
    image = back_project(sino, config)
    if config.normalize:
        image = normalize_image(image)
    return image
