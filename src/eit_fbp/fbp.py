"""Filtered back projection.

The whole sinogram is filtered at once in the frequency domain: one FFT down
the slice axis, zero-padded to a power of two, times the ramp-times-window
gains.  Each filtered column is then smeared back across the pixel grid along
its projection lines and accumulated over angles with weight pi / n_angles.
One basis matrix per interpolation kind turns every column into a table of
polynomial pieces, which is evaluated at the pixels by Horner's rule.  An angle
and its mirror 180 - theta share one lateral grid, since t at 180 - theta is t
at theta mirrored in x: it is located once and both tables are evaluated on it.
That changes the order of the sums, so images match earlier releases to
rounding level rather than bit for bit.

Large grids are back-projected in contiguous row blocks, one thread per usable
CPU, in buffers the caller allocates once: memory does not grow with the CPU
count, and since every pixel sees the same operations in the same order, the
image is bit-identical for any CPU count.
"""

from __future__ import annotations

import enum
import math
import os
import threading
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
    work = np.array([[(s + subject_radius - slice_width / 2.0) / slice_width], [0.0], [0.0]])
    return float(_interpolate(_pieces(p.values[None, :], kind)[0], kind, work, np.empty(1, int))[0])


# Rows: coefficients of the piece on [j, j + 1), highest power first; columns: bins j - 1 .. j + 2
_BASIS = {
    InterpKind.NEAREST: np.array([[0.0, 1, 0, 0]]),
    InterpKind.LINEAR: np.array([[0.0, -1, 1, 0], [0, 1, 0, 0]]),
    InterpKind.SPLINE: np.array([[-1, 3, -3, 1], [2, -5, 4, -1], [-1, 0, 1, 0], [0, 2, 0, 0]]) / 2,
}


def _pieces(rows: np.ndarray, kind: InterpKind) -> np.ndarray:
    """Piece tables (rows x coefficients x n_bins + 5), piece k on [k - 3, k - 2), of rows
    padded with four zeros each side; ``einsum`` keeps threaded BLAS out of it."""
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(rows, ((0, 0), (4, 4))), 4, axis=1)
    return np.einsum("cw,akw->ack", _BASIS[kind], windows, order="C")


def _interpolate(
    table: np.ndarray, kind: InterpKind, work: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """One row's piece table at the bin coordinates in ``work[0]`` by Horner's rule, clipping
    onto the zero end pieces; ``work`` (three float arrays) and ``index`` are overwritten."""
    t, _, scratch = work
    if kind is InterpKind.NEAREST:  # round half away from zero
        np.trunc(np.add(t, np.copysign(0.5, t, out=scratch), out=scratch), out=scratch)
    else:
        np.floor(t, out=scratch)
        t -= scratch  # offset into the piece
    np.add(scratch, 3, out=index, casting="unsafe")  # the piece on [j, j + 1)
    return _evaluate(table, work, index)


def _evaluate(table: np.ndarray, work: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The pieces of ``table`` at ``index`` at the offsets in ``work[0]`` that
    :func:`_interpolate` left; ``work[1]`` and ``work[2]`` are overwritten."""
    t, value, scratch = work
    np.take(table[0], index, out=value, mode="clip")
    for coefficients in table[1:]:
        value *= t
        value += np.take(coefficients, index, out=scratch, mode="clip")
    return value


# Least pixels a row block gets: two blocks of 2^14 broke even with one (grid 182, 180 angles)
_MIN_BLOCK_PIXELS = 2**14


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is not exposed)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mirror_pairs(angles_deg: tuple[float, ...]) -> list[tuple[int, int | None]]:
    """Every angle's index in sinogram order, each with the index of its mirror 180 - angle,
    or alone: the lower angle of a pair stands for both, and the partner is left out.

    A pair sums to 180 within one ulp of 180, as ``i * step`` sweeps do; found by two
    pointers over the sorted angles, so each angle pairs at most once and never with an
    equal angle.
    """
    order = sorted(range(len(angles_deg)), key=angles_deg.__getitem__)
    partner: dict[int, int] = {}
    lo, hi = 0, len(order) - 1
    while lo < hi:
        a, b = angles_deg[order[lo]], angles_deg[order[hi]]
        excess = a + b - 180.0
        if abs(excess) <= math.ulp(180.0) and a < b:
            partner[order[lo]] = order[hi]
            lo, hi = lo + 1, hi - 1
        elif excess < 0:
            lo += 1
        else:
            hi -= 1
    partners = set(partner.values())
    return [(k, partner.get(k)) for k in range(len(angles_deg)) if k not in partners]


def back_project(sino: Sinogram, config: ReconConfig) -> RasterImage:
    """Accumulate the (already filtered) sinogram over the pixel grid.

    Pixel centers span [-R, R]^2; each angle contributes its sampled column
    times d_theta = pi / n_angles, and pixels outside the inscribed circle
    are zeroed, which covers every pixel with |s| > R.  Each mirror pair of
    angles (see :func:`_mirror_pairs`) shares one lateral grid, the partner
    added reversed in x.  Grids of at least 2 * _MIN_BLOCK_PIXELS pixels are
    split into row blocks across the usable CPUs; the image is bit-identical
    for any number of them.
    """
    if sino.data.size == 0 or sino.n_angles == 0:
        raise EmptySinogram("sinogram has no data")
    size = config.grid_size
    r = sino.subject_radius
    xs, ys = pixel_centers(size, r)
    tables = _pieces(sino.data.T, config.interp)
    pairs = [
        (tables[k], math.radians(sino.angles_deg[k]), None if m is None else tables[m])
        for k, m in _mirror_pairs(sino.angles_deg)
    ]

    acc = np.zeros((size, size))
    # grid^2 buffers allocated once and shared out as row views: fresh ones per
    # angle or per thread cost more in page faults and memory
    work = np.empty((3, size, size))
    index = np.empty((size, size), dtype=int)

    def accumulate(rows: slice) -> None:
        block, block_work, block_index = acc[rows], work[:, rows], index[rows]
        for table, th, mirror in pairs:
            t = np.add(xs * math.cos(th), ys[rows, None] * math.sin(th), out=block_work[0])
            t += r
            t -= sino.slice_width / 2.0
            t /= sino.slice_width
            block += _interpolate(table, config.interp, block_work, block_index)
            if mirror is not None:  # t at 180 - theta is t at theta mirrored in x
                block[:, ::-1] += _evaluate(mirror, block_work, block_index)

    n = max(1, min(_usable_cpus(), size * size // _MIN_BLOCK_PIXELS))
    blocks = [slice(size * i // n, size * (i + 1) // n) for i in range(n)]
    errors: list[BaseException] = []

    def run_block(rows: slice) -> None:
        try:
            accumulate(rows)
        except BaseException as e:  # re-raised in the caller below
            errors.append(e)

    threads = [threading.Thread(target=run_block, args=(rows,)) for rows in blocks[1:]]
    for thread in threads:
        thread.start()
    try:
        accumulate(blocks[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    acc *= math.pi / sino.n_angles
    acc[~inscribed_mask(size, r)] = 0.0
    return RasterImage(acc, r)


def reconstruct(sino: Sinogram, config: ReconConfig) -> RasterImage:
    """Filter every column, back-project, and optionally min-max normalize."""
    if config.filter is not FilterKind.NONE:
        sino = replace(sino, data=_filter(sino.data, config.filter))
    image = back_project(sino, config)
    if config.normalize:
        image = normalize_image(image)
    return image
