"""Filtered back projection.

The whole sinogram is filtered at once in the frequency domain: one FFT down
the slice axis, zero-padded to a power of two, times the ramp-times-window
gains.  Each filtered column is then smeared back across the pixel grid along
its projection lines and accumulated over angles with weight pi / n_angles.
One basis matrix per interpolation kind turns every column into a table of
polynomial pieces, which is evaluated at the pixels by Horner's rule.  Angles
share one lateral grid in groups of up to four: t at 180 - theta is t at theta
mirrored in x, t at theta + 90 is t at theta turned a quarter, and t at
90 - theta is that turn flipped in y.  So t is located once per group and every
member's table is evaluated on it; the quarter turns gather in a second
accumulator that is turned into the image once, at the end.  Partners are looked
for at their fixed offsets in a sweep ``i * step``; other angle lists
back-project the same but share less.  0 and 90 are never quarter partners,
since there t lies on the pixel lattice and nearest's half-way ties follow the
last bit of cos 90.  Sharing changes the order of the sums, so images match
earlier releases to rounding level rather than bit for bit.

Large grids are back-projected in row blocks, one thread per usable CPU, in
buffers the caller allocates once, so memory does not grow with the CPU count.
A block is a pair of row slabs mirrored about the centre row, and the innermost
is one slab that is its own mirror, so an add flipped in y stays in the rows of
the thread that computed it.  Every pixel sees the same operations in the same
order, so the image is bit-identical for any CPU count.
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
    np.copyto(index, scratch, casting="unsafe")  # not np.add: a casting ufunc allocates a buffer
    index += 3  # the piece on [j, j + 1)
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


def _groups(angles_deg: tuple[float, ...]) -> list[tuple[int, int | None, int | None, int | None]]:
    """Every lead angle's index in sinogram order, each with the indices of its partners
    (or None): the mirror 180 - angle, the quarter turn angle + 90 and the flipped quarter
    turn 90 - angle, looked for at index i's offsets in a sweep ``i * step`` of n angles:
    n - i, i + n/2 and n/2 - i.  A partner must be free, match its lead within one ulp of
    180 and not equal it, so each angle joins exactly one group.  Multiples of 90 take no
    part in quarter turns: t there lies on the pixel lattice, where nearest's half-way ties
    are decided by the last bit of cos 90.
    """
    n, half, tol = len(angles_deg), len(angles_deg) // 2, math.ulp(180.0)
    free = [True] * n

    def claim(k: int, lead: float, sign: float, total: float) -> int | None:
        """Claim index k if its angle a, free and not lead, has a + sign * lead near total."""
        if 0 <= k < n and free[k] and angles_deg[k] != lead:
            a = angles_deg[k]
            if abs(a + sign * lead - total) <= tol and (total == 180 or a % 90 and lead % 90):
                free[k] = False
                return k
        return None

    groups = []
    for i, lead in enumerate(angles_deg):
        if free[i]:
            free[i] = False
            # an odd sweep has no quarter turns: its angles at the last two offsets miss by step / 2
            offsets = ((n - i, 1.0, 180.0), (i + half, -1.0, 90.0), (half - i, 1.0, 90.0))
            groups.append((i, *(claim(k, lead, sign, total) for k, sign, total in offsets)))
    return groups


def back_project(sino: Sinogram, config: ReconConfig) -> RasterImage:
    """Accumulate the (already filtered) sinogram over the pixel grid.

    Pixel centers span [-R, R]^2; each angle contributes its sampled column
    times d_theta = pi / n_angles, and pixels outside the inscribed circle
    are zeroed, which covers every pixel with |s| > R.  Each group of angles
    (see :func:`_groups`: a sweep's partners sit at fixed offsets, and other angle
    lists share less) shares one lateral grid: the mirror is added reversed
    in x, and the two quarter turns go into a second accumulator, the flipped one
    reversed in y, which is turned a quarter and added once at the end; angles with no
    quarter turns, as in a sweep of an odd number of them, get no such accumulator.  Grids of
    at least 2 * _MIN_BLOCK_PIXELS pixels are split across the usable CPUs into
    blocks of rows closed under the flip in y; the image is bit-identical for any
    number of them.
    """
    if sino.data.size == 0 or sino.n_angles == 0:
        raise EmptySinogram("sinogram has no data")
    size = config.grid_size
    r = sino.subject_radius
    xs, ys = pixel_centers(size, r)
    tables = _pieces(sino.data.T, config.interp)
    groups = [
        (math.radians(sino.angles_deg[g[0]]), *(None if i is None else tables[i] for i in g))
        for g in _groups(sino.angles_deg)
    ]

    acc = np.zeros((size, size))
    # the quarter turns, turned into acc at the end; a sweep with none needs no grid for them
    quarter = None
    if any(turned is not None or flipped is not None for *_, turned, flipped in groups):
        quarter = np.zeros((size, size))
    # grid^2 buffers allocated once and shared out as row views: fresh ones per
    # angle or per thread cost more in page faults and memory
    work = np.empty((3, size, size))
    index = np.empty((size, size), dtype=int)

    def accumulate(rows: slice, parts: list[tuple[slice, slice, slice]]) -> None:
        """Back-project one block: ``rows`` of the work buffers, split into ``parts``, each
        (its image rows, its rows of the block, the image rows it lands on flipped in y)."""
        block_work, block_index = work[:, rows], index[rows]
        t, value, spare = block_work  # _evaluate's scratch is spare between calls
        y = np.concatenate([ys[image] for image, _, _ in parts])[:, None]
        # broadcast and reversed operands go through copies: a ufunc reading one
        # allocates a buffer, in every thread at once
        for th, table, mirror, turned, flipped in groups:
            np.copyto(t, xs * math.cos(th))
            np.copyto(spare, y * math.sin(th))
            t += spare
            t += r
            t -= sino.slice_width / 2.0
            t /= sino.slice_width
            _interpolate(table, config.interp, block_work, block_index)
            for image, at, _ in parts:
                acc[image] += value[at]
            if mirror is not None:  # t at 180 - theta is t at theta mirrored in x
                _evaluate(mirror, block_work, block_index)
                np.copyto(spare, value[:, ::-1])
                for image, at, _ in parts:
                    acc[image] += spare[at]
            if turned is not None:  # t at theta + 90 is t at theta turned a quarter
                _evaluate(turned, block_work, block_index)
                for image, at, _ in parts:
                    quarter[image] += value[at]
            if flipped is not None:  # t at 90 - theta is that turn flipped in y
                _evaluate(flipped, block_work, block_index)
                for _, at, flip in parts:
                    np.copyto(spare[at], value[at][::-1])
                    quarter[flip] += spare[at]

    # Block i is the image rows [e_i, e_i+1) and their flip in y, on the work rows from
    # 2 e_i; the innermost block is one slab that is its own flip.  A flipped add thus
    # stays in its block, and each pixel sees the same operations for any block count.
    n = max(1, min(_usable_cpus(), size * size // _MIN_BLOCK_PIXELS))
    edges = [size // 2 * i // n for i in range(n + 1)]
    blocks = []
    for a, b in zip(edges, edges[1:]):
        parts, at = [], 0
        for lo, hi in [(a, b), (size - b, size - a)] if b < edges[-1] else [(a, size - a)]:
            parts.append((slice(lo, hi), slice(at, at + hi - lo), slice(size - hi, size - lo)))
            at += hi - lo
        blocks.append((slice(2 * a, 2 * a + at), parts))
    errors: list[BaseException] = []

    def run_block(rows: slice, parts: list[tuple[slice, slice, slice]]) -> None:
        try:
            accumulate(rows, parts)
        except BaseException as e:  # re-raised in the caller below
            errors.append(e)

    threads = [threading.Thread(target=run_block, args=block) for block in blocks[1:]]
    for thread in threads:
        thread.start()
    try:
        accumulate(*blocks[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    if quarter is not None:
        acc += np.rot90(quarter)
        del quarter  # before the mask, which adds 9 bytes a pixel to acc, work and index: the peak
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
