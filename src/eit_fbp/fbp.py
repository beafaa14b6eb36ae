"""Filtered back projection.

Each column of the sinogram is filtered in the frequency domain: an FFT down
the slice axis, zero-padded to a power of two, times the ramp-times-window
gains.  Columns are independent, so they go through the FFT in contiguous
blocks whose padded output stays near 256 KB; the result does not depend on
the block width.  Each filtered column is then smeared back across the pixel
grid along its projection lines and accumulated over angles with weight
pi / n_angles.  One basis matrix per interpolation kind turns every column into
a table of polynomial pieces, which is evaluated at the pixels by Horner's rule.
Angles share one lateral grid in groups of up to four: t at 180 - theta is t at
theta mirrored in x, t at theta + 90 is t at theta turned a quarter, and t at
90 - theta is that turn flipped in y.  So t is located once per group and every
member's table is evaluated on it; the quarter turns gather in a second
accumulator that is turned into the image once, at the end.  Partners are looked
for at their fixed offsets in a sweep ``i * step``; other angle lists
back-project the same but share less.  0 and 90 are never quarter partners,
since there t lies on the pixel lattice and nearest's half-way ties follow the
last bit of cos 90.  Sharing changes the order of the sums, so images match
earlier releases to rounding level rather than bit for bit.

Only the inscribed disk is back-projected.  Its pixels are stored once per
quadrant, in (2, 2, M) buffers whose plane (a, b) holds the M quadrant pixels of
the image reversed in x if a and in y if b, so a mirror in x reverses axis 0 and
a flip in y reverses axis 1.  No pixel index is built: x and y are the
quadrant's mask applied to the centres and to them reversed, and at the end each
accumulator is unfolded through the same four views into an image of zeros.
Large disks are split into contiguous chunks of the M pixels, one thread per
usable CPU, each chunk with views of x, y and the accumulators and work buffers
of its own.  The calling thread allocates every buffer before any worker starts,
and a worker only fills them: what a worker thread allocates comes from a glibc
arena of its own, whose pages the stages after back projection, on the calling
thread, cannot reuse.  A reflected add never leaves its chunk, so every pixel
sees the same operations in the same order, and the image is bit-identical for
any CPU count.
"""

from __future__ import annotations

import _thread
import enum
import math
import os
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
        kinds = {"filter": FilterKind, "interp": InterpKind, "grid_size": int, "normalize": bool}
        for name, kind in kinds.items():
            value = getattr(self, name)
            if type(value) is not kind:  # exactly: True is an int but not a grid size
                raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
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
    if kind is FilterKind.HANN:
        return f * 0.5 * (1.0 + np.cos(np.pi * f))
    raise ValueError(f"filter must be of type FilterKind, got {kind!r}")


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
    """Filter every column of the (n_slices x n_columns) ``values``, in blocks of
    columns.

    ``rfft`` zero-pads each column to the next power of two >= 2N itself.  A
    block holds ``_FILTER_BLOCK_VALUES // padded_len`` columns, and at least
    one, so its spectrum and padded output stay near 256 KB and are reused from
    the heap rather than mapped and faulted in afresh on every call; only the N
    rows of each block are copied into the result.  Columns are filtered
    independently, so the result does not depend on the block width.
    """
    n, columns = values.shape
    padded_len = 1 << max(2 * n - 1, 1).bit_length()
    half = padded_len // 2
    gains = _gains(kind, np.arange(half + 1) / half)[:, None]
    width = max(1, _FILTER_BLOCK_VALUES // padded_len)
    out = np.empty((n, columns))
    for start in range(0, columns, width):
        spectrum = np.fft.rfft(values[:, start : start + width], n=padded_len, axis=0)
        spectrum *= gains
        out[:, start : start + width] = np.fft.irfft(spectrum, n=padded_len, axis=0)[:n]
    return out


# padded values filtered at once: 256 KB of float64 output a block, which is
# 32 columns at 320 slices and 128 at 80
_FILTER_BLOCK_VALUES = 2**15


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
    padded with four zeros each side; ``einsum`` keeps threaded BLAS out of it.  Nearest's
    one piece is its bin, so its table is the padded row itself."""
    if kind is InterpKind.NEAREST:
        table = np.zeros((len(rows), 1, rows.shape[1] + 5))
        table[:, 0, 3:-2] = rows
        return table
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


def _evaluate(table: np.ndarray | list, work: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The pieces of ``table``, its coefficient rows highest power first (a piece table or
    a list of its rows), at ``index`` at the offsets in ``work[0]`` that :func:`_interpolate`
    left; ``work[1]`` and ``work[2]`` are overwritten.  Each row gathers with the ndarray
    ``take`` method, which skips the ``np.take`` wrapper's dispatch."""
    t, value, scratch = work
    first, *rest = table
    first.take(index, out=value, mode="clip")
    for coefficients in rest:
        value *= t
        value += coefficients.take(index, out=scratch, mode="clip")
    return value


# Least packed pixels a chunk gets: two chunks of 2^14 broke even with one at grids
# 192-204 (29,000-33,000 packed pixels), 180 angles, 2 CPUs
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


def _accumulate(planes: list, groups: list, interp: InterpKind, r: float, w: float) -> None:
    """Back-project one chunk of quadrant pixels into the planes it is handed, allocating
    nothing of their size.  ``planes`` holds the chunk's views of x (2, 1, m) and y
    (1, 2, m), its own float work planes t, value and spare and int plane index, each
    (2, 2, m), then its views of the accumulator and of the quarter turns' accumulator,
    both at +0.  ``groups`` holds each group's lead angle in radians and its members'
    tables, each a list of coefficient rows.  x cos(theta) and y sin(theta) go into
    (2, 1, m) and (1, 2, m) views of spare, and t is their broadcast sum, so no full-size
    product is made.  Each group's partners add into their targets in turn, and one
    missing is skipped, so a sweep with no quarter turns leaves the second accumulator at
    +0."""
    x, y, t, value, spare, index, acc, quarter = planes
    work = t, value, spare  # _evaluate's scratch is spare between calls
    halves = spare.reshape(4, -1)
    x_cos, y_sin = halves[:2].reshape(x.shape), halves[2:].reshape(y.shape)
    targets = acc[::-1], quarter, quarter[:, ::-1]  # mirror, quarter turn, flipped turn
    for th, table, *partners in groups:
        np.multiply(x, math.cos(th), out=x_cos)
        np.multiply(y, math.sin(th), out=y_sin)
        np.add(x_cos, y_sin, out=t)
        t += r
        t -= w / 2.0
        t /= w
        acc += _interpolate(table, interp, work, index)
        for partner, target in zip(partners, targets):
            if partner is not None:
                target += _evaluate(partner, work, index)


def _unfold(packed: np.ndarray, quadrant: np.ndarray, size: int) -> np.ndarray:
    """A (size x size) image of zeros with ``packed[a, b]`` written at the ``quadrant`` mask
    of the image's view reversed in x if a and in y if b.  An odd grid's middle row and
    column are written by both their reflections, with bitwise-equal values, so they are
    assigned, not added."""
    image = np.zeros((size, size))
    half = (size + 1) // 2
    for a, b in np.ndindex(2, 2):
        image[:: 1 - 2 * b, :: 1 - 2 * a][:half, :half][quadrant] = packed[a, b]
    return image


def back_project(sino: Sinogram, config: ReconConfig) -> RasterImage:
    """Accumulate the (already filtered) sinogram over the pixel grid.

    Pixel centers span [-R, R]^2; each angle contributes its sampled column
    times d_theta = pi / n_angles at the pixels inside the inscribed circle, and
    every other pixel is 0, which covers every pixel with |s| > R.  Only the disk is
    back-projected, in the (2, 2, M) layout of the module docstring: x and y are the
    quadrant's mask (see :func:`inscribed_mask`) applied to the centres and to them
    reversed.  Each group of angles (see :func:`_groups`) shares one lateral grid: the
    mirror is added reversed on axis 0, and the two quarter turns go into a second
    accumulator, the flipped one reversed on axis 1.  Angles with no quarter turns, as in
    a sweep of an odd number of them, leave it at +0, which changes no bit of the image.
    When the buffers hold at least 2 * _MIN_BLOCK_PIXELS pixels, the M pixels are split
    across the usable CPUs into contiguous chunks, all of whose planes are allocated here
    before any worker starts (see :func:`_accumulate`).  Both accumulators are then
    unfolded (see :func:`_unfold`), the second turned a quarter.  Each angle's table is
    split once into a list of its coefficient rows.
    """
    if sino.data.size == 0 or sino.n_angles == 0:
        raise EmptySinogram("sinogram has no data")
    size = config.grid_size
    r, w = sino.subject_radius, sino.slice_width
    xs, ys = pixel_centers(size, r)
    tables = [list(table) for table in _pieces(sino.data.T, config.interp)]
    groups = [
        (math.radians(sino.angles_deg[g[0]]), *(None if i is None else tables[i] for i in g))
        for g in _groups(sino.angles_deg)
    ]
    half = (size + 1) // 2
    quadrant = inscribed_mask(size, r)[:half, :half]

    def gather(v):  # v, and v reversed, broadcast over the quadrant and read at its pixels
        return np.stack([np.broadcast_to(c[:half], quadrant.shape)[quadrant] for c in (v, v[::-1])])

    x, y = gather(xs)[:, None], gather(ys[:, None])[None]
    m = x.shape[2]

    n = max(1, min(_usable_cpus(), 4 * m // _MIN_BLOCK_PIXELS))
    edges = [m * k // n for k in range(n + 1)]
    acc, quarter = np.zeros((2, 2, m)), np.zeros((2, 2, m))
    planes = []
    for c in (np.s_[..., a:b] for a, b in zip(edges, edges[1:])):
        shape = acc[c].shape
        work = np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, dtype=int)
        planes.append([x[c], y[c], *work, acc[c], quarter[c]])
    errors: list[BaseException] = []

    def run_chunk(k: int, done: _thread.LockType) -> None:
        try:
            _accumulate(planes[k], groups, config.interp, r, w)
        except BaseException as e:  # re-raised in the caller below
            errors.append(e)
        finally:
            done.release()

    # started with _thread, not threading: a Thread object's bookkeeping, about 3 KiB,
    # would be most of what a chunk adds to the peak
    running = [_thread.allocate_lock() for _ in range(1, n)]
    for k, done in enumerate(running, 1):
        done.acquire()
        _thread.start_new_thread(run_chunk, (k, done))
    try:
        _accumulate(planes[0], groups, config.interp, r, w)
    finally:
        for done in running:
            done.acquire()  # released when its chunk's thread is done
    if errors:
        raise errors[0]
    del planes, work, x, y  # only the accumulators are held through the unfold

    # both accumulators start at +0 and are only added to, so neither is -0, and each
    # disk pixel gets acc + quarter as it would from 0 + acc + quarter
    image = _unfold(acc, quadrant, size)
    image += np.rot90(_unfold(quarter, quadrant, size))
    image *= math.pi / sino.n_angles
    return RasterImage(image, r)


def reconstruct(sino: Sinogram, config: ReconConfig) -> RasterImage:
    """Filter every column, back-project, and optionally min-max normalize."""
    if config.filter is not FilterKind.NONE:
        sino = replace(sino, data=_filter(sino.data, config.filter))
    image = back_project(sino, config)
    if config.normalize:
        image = normalize_image(image)
    return image
