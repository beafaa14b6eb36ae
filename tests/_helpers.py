"""Shared test utilities: correlation, blob extraction, random phantoms, the
scalar strip geometry kept as an independent reference for the projector, the
full-grid sinogram that the projector's bands must equal bit for bit, the
full-grid back projection that the disk layout must equal bit for bit, the
one-call filter that the column blocks must equal bit for bit, the ``einsum``
piece tables that nearest's table must equal, the quadrant rule and the
``compare`` arithmetic that the shared disk mask replaced, and the full-grid
inclusion test that the target raster's windows must equal bit for bit."""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from eit_fbp import (
    Circle,
    FilterKind,
    IndexOutOfRange,
    InterpKind,
    MetricsReport,
    NonPositiveRadius,
    Phantom,
    Quantity,
    RasterImage,
    ReconConfig,
    Sinogram,
    inscribed_mask,
    pixel_centers,
    slice_count,
    sweep_angles,
    validate,
)
from eit_fbp.fbp import _BASIS, _evaluate, _gains, _groups, _interpolate, _pieces
from eit_fbp.phantom import _strip_areas
from eit_fbp.projector import _edges


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da @ da) * (db @ db))
    if denom == 0:
        return 0.0
    return float(da @ db / denom)


def coordinate_grids(size: int, extent: float) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = pixel_centers(size, extent)
    return (
        np.broadcast_to(xs[None, :], (size, size)),
        np.broadcast_to(ys[:, None], (size, size)),
    )


def nearest_pixel_value(img: RasterImage, x: float, y: float) -> float:
    step = 2.0 * img.extent / img.size
    col = int(np.clip(round((x + img.extent) / step - 0.5), 0, img.size - 1))
    row = int(np.clip(round((img.extent - y) / step - 0.5), 0, img.size - 1))
    return float(img.pixels[row, col])


def top_decile_mask(img: RasterImage) -> np.ndarray:
    """Pixels at or above the 90th percentile of the inscribed disk."""
    mask = inscribed_mask(img.size, img.extent)
    threshold = np.quantile(img.pixels[mask], 0.9)
    return (img.pixels >= threshold) & mask


def centroid(selection: np.ndarray, size: int, extent: float) -> tuple[float, float]:
    gx, gy = coordinate_grids(size, extent)
    return float(gx[selection].mean()), float(gy[selection].mean())


def top_decile_centroid(img: RasterImage) -> tuple[float, float]:
    return centroid(top_decile_mask(img), img.size, img.extent)


def connected_components(mask: np.ndarray) -> list[np.ndarray]:
    """8-connected components of a boolean mask, largest first."""
    labels = np.zeros(mask.shape, dtype=int)
    count = 0
    for i in range(mask.shape[0]):
        for j in range(mask.shape[1]):
            if mask[i, j] and labels[i, j] == 0:
                count += 1
                queue = deque([(i, j)])
                labels[i, j] = count
                while queue:
                    a, b = queue.popleft()
                    for da in (-1, 0, 1):
                        for db in (-1, 0, 1):
                            x, y = a + da, b + db
                            if (
                                0 <= x < mask.shape[0]
                                and 0 <= y < mask.shape[1]
                                and mask[x, y]
                                and labels[x, y] == 0
                            ):
                                labels[x, y] = count
                                queue.append((x, y))
    components = [labels == k for k in range(1, count + 1)]
    components.sort(key=lambda c: int(c.sum()), reverse=True)
    return components


def random_phantom(rng: np.random.Generator, max_perturbations: int = 3) -> Phantom:
    """A validated phantom with disjoint perturbations, by rejection sampling."""
    radius = rng.uniform(25.0, 50.0)
    width = rng.uniform(0.6, 1.5)
    depth = rng.uniform(1.0, 3.0)
    rho = 10.0 ** rng.uniform(-4.0, -2.0)
    circles: list[Circle] = []
    wanted = rng.integers(0, max_perturbations + 1)
    attempts = 0
    while len(circles) < wanted and attempts < 200:
        attempts += 1
        r = rng.uniform(2.0, 0.3 * radius)
        position_limit = radius - r
        cx, cy = rng.uniform(-position_limit, position_limit, size=2)
        if np.hypot(cx, cy) + r > radius:
            continue
        if any(
            np.hypot(cx - c.center_x, cy - c.center_y) < r + c.radius for c in circles
        ):
            continue
        circles.append(Circle(cx, cy, r, 10.0 ** rng.uniform(-4.0, -2.0)))
    return validate(
        Phantom(
            subject_radius=radius,
            subject_resistivity=rho,
            depth=depth,
            slice_width=width,
            perturbations=tuple(circles),
        )
    )


# The scalar strip geometry as it stood before the package gave it one owner
# (``phantom._strip_areas`` and ``projector._edges``).  It shares no code with
# them, so tests that compare against it are not circular.


def reference_slice_bounds(
    subject_radius: float, slice_width: float, slice_index: int
) -> tuple[float, float]:
    """Lateral interval [lower, upper) of one strip; the last strip absorbs any remainder."""
    n = slice_count(subject_radius, slice_width)
    if not 0 <= slice_index < n:
        raise IndexOutOfRange(f"slice index {slice_index} outside [0, {n})")
    lower = -subject_radius + slice_index * slice_width
    if slice_index == n - 1:
        return lower, subject_radius
    return lower, lower + slice_width


def reference_strip_area(radius: float, lo: float, hi: float) -> float:
    """Area of a radius-``radius`` disk centered at 0 between the lines x=lo and x=hi.

    Closed form via the antiderivative of the chord function; the strip is
    clamped to the disk, so strips that miss it give 0.
    """
    if radius <= 0:
        raise NonPositiveRadius(f"radius must be > 0, got {radius}")
    if hi <= lo:
        return 0.0
    a = min(max(lo, -radius), radius)
    b = min(max(hi, -radius), radius)
    if b <= a:
        return 0.0
    return _chord_antiderivative(radius, b) - _chord_antiderivative(radius, a)


def _chord_antiderivative(radius: float, s: float) -> float:
    # d/ds [s*sqrt(r^2-s^2) + r^2*asin(s/r)] = 2*sqrt(r^2-s^2)
    return s * math.sqrt(max(radius * radius - s * s, 0.0)) + radius * radius * math.asin(
        min(max(s / radius, -1.0), 1.0)
    )


# Unlike the scalar reference above, this shares ``_strip_areas`` and ``_edges``
# with the projector: it checks the band, not the strip integral.


def full_grid_sinogram(phantom: Phantom, angle_step: float, quantity: Quantity) -> np.ndarray:
    """The projector's sinogram with every inclusion integrated over all n + 1
    edges at every angle, as one array expression per disk.

    The same float operations as ``projector._sinogram``, minus its band: tests
    compare the two byte for byte, so a band that missed a strip with a nonzero
    area, or changed one value's rounding, shows.
    """
    angles = sweep_angles(angle_step)
    r = phantom.subject_radius
    edges = _edges(r, phantom.slice_width)[:, None]
    subject = _strip_areas(r, edges)
    background = np.repeat(subject, len(angles), axis=1)
    total = np.zeros_like(background)
    turns = [(math.cos(th), math.sin(th)) for th in map(math.radians, angles)]
    for c in phantom.perturbations:
        x_rot = np.array([c.center_x * cos + c.center_y * sin for cos, sin in turns])
        area = _strip_areas(c.radius, edges - x_rot)
        background -= area
        total += area / c.resistivity
    total += np.maximum(background, 0.0) / phantom.subject_resistivity
    if quantity is Quantity.CONDUCTANCE:
        return np.divide(total, phantom.depth, out=total)
    return np.divide(total, subject, out=np.zeros_like(total), where=subject != 0.0)


# Like full_grid_sinogram, this shares the piece tables, the groups and the
# interpolation with the code it checks: it checks the disk layout, not the
# interpolation, which test_fbp's tap-by-tap reference covers.


def full_grid_back_project(sino: Sinogram, config: ReconConfig) -> np.ndarray:
    """Back projection at every pixel of the grid, masked to the disk at the end: the
    row-block design that the disk layout replaced, as its single block.

    The same float operations in the same order at every pixel as
    ``fbp.back_project``: tests compare the two byte for byte, so a layout that
    missed a disk pixel, wrote one outside the disk or changed one value's
    rounding shows.
    """
    size, r, w = config.grid_size, sino.subject_radius, sino.slice_width
    xs, ys = pixel_centers(size, r)
    tables = _pieces(sino.data.T, config.interp)
    groups = _groups(sino.angles_deg)
    acc = np.zeros((size, size))
    quarter = None
    if any(turned is not None or flipped is not None for *_, turned, flipped in groups):
        quarter = np.zeros((size, size))
    work = np.empty((3, size, size))
    index = np.empty((size, size), dtype=int)
    t, value, spare = work
    for lead, mirror, turned, flipped in groups:
        th = math.radians(sino.angles_deg[lead])
        np.copyto(t, xs * math.cos(th))
        np.copyto(spare, ys[:, None] * math.sin(th))
        t += spare
        t += r
        t -= w / 2.0
        t /= w
        _interpolate(tables[lead], config.interp, work, index)
        acc += value
        if mirror is not None:
            _evaluate(tables[mirror], work, index)
            acc += value[:, ::-1]
        if turned is not None:
            _evaluate(tables[turned], work, index)
            quarter += value
        if flipped is not None:
            _evaluate(tables[flipped], work, index)
            quarter += value[::-1]
    if quarter is not None:
        acc += np.rot90(quarter)
    acc *= math.pi / sino.n_angles
    acc[~inscribed_mask(size, r)] = 0.0
    return acc


def full_grid_rasterize_target(phantom: Phantom, grid_size: int) -> np.ndarray:
    """The target raster as each inclusion was tested before: over the whole grid."""
    r = phantom.subject_radius
    xs, ys = pixel_centers(grid_size, r)
    gx = xs[None, :]
    gy = ys[:, None]
    img = np.zeros((grid_size, grid_size))
    inside = inscribed_mask(grid_size, r)
    img[inside] = 1.0 / phantom.subject_resistivity
    for c in phantom.perturbations:
        hit = (gx - c.center_x) ** 2 + (gy - c.center_y) ** 2 <= c.radius * c.radius
        img[hit & inside] = 1.0 / c.resistivity
    return img


def one_call_filter(values: np.ndarray, kind: FilterKind) -> np.ndarray:
    """Every column of ``values`` filtered by one ``rfft``/``irfft`` pair: the
    design that the column blocks replaced.

    The same float operations on every column as ``fbp._filter``: tests compare
    the two byte for byte, so a block that skipped a column, overlapped its
    neighbour or changed one value's rounding shows.
    """
    n = values.shape[0]
    padded_len = 1 << max(2 * n - 1, 1).bit_length()
    spectrum = np.fft.rfft(values, n=padded_len, axis=0)
    half = padded_len // 2
    spectrum *= _gains(kind, np.arange(half + 1) / half)[:, None]
    return np.fft.irfft(spectrum, n=padded_len, axis=0)[:n].copy()


def einsum_pieces(rows: np.ndarray, kind: InterpKind) -> np.ndarray:
    """Piece tables of every kind from ``_BASIS`` in one ``einsum`` of sliding 4-bin
    windows of the rows padded with four zeros each side: the design that
    nearest's padded-row table replaced, and still ``fbp._pieces`` for the others.
    """
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(rows, ((0, 0), (4, 4))), 4, axis=1)
    return np.einsum("cw,akw->ack", _BASIS[kind], windows, order="C")


def packed_pixels(size: int, extent: float) -> int:
    """How many pixels back projection packs: four per quadrant pixel that has one of
    its reflections in x and y, or one of their transposes, in the disk."""
    mask = inscribed_mask(size, extent)
    mask = mask | mask[::-1] | mask[:, ::-1] | mask[::-1, ::-1]
    half = (size + 1) // 2
    return 4 * int((mask | mask.T)[:half, :half].sum())


def own_quadrant(size: int, extent: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns, in row-major order, of the disk's pixels in its top-left quadrant,
    rows and columns below (size + 1) / 2, from their own x^2 + y^2 <= R^2 test: the rule
    that back projection applied before it read ``inscribed_mask``."""
    half = (size + 1) // 2
    xs, ys = pixel_centers(size, extent)
    return np.nonzero(xs[:half] ** 2 + ys[:half, None] ** 2 <= extent * extent)


def fresh_array_compare(a: RasterImage, b: RasterImage) -> MetricsReport:
    """``compare`` with a new array for every difference and product: the arithmetic that
    the in-place version must equal bit for bit."""
    mask = inscribed_mask(a.size, a.extent)
    va, vb = a.pixels[mask], b.pixels[mask]
    rmse = float(np.sqrt(np.mean((va - vb) ** 2)))
    da = va - va.mean()
    db = vb - vb.mean()
    denom = math.sqrt(float((da * da).sum()) * float((db * db).sum()))
    pearson = float((da * db).sum()) / denom if denom > 0 else 0.0
    psnr = math.inf if rmse == 0 else 20.0 * math.log10(1.0 / rmse)
    return MetricsReport(rmse=rmse, pearson=pearson, psnr=psnr)
