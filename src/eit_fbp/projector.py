"""Parallel-resistance forward model.

The subject is cut into parallel strips of width ``slice_width`` along the
rotated x-axis.  Each strip's conductance is the parallel sum of its material
segments: every material contributes (strip area of that material) * sigma / d.
Material areas are exact circular-strip integrals, so the total conductance
summed over a projection is the same at every angle.  The whole sinogram is
one array expression: each disk's strip edges, shifted by its rotated center at
every angle, go through ``phantom._strip_areas``, the one strip integral.  For
an inclusion only the band of edges that cut its disk goes through it; every
other strip's area is exactly 0, so it is not evaluated.
:func:`_edges` owns the strip edges; :func:`slice_bounds` is its view.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .phantom import Phantom, _strip_areas


class Quantity(enum.Enum):
    CONDUCTANCE = "conductance"
    AVG_CONDUCTIVITY = "avg_conductivity"


class IndexOutOfRange(IndexError):
    """Slice index outside [0, slice_count)."""


class InvalidAngleStep(ValueError):
    """Angle step must be positive and divide 180 evenly."""


@dataclass(frozen=True)
class Projection:
    """Per-slice values at one rotation angle."""

    values: np.ndarray
    angle_deg: float
    quantity: Quantity

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"projection values must be 1-D, got shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Sinogram:
    """Slice-major (n_slices x n_angles) array of projection values."""

    data: np.ndarray
    angles_deg: tuple[float, ...]
    quantity: Quantity
    slice_width: float
    subject_radius: float

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        angles = tuple(float(a) for a in self.angles_deg)
        if d.ndim != 2:
            raise ValueError(f"sinogram data must be 2-D (slices x angles), got shape {d.shape}")
        if d.shape[1] != len(angles):
            raise ValueError(f"sinogram has {d.shape[1]} columns but {len(angles)} angles")
        for name, values in (("angles_deg", angles), ("data", d)):
            bad = np.asarray(values)[~np.isfinite(values)]
            if bad.size:
                raise ValueError(f"sinogram {name} must be finite, got {bad[0]}")
        for name in ("slice_width", "subject_radius"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"sinogram {name} must be finite and > 0, got {value}")
        d.flags.writeable = False
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "angles_deg", angles)

    @property
    def n_slices(self) -> int:
        return self.data.shape[0]

    @property
    def n_angles(self) -> int:
        return self.data.shape[1]


def slice_count(subject_radius: float, slice_width: float) -> int:
    """Number of strips covering [-R, R]: floor(2R / w)."""
    # tiny epsilon so an exactly-dividing width is not truncated by fp noise
    return int(math.floor(2.0 * subject_radius / slice_width + 1e-9))


def slice_bounds(
    subject_radius: float, slice_width: float, slice_index: int
) -> tuple[float, float]:
    """Lateral interval [lower, upper) of one strip: a range-checked view of :func:`_edges`."""
    n = slice_count(subject_radius, slice_width)
    if not 0 <= slice_index < n:
        raise IndexOutOfRange(f"slice index {slice_index} outside [0, {n})")
    lower, upper = _edges(subject_radius, slice_width)[slice_index : slice_index + 2]
    return float(lower), float(upper)


def _edges(subject_radius: float, slice_width: float) -> np.ndarray:
    """The n + 1 strip edges from -R; the last strip absorbs any remainder, so its edge is R."""
    n = slice_count(subject_radius, slice_width)
    return np.append(-subject_radius + np.arange(n) * slice_width, subject_radius)


def _sinogram(phantom: Phantom, angles_deg: tuple[float, ...], quantity: Quantity) -> np.ndarray:
    """Slice-major (n_slices x len(angles_deg)) values; a strip's background
    area is the subject strip minus the perturbation strips, floored at 0.

    An inclusion of radius r whose rotated centre is x is integrated only over
    a band of k = min(n + 1, ceil(2r/w) + 4) consecutive edges per angle,
    starting 2 below i = ``searchsorted(edges, x - r)``.  Why that reaches
    every strip with a nonzero area:

    - below: a strip under the band has its upper edge at or below
      edges[i - 2], and edges[i - 1] < x - r, so that edge is at least one
      strip width below x - r;
    - above: the band's last edge is edges[i + ceil(2r/w) + 1], and
      edges[i] >= x - r, so it is at least one strip width above x + r (the
      remainder strip only widens the last step).

    Shifted by x, both edges of a strip off the band therefore clamp to the
    same -r or r, with a whole strip width to spare for rounding.  Its area is
    F(±r) - F(±r) = +0, and background - 0 and total + 0 / rho change nothing,
    so skipping it gives the full grid's values bit for bit.  Clipping the
    start to [0, n + 1 - k] only moves the band over more of the disk.  Within
    one column the band repeats no strip, so the flat-index update of each
    band loses none.
    """
    r = phantom.subject_radius
    w = phantom.slice_width
    edges = _edges(r, w)
    subject = _strip_areas(r, edges[:, None])  # the same at every angle
    n_angles = len(angles_deg)
    background = np.repeat(subject, n_angles, axis=1)
    total = np.zeros_like(background)
    turns = [(math.cos(th), math.sin(th)) for th in map(math.radians, angles_deg)]
    for c in phantom.perturbations:
        x_rot = np.array([c.center_x * cos + c.center_y * sin for cos, sin in turns])
        k = min(len(edges), math.ceil(2.0 * c.radius / w) + 4)
        start = np.clip(np.searchsorted(edges, x_rot - c.radius) - 2, 0, len(edges) - k)
        rows = start + np.arange(k)[:, None]
        area = _strip_areas(c.radius, edges[rows] - x_rot)
        cells = rows[:-1] * n_angles + np.arange(n_angles)
        background.reshape(-1)[cells] -= area
        total.reshape(-1)[cells] += area / c.resistivity
    total += np.maximum(background, 0.0) / phantom.subject_resistivity
    if quantity is Quantity.CONDUCTANCE:
        return np.divide(total, phantom.depth, out=total)
    # an empty subject strip holds no inclusion, so total is already 0 there, its value
    return np.divide(total, subject, out=total, where=subject != 0.0)


def project(phantom: Phantom, theta_deg: float, quantity: Quantity) -> Projection:
    """All slice values for one rotation angle."""
    return Projection(_sinogram(phantom, (theta_deg,), quantity)[:, 0], theta_deg, quantity)


def slice_conductance(phantom: Phantom, theta_deg: float, slice_index: int) -> float:
    """Conductance of one strip at one rotation angle."""
    slice_bounds(phantom.subject_radius, phantom.slice_width, slice_index)
    return float(project(phantom, theta_deg, Quantity.CONDUCTANCE).values[slice_index])


def slice_avg_conductivity(phantom: Phantom, theta_deg: float, slice_index: int) -> float:
    """Area-weighted mean conductivity of one strip; 0 for an empty strip."""
    slice_bounds(phantom.subject_radius, phantom.slice_width, slice_index)
    return float(project(phantom, theta_deg, Quantity.AVG_CONDUCTIVITY).values[slice_index])


def angle_count(angle_step: float) -> int:
    """Number of angles in the sweep of ``angle_step``, which must divide 180."""
    if angle_step <= 0:
        raise InvalidAngleStep(f"angle step must be > 0, got {angle_step}")
    turns = 180.0 / angle_step  # inf for a step below about 1e-306
    n = round(turns) if math.isfinite(turns) else 0
    if n < 1 or abs(n * angle_step - 180.0) > 1e-9:
        raise InvalidAngleStep(f"angle step {angle_step} does not divide 180 evenly")
    return n


def sweep_angles(angle_step: float) -> tuple[float, ...]:
    """Half-open sweep 0, step, ..., 180 - step; the step must divide 180."""
    return tuple(i * angle_step for i in range(angle_count(angle_step)))


def compute_sinogram(phantom: Phantom, angle_step: float, quantity: Quantity) -> Sinogram:
    """Projections at every sweep angle, slice-major."""
    angles = sweep_angles(angle_step)
    data = _sinogram(phantom, angles, quantity)
    return Sinogram(data, angles, quantity, phantom.slice_width, phantom.subject_radius)
