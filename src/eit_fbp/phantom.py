"""Circular subject geometry: perturbation disks, chords, strip areas, axis rotation.

All lengths are millimetres, resistivities ohm-metres, angles degrees at the
API boundary.  Everything here is a pure function on immutable values.
:func:`_strip_areas` is the one circular-strip integral: the projector calls
it for every sinogram and :func:`strip_area` is its scalar view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class PhantomError(ValueError):
    """Base class for phantom geometry violations."""


class NonPositiveDimension(PhantomError):
    """A radius, resistivity, depth or slice width is not usable."""

    def __init__(self, message: str, circle_index: int | None = None):
        super().__init__(message)
        self.circle_index = circle_index


class PerturbationOutsideSubject(PhantomError):
    """A perturbation circle is not fully contained in the subject disk."""

    def __init__(self, message: str, circle_index: int):
        super().__init__(message)
        self.circle_index = circle_index


class OverlappingPerturbations(PhantomError):
    """Two perturbation circles overlap; the forward model assumes disjoint disks."""

    def __init__(self, message: str, circle_indices: tuple[int, int]):
        super().__init__(message)
        self.circle_indices = circle_indices


class NonPositiveRadius(PhantomError):
    """Chord requested for a circle of non-positive radius."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class Circle:
    """A perturbation disk with its own resistivity."""

    center_x: float
    center_y: float
    radius: float
    resistivity: float


@dataclass(frozen=True)
class Phantom:
    """Circular subject disk with embedded, pairwise-disjoint perturbation disks.

    ``depth`` is the out-of-plane thickness of the subject; ``slice_width``
    is the width of the parallel strips the forward model cuts the disk into.
    Construction, ``dataclasses.replace`` included, raises what :func:`validate` raises.
    """

    subject_radius: float
    subject_resistivity: float
    depth: float
    slice_width: float
    perturbations: tuple[Circle, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "perturbations", tuple(self.perturbations))
        validate(self)


def validate(phantom: Phantom) -> Phantom:
    """Check every phantom invariant, returning the phantom unchanged if valid.

    Raises NonPositiveDimension (also for NaN, infinity, or a size, depth or
    resistivity outside 1e-24 .. 1e24, which bounds every strip value by 4e96),
    PerturbationOutsideSubject or OverlappingPerturbations; the error names
    the offending circle index where one applies.
    """
    for name in ("subject_radius", "subject_resistivity", "depth", "slice_width"):
        _check(name, getattr(phantom, name), positive=True)
    if phantom.slice_width > phantom.subject_radius:
        raise NonPositiveDimension(
            f"slice_width {phantom.slice_width} exceeds subject_radius {phantom.subject_radius}"
        )

    for i, c in enumerate(phantom.perturbations):
        # a center need only be finite; the reach check below places it
        for name in ("center_x", "center_y", "radius", "resistivity"):
            _check(f"perturbation {i}: {name}", getattr(c, name), "center" not in name, i)
        reach = math.hypot(c.center_x, c.center_y) + c.radius
        if reach > phantom.subject_radius:
            raise PerturbationOutsideSubject(
                f"perturbation {i} extends to {reach:g} mm, beyond the subject radius "
                f"{phantom.subject_radius:g} mm",
                i,
            )

    for i, a in enumerate(phantom.perturbations):
        for j in range(i + 1, len(phantom.perturbations)):
            b = phantom.perturbations[j]
            gap = math.hypot(a.center_x - b.center_x, a.center_y - b.center_y)
            if gap < a.radius + b.radius:
                raise OverlappingPerturbations(
                    f"perturbations {i} and {j} overlap: center distance {gap:g} mm "
                    f"< radius sum {a.radius + b.radius:g} mm",
                    (i, j),
                )
    return phantom


def _check(label: str, value: float, positive: bool, index: int | None = None) -> None:
    """Raise NonPositiveDimension unless ``value`` is finite and, if ``positive``, lies in
    1e-24 .. 1e24."""
    # NaN compares False with everything, so a plain <= 0 test would pass it
    if not math.isfinite(value):
        raise NonPositiveDimension(f"{label} must be finite, got {value}", index)
    if positive and value <= 0:
        raise NonPositiveDimension(f"{label} must be > 0, got {value}", index)
    # a strip's material areas sum to less than 2R x 2w, so in this range a conductance
    # is at most 4 R w / (min rho x depth) <= 4e96 and an average conductivity at most
    # 1 / min rho <= 1e24: far enough inside the float range that the filtered and
    # back-projected images and compare's squared errors stay finite
    if positive and not 1e-24 <= value <= 1e24:
        raise NonPositiveDimension(f"{label} must lie in 1e-24 .. 1e24, got {value}", index)


def rotate_center(p: Point, theta_deg: float) -> Point:
    """Coordinates of ``p`` after rotating the axes counterclockwise by ``theta_deg``."""
    th = math.radians(theta_deg)
    c, s = math.cos(th), math.sin(th)
    return Point(p.x * c + p.y * s, -p.x * s + p.y * c)


def chord_length(radius: float, offset: float) -> float:
    """Length of the chord cut from a circle by a line ``offset`` from its center.

    Lines beyond the circle give 0 rather than an error: strips routinely
    miss a perturbation entirely.
    """
    if radius <= 0:
        raise NonPositiveRadius(f"radius must be > 0, got {radius}")
    if abs(offset) >= radius:
        return 0.0
    return 2.0 * math.sqrt(radius * radius - offset * offset)


def strip_area(radius: float, lo: float, hi: float) -> float:
    """Area of a radius-``radius`` disk centered at 0 between the lines x=lo and x=hi.

    A range-checked scalar view of :func:`_strip_areas`; strips that miss
    the disk give 0.
    """
    if radius <= 0:
        raise NonPositiveRadius(f"radius must be > 0, got {radius}")
    if hi <= lo:
        return 0.0
    return float(_strip_areas(radius, np.array([lo, hi]))[0])


def _strip_areas(radius: float, edges: np.ndarray) -> np.ndarray:
    """Areas of a radius-``radius`` disk centered at 0 between consecutive rows of edges."""
    s = np.clip(edges, -radius, radius)
    # d/ds [s*sqrt(r^2-s^2) + r^2*asin(s/r)] = 2*sqrt(r^2-s^2)
    f = s * np.sqrt(radius * radius - s * s) + radius * radius * np.arcsin(s / radius)
    areas = np.diff(f, axis=0)
    # at an edge just inside the disk an area can round below 0, which a large
    # conductivity would turn into a negative strip value
    return np.maximum(areas, 0.0, out=areas)
