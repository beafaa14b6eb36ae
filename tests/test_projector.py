import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import random_phantom, reference_slice_bounds, reference_strip_area
from eit_fbp import (
    Circle,
    IndexOutOfRange,
    InvalidAngleStep,
    Phantom,
    Projection,
    Quantity,
    Sinogram,
    compute_sinogram,
    project,
    slice_avg_conductivity,
    slice_bounds,
    slice_conductance,
    slice_count,
    sweep_angles,
    validate,
)

# angle steps in [1, 30] degrees that divide 180
ANGLE_STEPS = [1, 1.5, 2, 2.5, 3, 4, 5, 6, 7.5, 9, 10, 12, 15, 18, 20, 22.5, 30]


def scalar_reference(phantom: Phantom, angle_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Conductance and average-conductivity sinograms, one strip at a time.

    Each strip's material areas come from the scalar reference copy of
    ``strip_area``; the background is the subject strip minus the perturbation
    strips, floored at 0.
    """
    angles = sweep_angles(angle_step)
    n = slice_count(phantom.subject_radius, phantom.slice_width)
    conductance = np.zeros((n, len(angles)))
    avg = np.zeros((n, len(angles)))
    for a, theta in enumerate(angles):
        th = math.radians(theta)
        for j in range(n):
            lo, hi = reference_slice_bounds(phantom.subject_radius, phantom.slice_width, j)
            subject = reference_strip_area(phantom.subject_radius, lo, hi)
            background = subject
            total = 0.0
            for c in phantom.perturbations:
                x_rot = c.center_x * math.cos(th) + c.center_y * math.sin(th)
                area = reference_strip_area(c.radius, lo - x_rot, hi - x_rot)
                background -= area
                total += area / c.resistivity
            total += max(background, 0.0) / phantom.subject_resistivity
            conductance[j, a] = total / phantom.depth
            avg[j, a] = 0.0 if subject == 0.0 else conductance[j, a] * phantom.depth / subject
    return conductance, avg


@st.composite
def phantoms(draw) -> Phantom:
    """Valid phantoms with 0-4 disjoint perturbations and 0.25-2 mm strips."""
    radius = draw(st.floats(20.0, 50.0))
    circles: list[Circle] = []
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.floats(0.5, 0.4 * radius))
        dist = draw(st.floats(0.0, radius - r))
        phi = draw(st.floats(0.0, 2.0 * math.pi))
        c = Circle(dist * math.cos(phi), dist * math.sin(phi), r, 10.0 ** draw(st.floats(-4, -2)))
        inside = math.hypot(c.center_x, c.center_y) + r <= radius
        apart = all(
            math.hypot(c.center_x - o.center_x, c.center_y - o.center_y) >= r + o.radius
            for o in circles
        )
        if inside and apart:
            circles.append(c)
    return validate(
        Phantom(
            subject_radius=radius,
            subject_resistivity=10.0 ** draw(st.floats(-4, -2)),
            depth=draw(st.floats(0.5, 5.0)),
            slice_width=draw(st.floats(0.25, 2.0)),
            perturbations=tuple(circles),
        )
    )


class TestSliceBounds:
    def test_first_slice(self):
        assert slice_bounds(40, 1, 0) == (-40.0, -39.0)

    def test_center_slice(self):
        assert slice_bounds(40, 1, 40) == (0.0, 1.0)

    def test_last_slice(self):
        assert slice_bounds(40, 1, 79) == (39.0, 40.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            slice_bounds(40, 1, 80)
        with pytest.raises(IndexOutOfRange):
            slice_bounds(40, 1, -1)

    def test_last_slice_absorbs_remainder(self):
        # 80 / 0.7 = 114.28..., so the last strip is wider than 0.7
        n = slice_count(40, 0.7)
        assert n == 114
        lo, hi = slice_bounds(40, 0.7, n - 1)
        assert hi == 40.0
        assert hi - lo > 0.7

    def test_count(self):
        assert slice_count(40, 1) == 80
        assert slice_count(40, 0.5) == 160


class TestSliceConductance:
    def test_homogeneous_central_slice_matches_quadrature_oracle(self, homogeneous):
        # independent oracle: midpoint-rule integral of conductivity over the strip / depth
        lo, hi = slice_bounds(40, 1, 40)
        n = 200_000
        xs = lo + (np.arange(n) + 0.5) * (hi - lo) / n
        oracle = (
            np.sum(2.0 * np.sqrt(1600.0 - xs**2)) * (hi - lo) / n / 0.0005 / 2.0
        )
        got = slice_conductance(homogeneous, 0.0, 40)
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(79991.66588524217, rel=1e-12)

    def test_quadrature_oracle_with_perturbation(self, one_perturbation):
        # 2-D pixel quadrature of the conductivity map over one strip
        theta = 30.0
        j = 52
        lo, hi = slice_bounds(40, 1, j)
        n = 1200
        xs = lo + (np.arange(n) + 0.5) * (hi - lo) / n
        ys = -40 + (np.arange(48000) + 0.5) * 80.0 / 48000
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        # strip coordinates live in the rotated frame; rotate back to phantom frame
        th = math.radians(theta)
        px = gx * math.cos(th) - gy * math.sin(th)
        py = gx * math.sin(th) + gy * math.cos(th)
        sigma = np.where(px * px + py * py <= 1600.0, 1.0 / 0.0005, 0.0)
        c = one_perturbation.perturbations[0]
        hit = (px - c.center_x) ** 2 + (py - c.center_y) ** 2 <= c.radius**2
        sigma[hit] = 1.0 / c.resistivity
        cell = ((hi - lo) / n) * (80.0 / 48000)
        oracle = sigma.sum() * cell / 2.0
        got = slice_conductance(one_perturbation, theta, j)
        assert got == pytest.approx(oracle, rel=2e-4)

    def test_bump_exceeds_mirror_slice(self, one_perturbation):
        # at 0 degrees the perturbation sits over s in [0, 20]
        crossing = slice_conductance(one_perturbation, 0.0, 50)
        mirror = slice_conductance(one_perturbation, 0.0, 29)
        assert crossing > mirror

    def test_monotone_contrast(self, one_perturbation):
        theta = 30.0
        lowered = validate(
            Phantom(40, 0.0005, 2, 1, (Circle(10, 10, 10, 0.0001),))
        )
        th = math.radians(theta)
        x_rot = 10 * math.cos(th) + 10 * math.sin(th)
        for j in range(80):
            lo, hi = slice_bounds(40, 1, j)
            intersects = hi > x_rot - 10 and lo < x_rot + 10
            a = slice_conductance(one_perturbation, theta, j)
            b = slice_conductance(lowered, theta, j)
            if intersects:
                assert b > a
            else:
                assert b == a


class TestAvgConductivity:
    def test_homogeneous_collapse(self, homogeneous):
        for theta in (0.0, 5.0, 45.0, 137.0):
            for j in (0, 1, 17, 40, 79):
                v = slice_avg_conductivity(homogeneous, theta, j)
                assert v == pytest.approx(2000.0, rel=1e-9)

    def test_mixed_slice_is_convex_combination(self, one_perturbation):
        v = slice_avg_conductivity(one_perturbation, 0.0, 50)
        assert 2000.0 < v < 5000.0

    def test_all_slices_bounded_by_materials(self, one_perturbation):
        p = project(one_perturbation, 72.0, Quantity.AVG_CONDUCTIVITY)
        assert np.all(p.values >= 2000.0 - 1e-9)
        assert np.all(p.values <= 5000.0 + 1e-9)


class TestProject:
    def test_length(self, one_perturbation):
        p = project(one_perturbation, 0.0, Quantity.CONDUCTANCE)
        assert p.values.shape == (80,)

    @pytest.mark.parametrize("shape", [(), (8, 1)])
    def test_values_must_be_1d(self, shape):
        with pytest.raises(ValueError, match="1-D"):
            Projection(np.ones(shape), 0.0, Quantity.CONDUCTANCE)

    def test_homogeneous_rotation_invariance(self, homogeneous):
        a = project(homogeneous, 0.0, Quantity.CONDUCTANCE).values
        b = project(homogeneous, 77.3, Quantity.CONDUCTANCE).values
        np.testing.assert_allclose(a, b, rtol=1e-9)

    @pytest.mark.parametrize("theta", [0.0, 35.0, 112.5])
    def test_opposite_angle_reverses(self, one_perturbation, theta):
        a = project(one_perturbation, theta, Quantity.CONDUCTANCE).values
        b = project(one_perturbation, theta + 180.0, Quantity.CONDUCTANCE).values
        # sin(pi) != 0 in floats, so exact multiples of 180 wobble at ~1e-8
        np.testing.assert_allclose(a, b[::-1], rtol=1e-8)

    def test_nonnegative_for_random_phantoms(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            ph = random_phantom(rng)
            for theta in (0.0, 30.0, 125.0):
                assert np.all(project(ph, theta, Quantity.CONDUCTANCE).values >= 0.0)


class TestScalarReference:
    @settings(max_examples=15, deadline=None)
    @given(phantom=phantoms(), angle_step=st.sampled_from(ANGLE_STEPS))
    def test_sinograms_match_per_strip_reference(self, phantom, angle_step):
        references = scalar_reference(phantom, angle_step)
        for quantity, ref in zip((Quantity.CONDUCTANCE, Quantity.AVG_CONDUCTIVITY), references):
            got = compute_sinogram(phantom, angle_step, quantity).data
            tol = 1e-12 * np.abs(ref).max(axis=0)
            assert np.all(np.abs(got - ref) <= tol), quantity


class TestSinogram:
    def test_angle_counts(self, one_perturbation):
        assert compute_sinogram(one_perturbation, 10, Quantity.CONDUCTANCE).n_angles == 18
        assert compute_sinogram(one_perturbation, 5, Quantity.CONDUCTANCE).n_angles == 36

    def test_invalid_step(self, one_perturbation):
        with pytest.raises(InvalidAngleStep):
            compute_sinogram(one_perturbation, 7, Quantity.CONDUCTANCE)
        with pytest.raises(InvalidAngleStep):
            sweep_angles(-5)
        with pytest.raises(InvalidAngleStep):
            sweep_angles(0)

    def test_fractional_step_dividing_180(self):
        assert len(sweep_angles(2.5)) == 72

    def test_columns_match_project(self, one_perturbation):
        sino = compute_sinogram(one_perturbation, 30, Quantity.AVG_CONDUCTIVITY)
        for i, theta in enumerate(sino.angles_deg):
            np.testing.assert_array_equal(
                sino.data[:, i], project(one_perturbation, theta, sino.quantity).values
            )

    def test_mass_conservation_across_angles(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            ph = random_phantom(rng)
            sums = compute_sinogram(ph, 5, Quantity.CONDUCTANCE).data.sum(axis=0)
            assert np.ptp(sums) <= 1e-6 * sums.mean()

    @pytest.mark.parametrize("n_columns", [3, 1])
    def test_column_count_must_match_angle_count(self, n_columns):
        with pytest.raises(ValueError, match=f"{n_columns} columns but 2 angles"):
            Sinogram(np.ones((8, n_columns)), (0.0, 60.0), Quantity.CONDUCTANCE, 1.0, 4.0)

    @pytest.mark.parametrize("shape", [(8,), (8, 2, 1)])
    def test_data_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            Sinogram(np.ones(shape), (0.0, 90.0), Quantity.CONDUCTANCE, 1.0, 4.0)

    # a negative width or radius back-projected to an all-zero image, and a zero
    # or NaN one to warnings and garbage
    @pytest.mark.parametrize("field", ["slice_width", "subject_radius"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_geometry_must_be_finite_and_positive(self, field, value):
        geometry = {"slice_width": 1.0, "subject_radius": 4.0, field: value}
        with pytest.raises(ValueError, match=field):
            Sinogram(np.ones((8, 2)), (0.0, 90.0), Quantity.CONDUCTANCE, **geometry)

    # a NaN angle back-projected to an all-NaN image, and an infinite one raised
    # "math domain error"
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_angles_must_be_finite(self, angle):
        with pytest.raises(ValueError, match="angles_deg must be finite"):
            Sinogram(np.ones((8, 2)), (0.0, angle), Quantity.CONDUCTANCE, 1.0, 4.0)

    # a NaN or infinite sinogram ran to exit 0, with rmse=nan or psnr=inf on every line
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_data_must_be_finite(self, value):
        data = np.ones((8, 2))
        data[3, 1] = value
        with pytest.raises(ValueError, match="data must be finite"):
            Sinogram(data, (0.0, 90.0), Quantity.CONDUCTANCE, 1.0, 4.0)

    def test_data_is_read_only(self, one_perturbation):
        sino = compute_sinogram(one_perturbation, 30, Quantity.CONDUCTANCE)
        with pytest.raises(ValueError):
            sino.data[0, 0] = 1.0
