import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import reference_strip_area
from eit_fbp import (
    Circle,
    NonPositiveDimension,
    NonPositiveRadius,
    OverlappingPerturbations,
    PerturbationOutsideSubject,
    Phantom,
    Point,
    chord_length,
    rotate_center,
    strip_area,
    validate,
)

finite_coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
angle = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)


class TestValidate:
    def test_paper_phantom_valid(self, one_perturbation):
        assert validate(one_perturbation) is one_perturbation

    def test_perturbation_outside_subject(self):
        with pytest.raises(PerturbationOutsideSubject) as exc:
            validate(Phantom(40, 0.0005, 2, 1, (Circle(35, 0, 10, 0.0002),)))
        assert exc.value.circle_index == 0

    def test_overlapping_perturbations(self):
        with pytest.raises(OverlappingPerturbations) as exc:
            validate(
                Phantom(40, 0.0005, 2, 1, (Circle(0, 0, 10, 0.0002), Circle(5, 0, 10, 0.0002)))
            )
        assert exc.value.circle_indices == (0, 1)

    def test_touching_perturbations_allowed(self):
        ph = Phantom(40, 0.0005, 2, 1, (Circle(-10, 0, 10, 0.0002), Circle(10, 0, 10, 0.0002)))
        assert validate(ph) is ph

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"subject_radius": -1},
            {"subject_radius": 0},
            {"subject_resistivity": 0},
            {"depth": 0},
            {"slice_width": 0},
            {"slice_width": 41},  # wider than the subject radius
            # every comparison with NaN is False, so these passed a plain <= 0 test
            {"subject_radius": math.nan},
            {"subject_radius": math.inf},
            {"subject_resistivity": math.inf},
            {"depth": math.inf},
            {"slice_width": math.nan},
        ],
    )
    def test_bad_dimensions(self, kwargs):
        base = dict(subject_radius=40, subject_resistivity=0.0005, depth=2, slice_width=1)
        base.update(kwargs)
        with pytest.raises(NonPositiveDimension) as exc:
            validate(Phantom(**base))
        assert next(iter(kwargs)) in str(exc.value)

    def test_first_bad_dimension_in_declaration_order_is_named(self):
        with pytest.raises(NonPositiveDimension, match="subject_radius must be > 0"):
            validate(Phantom(-1, 0.0005, math.nan, 1))
        with pytest.raises(NonPositiveDimension, match="perturbation 0: radius must be > 0"):
            validate(Phantom(40, 0.0005, 2, 1, (Circle(0, 0, -1, math.nan),)))

    @pytest.mark.parametrize(
        "circle",
        [
            Circle(0, 0, -1, 0.0002),
            Circle(0, 0, 5, 0),
            Circle(math.nan, 0, 5, 0.0002),
            Circle(0, math.nan, 5, 0.0002),
            Circle(0, -math.inf, 5, 0.0002),
            Circle(0, 0, math.nan, 0.0002),
            Circle(0, 0, 5, math.inf),
        ],
    )
    def test_bad_circle_named_by_index(self, circle):
        with pytest.raises(NonPositiveDimension) as exc:
            validate(Phantom(40, 0.0005, 2, 1, (Circle(10, 10, 5, 0.0002), circle)))
        assert exc.value.circle_index == 1
        assert str(exc.value).startswith("perturbation 1:")


class TestRotateCenter:
    def test_identity(self):
        assert rotate_center(Point(10, 10), 0.0) == Point(10, 10)

    def test_quarter_turn(self):
        p = rotate_center(Point(10, 10), 90.0)
        assert p.x == pytest.approx(10.0, abs=1e-12)
        assert p.y == pytest.approx(-10.0, abs=1e-12)

    def test_45_degrees(self):
        p = rotate_center(Point(10, 10), 45.0)
        assert p.x == pytest.approx(14.142135623730951, abs=1e-12)
        assert p.y == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(x=finite_coord, y=finite_coord, theta=angle)
    def test_preserves_norm(self, x, y, theta):
        p = rotate_center(Point(x, y), theta)
        before = math.hypot(x, y)
        after = math.hypot(p.x, p.y)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(x=finite_coord, y=finite_coord, theta=angle)
    def test_inverse_round_trip(self, x, y, theta):
        p = rotate_center(rotate_center(Point(x, y), theta), -theta)
        assert p.x == pytest.approx(x, abs=1e-10)
        assert p.y == pytest.approx(y, abs=1e-10)


class TestChordLength:
    def test_diameter(self):
        assert chord_length(40, 0) == 80.0

    def test_tangent(self):
        assert chord_length(40, 40) == 0.0

    def test_near_edge(self):
        assert chord_length(40, 39) == pytest.approx(17.776388834631177, rel=1e-14)

    def test_beyond_radius_clamps(self):
        assert chord_length(40, 41) == 0.0
        assert chord_length(40, -1000) == 0.0

    def test_non_positive_radius(self):
        with pytest.raises(NonPositiveRadius):
            chord_length(0, 0)
        with pytest.raises(NonPositiveRadius):
            chord_length(-3, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(min_value=1e-3, max_value=1e3),
        s=st.floats(min_value=-2e3, max_value=2e3),
    )
    def test_even_symmetry(self, r, s):
        assert chord_length(r, s) == chord_length(r, -s)

    def test_monotone_in_abs_offset(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = rng.uniform(0.5, 100.0)
            offsets = np.sort(rng.uniform(0.0, r, size=40))
            chords = [chord_length(r, s) for s in offsets]
            assert all(b <= a for a, b in zip(chords, chords[1:]))


# strip edges as multiples of the radius: anywhere from well outside the disk on
# one side to well outside on the other, or exactly on a tangent or the center
edge_fraction = st.one_of(
    st.floats(min_value=-2.5, max_value=2.5), st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
)


class TestStripArea:
    @settings(max_examples=300, deadline=None)
    @given(
        radius=st.floats(min_value=0.01, max_value=200.0),
        lo=edge_fraction,
        hi=edge_fraction,
    )
    @example(radius=7.0, lo=0.5, hi=-0.5)  # hi < lo
    @example(radius=7.0, lo=0.3, hi=0.3)  # hi == lo
    @example(radius=7.0, lo=1.2, hi=2.0)  # misses the disk on the right
    @example(radius=7.0, lo=-2.0, hi=-1.0)  # misses it on the left, up to the tangent
    @example(radius=7.0, lo=0.6, hi=1.4)  # straddles +r
    @example(radius=7.0, lo=-1.5, hi=-0.2)  # straddles -r
    @example(radius=7.0, lo=-1.0, hi=1.0)  # tangent to tangent
    def test_matches_scalar_reference(self, radius, lo, hi):
        lo, hi = lo * radius, hi * radius
        # np.arcsin and math.asin may round differently by an ulp of r^2 * pi / 2,
        # which a thin strip near the rim does not cancel; the floor is a few such ulps
        assert strip_area(radius, lo, hi) == pytest.approx(
            reference_strip_area(radius, lo, hi), rel=1e-12, abs=1e-14 * radius * radius
        )

    def test_full_disk(self):
        assert strip_area(7.0, -7.0, 7.0) == pytest.approx(math.pi * 49.0, rel=1e-14)

    def test_outside(self):
        assert strip_area(7.0, 8.0, 12.0) == 0.0
        assert strip_area(7.0, 3.0, 3.0) == 0.0

    def test_matches_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            r = rng.uniform(0.5, 50.0)
            lo = rng.uniform(-1.5 * r, 1.5 * r)
            hi = lo + rng.uniform(0.0, r)
            xs = np.linspace(lo, hi, 20001)[:-1] + (hi - lo) / 40000.0
            inside = np.abs(xs) < r
            quad = float(
                np.sum(2.0 * np.sqrt(np.maximum(r * r - xs[inside] ** 2, 0.0)))
                * (hi - lo)
                / 20000.0
            )
            # the midpoint oracle itself is O(h^1.5)-accurate at the disk edge
            assert strip_area(r, lo, hi) == pytest.approx(quad, rel=1e-4, abs=1e-6)

    def test_non_positive_radius(self):
        with pytest.raises(NonPositiveRadius):
            strip_area(0.0, -1.0, 1.0)
        with pytest.raises(NonPositiveRadius):
            strip_area(-3.0, 1.0, 1.0)

    def test_mirror_symmetry(self):
        assert strip_area(10.0, 2.0, 5.0) == pytest.approx(strip_area(10.0, -5.0, -2.0), rel=1e-14)
