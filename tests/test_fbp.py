import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    einsum_pieces,
    full_grid_back_project,
    one_call_filter,
    own_quadrant,
    packed_pixels,
    top_decile_centroid,
)
from eit_fbp import (
    Circle,
    EmptySinogram,
    FilterKind,
    FrequencyOutOfRange,
    InterpKind,
    Phantom,
    Projection,
    Quantity,
    ReconConfig,
    Sinogram,
    back_project,
    compute_sinogram,
    filter_gain,
    filter_projection,
    reconstruct,
    sample_projection,
    validate,
)
import eit_fbp.fbp as fbp
from eit_fbp.config import parse_config
from eit_fbp.fbp import _filter
from eit_fbp.pipeline import run_pipeline
from eit_fbp.projector import sweep_angles
from eit_fbp.raster import inscribed_mask, pixel_centers

WINDOWED = (
    FilterKind.RAM_LAK,
    FilterKind.SHEPP_LOGAN,
    FilterKind.COSINE,
    FilterKind.HAMMING,
    FilterKind.HANN,
)


def make_projection(values, angle=0.0):
    return Projection(np.asarray(values, dtype=float), angle, Quantity.CONDUCTANCE)


def make_sinogram(data, angles, radius=40.0, width=1.0):
    return Sinogram(
        data=np.asarray(data, dtype=float),
        angles_deg=tuple(angles),
        quantity=Quantity.CONDUCTANCE,
        slice_width=width,
        subject_radius=radius,
    )


class TestFilterGain:
    def test_ramp_kills_dc(self):
        assert filter_gain(FilterKind.RAM_LAK, 0.0) == 0.0

    def test_hann_vanishes_at_nyquist(self):
        assert filter_gain(FilterKind.HANN, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_hamming_at_nyquist(self):
        assert filter_gain(FilterKind.HAMMING, 1.0) == pytest.approx(0.08, abs=1e-15)

    def test_none_is_all_pass(self):
        for f in np.linspace(0, 1, 11):
            assert filter_gain(FilterKind.NONE, float(f)) == 1.0

    def test_out_of_range(self):
        with pytest.raises(FrequencyOutOfRange):
            filter_gain(FilterKind.RAM_LAK, -0.01)
        with pytest.raises(FrequencyOutOfRange):
            filter_gain(FilterKind.HANN, 1.01)

    def test_unknown_kind_rejected(self):
        # a kind's value is not a kind, and must not get the Hann gains
        with pytest.raises(ValueError, match="filter must be of type FilterKind, got .ramlak."):
            filter_gain("ramlak", 0.5)
        with pytest.raises(ValueError, match="filter must be of type FilterKind"):
            filter_projection(make_projection([1.0, 2.0, 3.0]), "hamming")

    def test_smoother_windows_attenuate_more(self):
        # hamming/cosine cross near f = 0.945, so only the provable orderings
        # are asserted on the full grid
        fs = np.linspace(0.0, 1.0, 1000)
        gains = {kind: np.array([filter_gain(kind, float(f)) for f in fs]) for kind in WINDOWED}
        eps = 1e-12
        assert np.all(gains[FilterKind.HANN] <= gains[FilterKind.HAMMING] + eps)
        assert np.all(gains[FilterKind.HANN] <= gains[FilterKind.COSINE] + eps)
        assert np.all(gains[FilterKind.COSINE] <= gains[FilterKind.SHEPP_LOGAN] + eps)
        assert np.all(gains[FilterKind.HAMMING] <= gains[FilterKind.SHEPP_LOGAN] + eps)
        assert np.all(gains[FilterKind.SHEPP_LOGAN] <= gains[FilterKind.RAM_LAK] + eps)
        below = fs <= 0.94
        assert np.all(gains[FilterKind.HAMMING][below] <= gains[FilterKind.COSINE][below] + eps)


def dft_kernel_convolution(values, kind):
    """Brute-force oracle: circular convolution with the inverse-DFT filter kernel."""
    n = len(values)
    padded_len = 1 << max(2 * n - 1, 1).bit_length()
    padded = np.zeros(padded_len)
    padded[:n] = values
    gains = np.empty(padded_len)
    for k in range(padded_len):
        m = min(k, padded_len - k)
        gains[k] = filter_gain(kind, m / (padded_len // 2))
    kernel = np.array(
        [
            sum(
                gains[k] * np.exp(2j * np.pi * k * i / padded_len)
                for k in range(padded_len)
            ).real
            / padded_len
            for i in range(padded_len)
        ]
    )
    out = np.array(
        [
            sum(padded[j] * kernel[(i - j) % padded_len] for j in range(padded_len))
            for i in range(padded_len)
        ]
    )
    return out[:n]


class TestFilterProjection:
    def test_constant_ramlak_quiet_away_from_edges(self):
        # zero padding turns a constant into a box, so the ramp responds at
        # the block edges; away from them the DC kill leaves almost nothing
        p = make_projection(np.full(65, 7.5))
        out = filter_projection(p, FilterKind.RAM_LAK).values
        assert np.max(np.abs(out[20:45])) <= 0.02 * 7.5
        # the dome-shaped projection of a disk vanishes at its ends, so there
        # the same filter leaves no edge artifact of its own
        dome = make_projection(2.0 * np.sqrt(np.maximum(1056.25 - (np.arange(65) - 32.0) ** 2, 0.0)))
        filtered = filter_projection(dome, FilterKind.RAM_LAK).values
        assert np.all(np.isfinite(filtered))

    def test_none_returns_input_unchanged(self):
        p = make_projection(np.arange(10.0))
        assert filter_projection(p, FilterKind.NONE) is p

    def test_impulse_matches_dft_oracle(self):
        values = np.zeros(17)
        values[8] = 1.0
        expected = dft_kernel_convolution(values, FilterKind.RAM_LAK)
        out = filter_projection(make_projection(values), FilterKind.RAM_LAK)
        np.testing.assert_allclose(out.values, expected, atol=1e-9)

    @pytest.mark.parametrize("kind", WINDOWED)
    @pytest.mark.parametrize("n", [8, 33, 64])
    def test_matches_dft_oracle(self, kind, n):
        rng = np.random.default_rng(n * 31 + WINDOWED.index(kind))
        values = rng.standard_normal(n)
        expected = dft_kernel_convolution(values, kind)
        out = filter_projection(make_projection(values), kind)
        np.testing.assert_allclose(out.values, expected, atol=1e-9)

    @pytest.mark.parametrize("kind", WINDOWED)
    @pytest.mark.parametrize("n", [1, 8, 33, 64, 80])
    def test_whole_sinogram_matches_each_column(self, kind, n):
        # reconstruct filters all columns in one call; criterion 05 checks one
        values = np.random.default_rng(n).standard_normal((n, 7))
        out = _filter(values, kind)
        assert out.shape == values.shape
        for a in range(values.shape[1]):
            column = filter_projection(make_projection(values[:, a]), kind).values
            scale = np.max(np.abs(values[:, a]))
            np.testing.assert_allclose(out[:, a], column, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("n", [1, 80, 321])
    def test_whole_sinogram_holds_no_padded_buffer(self, n):
        # reconstruct keeps the filtered sinogram through back projection; a
        # view of the padded irfft output would pin about 3x its bytes
        values = np.ones((n, 180))
        out = _filter(values, FilterKind.RAM_LAK)
        assert out.base is None
        assert out.nbytes == values.nbytes

    def test_preserves_metadata(self):
        p = make_projection(np.arange(5.0), angle=35.0)
        out = filter_projection(p, FilterKind.HANN)
        assert out.angle_deg == 35.0
        assert out.quantity is p.quantity


# a single column, a single slice, and odd column counts; forward_heavy's 320 slices
# pad to 1024, so its blocks are 32 columns wide and 181 columns end in a short block
FILTER_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.integers(1, 400), st.just(1)),
    st.tuples(st.just(1), st.integers(1, 400)),
    st.tuples(st.integers(1, 400), st.integers(1, 200).map(lambda m: 2 * m + 1)),
    st.just((320, 181)),
)


class TestFilterBlocks:
    """Filtering in blocks of columns writes the same bytes as one FFT over all of them."""

    # None keeps the block budget; 1 makes every column a block of its own; 2**9
    # gives blocks of 64 columns at 4 slices, 2 at 100 and 1 from 129 on
    @pytest.mark.parametrize("budget", [None, 1, 2**9])
    @settings(max_examples=40, deadline=None)
    @given(
        shape=FILTER_SHAPES,
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(list(FilterKind)),
    )
    def test_bytes_equal_one_call(self, budget, shape, seed, kind):
        values = np.random.default_rng(seed).standard_normal(shape)
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(fbp, "_FILTER_BLOCK_VALUES", budget)
            got = _filter(values, kind)
        assert got.shape == values.shape
        assert got.tobytes() == one_call_filter(values, kind).tobytes()

    @pytest.mark.parametrize("n, width", [(1, 2**14), (80, 128), (320, 32), (1280, 8), (20000, 1)])
    def test_block_width_follows_padded_length(self, n, width):
        # each block's padded output stays within the budget: 256 KB of float64
        calls = []
        rfft = np.fft.rfft

        def spy(a, n, axis):
            calls.append(a.shape[1])
            return rfft(a, n=n, axis=axis)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.fft, "rfft", spy)
            _filter(np.ones((n, 2 * width + 1)), FilterKind.RAM_LAK)
        assert calls == [width, width, 1]


class TestNearestTable:
    """Nearest's one piece is its bin, so its table is the padded row itself, equal to the
    ``einsum`` of its basis row over sliding windows that it replaced."""

    # (rows, bins): one row of one bin, one bin, one row, and odd and even widths
    @pytest.mark.parametrize("shape", [(1, 1), (4, 1), (1, 9), (25, 33), (18, 80), (180, 320)])
    def test_equals_einsum_table(self, shape):
        rows = np.random.default_rng(sum(shape)).standard_normal(shape)
        rows[0, 0] = -0.0
        got = fbp._pieces(rows, InterpKind.NEAREST)
        expected = einsum_pieces(rows, InterpKind.NEAREST)
        assert got.shape == expected.shape == (shape[0], 1, shape[1] + 5)
        assert np.array_equal(got, expected)  # the einsum may give either signed zero

    # (slices, angles): 1 x 1, n x 1, and odd slice counts; sweeps with mirrors and turns
    @pytest.mark.parametrize(
        "n_slices, n_angles", [(1, 1), (6, 1), (7, 1), (1, 4), (9, 4), (33, 25), (80, 18)]
    )
    @pytest.mark.parametrize("size", [2, 7, 64])
    def test_back_project_bytes_equal_einsum(self, n_slices, n_angles, size):
        rng = np.random.default_rng(n_slices * n_angles + size)
        data = rng.standard_normal((n_slices, n_angles))
        width = 2.0 * 40.0 / (n_slices + 0.5)
        sino = make_sinogram(data, sweep_angles(180.0 / n_angles), width=width)
        cfg = ReconConfig(FilterKind.NONE, InterpKind.NEAREST, size)
        got = back_project(sino, cfg).pixels
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fbp, "_pieces", einsum_pieces)
            expected = back_project(sino, cfg).pixels
        assert got.tobytes() == expected.tobytes()


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


def reference_back_project(sino: Sinogram, config: ReconConfig) -> np.ndarray:
    """Back projection one angle at a time with explicit taps per kind: the
    design that the piece tables replaced, kept as their reference."""
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
    return acc


@st.composite
def sinograms(
    draw, angle_lists=st.lists(st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=20)
):
    """Random sinograms whose slice width does not divide the diameter."""
    n = draw(st.integers(1, 90))
    radius = draw(st.floats(1.0, 100.0))
    width = 2.0 * radius / (n + draw(st.floats(0.05, 0.95)))
    angles = draw(angle_lists)
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed).standard_normal((n, len(angles)))
    return make_sinogram(data, angles, radius=radius, width=width)


# Full sweeps, where every angle but 0 and 90 has its mirror 180 - angle, and with an even
# angle count its quarter turns too (but 45 and 135, which mirror each other)
SWEEP_STEPS = [180.0 / n for n in range(1, 61)] + [0.9, 1.8, 3.6, 7.2]


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(sino=sinograms(), size=st.integers(2, 70), kind=st.sampled_from(list(InterpKind)))
    def test_back_project_matches_reference(self, sino, size, kind):
        # any angle list, a sweep or not, joins each index to exactly one group
        assert members(fbp._groups(sino.angles_deg)) == list(range(sino.n_angles))
        cfg = ReconConfig(FilterKind.NONE, kind, size)
        expected = reference_back_project(sino, cfg)
        got = back_project(sino, cfg).pixels
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))

    @settings(max_examples=60, deadline=None)
    @given(
        sino=sinograms(st.sampled_from(SWEEP_STEPS).map(sweep_angles)),
        size=st.integers(2, 70),
        kind=st.sampled_from(list(InterpKind)),
    )
    def test_mirror_paired_sweep_matches_reference(self, sino, size, kind):
        cfg = ReconConfig(FilterKind.NONE, kind, size)
        expected = reference_back_project(sino, cfg)
        got = back_project(sino, cfg).pixels
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_exact_ties(self, kind):
        # grid 40, R = 40, w = 1: at 0 degrees every pixel center sits at
        # t = 2i + 0.5, halfway between two bins
        data = np.random.default_rng(5).standard_normal((80, 3))
        sino = make_sinogram(data, (0.0, 45.0, 90.0))
        cfg = ReconConfig(FilterKind.NONE, kind, 40)
        expected = reference_back_project(sino, cfg)
        got = back_project(sino, cfg).pixels
        if kind is InterpKind.NEAREST:
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))

    @settings(max_examples=60, deadline=None)
    @given(
        sino=sinograms(),
        where=st.floats(-1.0, 1.0),
        kind=st.sampled_from(list(InterpKind)),
    )
    def test_sample_projection_matches_reference(self, sino, where, kind):
        r, w = sino.subject_radius, sino.slice_width
        values = sino.data[:, 0]
        s = where * r
        expected = _sample_values(values, np.array([(s + r - w / 2.0) / w]), kind)[0]
        got = sample_projection(make_projection(values), s, kind, r, w)
        assert got == pytest.approx(expected, rel=0, abs=1e-12 * np.max(np.abs(values)))


class TestSampleProjection:
    values = np.array([3.0, -1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    p = make_projection(values)
    radius = 4.0
    width = 1.0

    def sample(self, s, kind):
        return sample_projection(self.p, s, kind, self.radius, self.width)

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_on_knot(self, kind):
        for j in range(8):
            s = -self.radius + (j + 0.5) * self.width
            assert self.sample(s, kind) == pytest.approx(self.values[j], rel=1e-14)

    def test_linear_midpoint(self):
        s = -self.radius + 1.0 * self.width  # halfway between centers 0 and 1
        assert self.sample(s, InterpKind.LINEAR) == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_outside_support(self, kind):
        assert self.sample(4.25, kind) == 0.0
        assert self.sample(-77.0, kind) == 0.0

    def test_nearest_rounds_half_away_from_zero(self):
        # s = -R + w maps to t = 0.5, which rounds to bin 1
        assert self.sample(-3.0, InterpKind.NEAREST) == -1.0
        # s = -R maps to t = -0.5, which rounds to bin -1 (zero extension)
        assert self.sample(-4.0, InterpKind.NEAREST) == 0.0

    def test_spline_interpolates_smoothly(self):
        # Catmull-Rom reproduces linear data exactly
        ramp = make_projection(np.arange(8.0))
        for s in (-2.3, 0.4, 1.9):
            got = sample_projection(ramp, s, InterpKind.SPLINE, self.radius, self.width)
            t = (s + self.radius - 0.5) / self.width
            assert got == pytest.approx(t, rel=1e-12)


class TestBackProject:
    def test_zero_sinogram(self):
        sino = make_sinogram(np.zeros((16, 6)), np.arange(0, 180, 30))
        img = back_project(sino, ReconConfig(FilterKind.NONE, InterpKind.LINEAR, 32))
        assert np.all(img.pixels == 0.0)

    def test_empty_sinogram(self):
        sino = make_sinogram(np.zeros((0, 0)), [])
        with pytest.raises(EmptySinogram):
            back_project(sino, ReconConfig(FilterKind.NONE, InterpKind.LINEAR, 32))

    def test_scaling_linearity_exact(self):
        rng = np.random.default_rng(2)
        data = rng.random((16, 6))
        angles = tuple(np.arange(0, 180, 30.0))
        cfg = ReconConfig(FilterKind.NONE, InterpKind.SPLINE, 24)
        a = back_project(make_sinogram(data, angles), cfg)
        b = back_project(make_sinogram(2.0 * data, angles), cfg)
        np.testing.assert_array_equal(2.0 * a.pixels, b.pixels)

    def test_masked_outside_circle(self):
        rng = np.random.default_rng(3)
        sino = make_sinogram(rng.random((16, 6)), np.arange(0, 180, 30.0))
        img = back_project(sino, ReconConfig(FilterKind.NONE, InterpKind.LINEAR, 40))
        assert img.pixels[0, 0] == 0.0  # corner is outside the inscribed circle

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            ReconConfig(FilterKind.NONE, InterpKind.LINEAR, 1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("filter", "ramlak", "filter must be of type FilterKind"),
            ("filter", InterpKind.LINEAR, "filter must be of type FilterKind"),
            ("interp", "linear", "interp must be of type InterpKind"),
            ("grid_size", 32.0, "grid_size must be of type int"),
            ("grid_size", True, "grid_size must be of type int"),
            ("normalize", 1, "normalize must be of type bool"),
            ("normalize", None, "normalize must be of type bool"),
        ],
    )
    def test_field_of_wrong_type_rejected(self, field, value, message):
        # rejected on construction, not by a later stage: a string filter would get the
        # Hann gains and break config_to_dict, a string interp a KeyError, a float grid a
        # TypeError
        fields = {"filter": FilterKind.RAM_LAK, "interp": InterpKind.LINEAR, "grid_size": 32}
        with pytest.raises(ValueError, match=f"^{message}, got {value!r}$"):
            ReconConfig(**{**fields, field: value})
        with pytest.raises(ValueError, match=f"^{message}"):
            replace(ReconConfig(**fields), **{field: value})


class TestReconstruct:
    def test_flat_disk_is_flat(self, homogeneous):
        sino = compute_sinogram(homogeneous, 1, Quantity.CONDUCTANCE)
        cfg = ReconConfig(FilterKind.RAM_LAK, InterpKind.LINEAR, 160, normalize=False)
        img = reconstruct(sino, cfg)
        xs = -40 + (np.arange(160) + 0.5) * 0.5
        gx, gy = np.meshgrid(xs, xs[::-1], indexing="xy")
        central = gx * gx + gy * gy <= 400.0
        region = img.pixels[central]
        assert region.std() / region.mean() < 0.1

    def test_normalized_homogeneous_interior_is_quiet(self, homogeneous):
        sino = compute_sinogram(homogeneous, 1, Quantity.CONDUCTANCE)
        img = reconstruct(sino, ReconConfig(FilterKind.RAM_LAK, InterpKind.LINEAR, 160))
        xs = -40 + (np.arange(160) + 0.5) * 0.5
        gx, gy = np.meshgrid(xs, xs[::-1], indexing="xy")
        central = gx * gx + gy * gy <= 400.0
        assert img.pixels[central].std() < 0.15

    def test_linearity(self, one_perturbation, homogeneous):
        s1 = compute_sinogram(one_perturbation, 15, Quantity.CONDUCTANCE)
        s2 = compute_sinogram(homogeneous, 15, Quantity.CONDUCTANCE)
        mixed = make_sinogram(
            2.5 * s1.data + 0.5 * s2.data, s1.angles_deg
        )
        cfg = ReconConfig(FilterKind.RAM_LAK, InterpKind.LINEAR, 64, normalize=False)
        combined = reconstruct(mixed, cfg).pixels
        separate = 2.5 * reconstruct(s1, cfg).pixels + 0.5 * reconstruct(s2, cfg).pixels
        scale = np.max(np.abs(separate))
        np.testing.assert_allclose(combined, separate, atol=1e-8 * scale)

    def test_rotational_equivariance(self, one_perturbation):
        # rotating the perturbation by 90 deg (a multiple of the 10 deg step)
        # moves the recovered blob to the rotated position within 2 pixels
        rotated = validate(Phantom(40, 0.0005, 2, 1, (Circle(-10, 10, 10, 0.0002),)))
        cfg = ReconConfig(FilterKind.NONE, InterpKind.LINEAR, 80)
        c1 = top_decile_centroid(
            reconstruct(compute_sinogram(one_perturbation, 10, Quantity.AVG_CONDUCTIVITY), cfg)
        )
        c2 = top_decile_centroid(
            reconstruct(compute_sinogram(rotated, 10, Quantity.AVG_CONDUCTIVITY), cfg)
        )
        # (x, y) rotated by +90 about the origin lands at (-y, x); 1 px = 1 mm here
        assert math.hypot(c2[0] + c1[1], c2[1] - c1[0]) <= 2.0

    @pytest.mark.parametrize("kind", [FilterKind.RAM_LAK, FilterKind.HANN, FilterKind.NONE])
    @pytest.mark.parametrize("interp", list(InterpKind))
    def test_output_always_finite(self, one_perturbation, kind, interp):
        sino = compute_sinogram(one_perturbation, 30, Quantity.AVG_CONDUCTIVITY)
        img = reconstruct(sino, ReconConfig(kind, interp, 48))
        assert np.all(np.isfinite(img.pixels))

    def test_blob_appears_at_perturbation(self, one_perturbation):
        sino = compute_sinogram(one_perturbation, 10, Quantity.AVG_CONDUCTIVITY)
        img = reconstruct(sino, ReconConfig(FilterKind.NONE, InterpKind.LINEAR, 80))
        cx, cy = top_decile_centroid(img)
        assert math.hypot(cx - 10.0, cy - 10.0) <= 5.0


def sweep(n):
    """The n-angle sweep i * (180 / n), as sweep_angles builds it."""
    return tuple(i * (180.0 / n) for i in range(n))


def members(groups):
    """Every index that ``groups`` holds, in order, once for each group it is in."""
    return sorted(k for group in groups for k in group if k is not None)


class TestGroups:
    """Each lead angle takes up to three partners, at its offsets in a sweep: its mirror
    180 - angle, its quarter turn angle + 90 and that turn flipped, 90 - angle; each matched
    within one ulp of 180."""

    def test_every_sweep_groups_completely(self):
        for n in range(1, 2001):
            groups = fbp._groups(sweep(n))
            assert members(groups) == list(range(n))
            if n % 2:  # 0 and (n - 1) / 2 mirror pairs
                assert len(groups) == 1 + (n - 1) // 2
            elif n % 4 == 2:  # 0, 90 and groups of four
                assert len(groups) == 2 + (n - 2) // 4
            else:  # 0, 90, the pair (45, 135) and groups of four
                assert len(groups) == 3 + (n - 4) // 4

    def test_partners_match_their_lead(self):
        angles = sweep(180)
        for k, mirror, turned, flipped in fbp._groups(angles):
            a = angles[k]
            if mirror is not None:
                assert abs(a + angles[mirror] - 180) <= math.ulp(180.0)
            if turned is not None:
                assert abs(angles[turned] - a - 90) <= math.ulp(180.0)
            if flipped is not None:
                assert abs(a + angles[flipped] - 90) <= math.ulp(180.0)

    # in the 10 degree sweep, 10 (index 1) has its mirror 170 at 17, its quarter turn 100
    # at 10 and its flipped turn 80 at 8
    TENS = sweep_angles(10.0)

    def test_within_one_ulp_grouped(self):
        for partner in (17, 10, 8):
            for direction in (-math.inf, math.inf):
                angles = list(self.TENS)
                angles[partner] = math.nextafter(angles[partner], direction)
                groups = fbp._groups(tuple(angles))
                assert (1, 17, 10, 8) in groups
                assert groups == fbp._groups(self.TENS)

    @pytest.mark.parametrize("partner", [170.000001, 100.000001, 79.999999])
    def test_near_partner_beyond_one_ulp_not_grouped(self, partner):
        k = {170.000001: 17, 100.000001: 10, 79.999999: 8}[partner]
        angles = list(self.TENS)
        angles[k] = partner
        groups = fbp._groups(tuple(angles))
        assert (1, *(None if j == k else j for j in (17, 10, 8))) in groups
        assert (k, None, None, None) in groups
        assert members(groups) == list(range(18))

    def test_repeated_angle_joins_one_group(self):
        # the two 45s sit at each other's flipped offset and the two 90s at each other's
        # mirror offset, but no angle is grouped with its own repeat
        angles = (30.0, 45.0, 45.0, 90.0, 90.0, 150.0, 150.0)
        groups = fbp._groups(angles)
        assert members(groups) == list(range(len(angles)))
        for group in groups:
            grouped = [angles[k] for k in group if k is not None]
            assert len(set(grouped)) == len(grouped)

    def test_axes_are_never_quarter_partners(self):
        # on 0 and 90 t lies on the pixel lattice, where nearest's ties follow the last bit
        # of cos 90; 0 and 180 stay a mirror pair
        assert fbp._groups(sweep_angles(90.0)) == [(0, None, None, None), (1, None, None, None)]
        assert fbp._groups(sweep_angles(45.0)) == [
            (0, None, None, None),
            (1, 3, None, None),
            (2, None, None, None),
        ]
        # 90 is 5e-15's quarter turn within one ulp, but an axis, so it is not taken
        assert fbp._groups((5e-15, 90.0)) == [(0, None, None, None), (1, None, None, None)]
        assert fbp._groups((90.0, 180.0, 0.0)) == [(0, None, None, None), (1, 2, None, None)]


class TestMirrorPairs:
    """Each whole group, an angle with its mirror 180 - angle and their quarter turns,
    shares one lateral grid: t is computed once per group, in the one ``_interpolate`` call
    per group that a spy counts, over every packed pixel of the disk."""

    @pytest.fixture
    def t_computations(self, monkeypatch):
        calls = []
        interpolate = fbp._interpolate

        def spy(table, interp, work, index):
            calls.append(index.size)
            return interpolate(table, interp, work, index)

        monkeypatch.setattr(fbp, "_interpolate", spy)
        return calls

    @staticmethod
    def check(angles, kind, expected_calls, calls):
        data = np.random.default_rng(len(angles)).standard_normal((45, len(angles)))
        sino = make_sinogram(data, angles, radius=37.0, width=74.0 / 45.3)
        cfg = ReconConfig(FilterKind.NONE, kind, 33)  # one chunk
        got = back_project(sino, cfg).pixels
        assert calls == [packed_pixels(33, 37.0)] * expected_calls
        expected = reference_back_project(sino, cfg)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_sweep_computes_t_once_per_pair(self, kind, t_computations):
        angles = sweep_angles(0.9)
        assert len(angles) == 200
        self.check(angles, kind, 52, t_computations)  # 0, 90, (45, 135) and 49 groups of four

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_near_mirror_beyond_one_ulp_not_paired(self, kind, t_computations):
        # the 22.5 degree sweep is 0, 90, the pair (45, 135) and one group of four; moving
        # 22.5's three partners beyond one ulp leaves 0, 90, (45, 135) and four lone angles
        angles = list(sweep_angles(22.5))
        angles[7], angles[5], angles[3] = 157.500001, 112.500002, 67.499999
        self.check(angles, kind, 7, t_computations)

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_repeated_angle_not_paired(self, kind, t_computations):
        angles = (30.0, 45.0, 45.0, 90.0, 90.0, 150.0, 150.0)  # as in TestGroups
        groups = fbp._groups(angles)
        assert members(groups) == list(range(len(angles)))
        self.check(angles, kind, len(groups), t_computations)

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_partial_groups_match_reference(self, kind, t_computations):
        # 22.5's mirror moved beyond one ulp: 22.5 keeps only its quarter turns, so the
        # 22.5 degree sweep's group of four has three members and 157.500001 is alone
        angles = list(sweep_angles(22.5))
        angles[7] = 157.500001
        assert (1, None, 5, 3) in fbp._groups(tuple(angles))
        self.check(angles, kind, 5, t_computations)


# The angle lists of TestMirrorPairs that are not sweeps: partial groups, lone angles and
# repeats
PARTIAL_GROUPS = [
    tuple(157.500001 if k == 7 else a for k, a in enumerate(sweep_angles(22.5))),
    tuple(
        {7: 157.500001, 5: 112.500002, 3: 67.499999}.get(k, a)
        for k, a in enumerate(sweep_angles(22.5))
    ),
    (30.0, 45.0, 45.0, 90.0, 90.0, 150.0, 150.0),
]


class TestDiskLayout:
    """Back projection over the disk's quadrant pixels, packed with their reflections and
    split into chunks, writes the same bytes as the full-grid back projection it replaced."""

    # even and odd grids; the smallest split into fewer chunks than there are CPUs
    @pytest.mark.parametrize("size", [2, 3, 7, 10, 11, 64, 257])
    @settings(max_examples=15, deadline=None)
    @given(
        sino=sinograms(
            st.one_of(
                st.sampled_from(SWEEP_STEPS).map(sweep_angles),
                st.sampled_from(PARTIAL_GROUPS),
                st.lists(st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=20),
            )
        ),
        kind=st.sampled_from(list(InterpKind)),
        cpus=st.sampled_from([1, 2, 3, 5]),
    )
    def test_bytes_equal_full_grid(self, size, sino, kind, cpus):
        cfg = ReconConfig(FilterKind.NONE, kind, size)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fbp, "_usable_cpus", lambda: cpus)
            patch.setattr(fbp, "_MIN_BLOCK_PIXELS", 16)
            got = back_project(sino, cfg).pixels
        assert got.tobytes() == full_grid_back_project(sino, cfg).tobytes()

    @pytest.mark.parametrize("size", [320, 321])
    @pytest.mark.parametrize("step", [22.5, 7.2], ids=["sweep_22.5", "odd_sweep_7.2"])
    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_bytes_equal_full_grid_at_benchmark_grid(self, size, step, kind, monkeypatch):
        # the benchmark's grid and the odd grid after it, in two chunks at the real
        # _MIN_BLOCK_PIXELS: 22.5 has a group of four, 7.2 (25 angles) mirror pairs alone
        monkeypatch.setattr(fbp, "_usable_cpus", lambda: 2)
        assert packed_pixels(size, 40.0) >= 2 * fbp._MIN_BLOCK_PIXELS
        angles = sweep_angles(step)
        data = np.random.default_rng(size + len(angles)).standard_normal((80, len(angles)))
        sino = make_sinogram(data, angles)
        cfg = ReconConfig(FilterKind.NONE, kind, size)
        got = back_project(sino, cfg).pixels
        assert got.tobytes() == full_grid_back_project(sino, cfg).tobytes()

    def test_disk_is_symmetric(self):
        # only the disk's top-left quadrant is looked up, so the disk must be its own
        # reflection in x and in y and its own transpose, though pixel centers are not
        # exactly antisymmetric; and the mask's top-left quadrant, which back projection
        # reads, must be what an x^2 + y^2 test over that quadrant alone picks
        rng = np.random.default_rng(4)
        asymmetric_centers = 0
        for size in [*range(2, 130), 257, 320, 321, 400, 401, 1000, 2049]:
            half = (size + 1) // 2
            for extent in (1.0, 37.0, 40.0, *rng.uniform(1e-3, 1e3, 2)):
                xs, _ = pixel_centers(size, extent)
                asymmetric_centers += bool((xs != -xs[::-1]).any())
                mask = inscribed_mask(size, extent)
                assert (mask == mask[::-1]).all() and (mask == mask[:, ::-1]).all()
                assert (mask == mask.T).all()
                rows, cols = np.nonzero(mask[:half, :half])
                own_rows, own_cols = own_quadrant(size, extent)
                assert np.array_equal(rows, own_rows) and np.array_equal(cols, own_cols)
        assert asymmetric_centers > 0


class TestRowBlocks:
    """When the disk packs at least 2 * _MIN_BLOCK_PIXELS pixels, its quadrant pixels are
    back-projected in contiguous chunks, one thread each; the CPU count is patched so every
    case splits on any machine.  (The name is from the row blocks that chunks replaced.)"""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(n):
            monkeypatch.setattr(fbp, "_usable_cpus", lambda: n)

        return set_cpus

    @pytest.fixture
    def fast_switching(self):
        """Threads switch every microsecond, so chunks interleave as finely as they can."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_bit_equal_across_cpu_counts(self, kind, cpus, monkeypatch, fast_switching):
        monkeypatch.setattr(fbp, "_MIN_BLOCK_PIXELS", 16)
        packed = []
        interpolate = fbp._interpolate

        def spy(table, interp, work, index):
            packed.append(index.size)
            return interpolate(table, interp, work, index)

        monkeypatch.setattr(fbp, "_interpolate", spy)
        data = np.random.default_rng(7).standard_normal((45, 3))
        three = make_sinogram(data, (0.0, 61.0, 122.5), radius=37.0, width=74.0 / 45.3)
        # a 22.5 degree sweep: 0, 90, the pair (45, 135) and one group of four, its mirror
        # added reversed in x and its flipped quarter turn reversed in y
        data = np.random.default_rng(8).standard_normal((45, 8))
        sweep = make_sinogram(data, sweep_angles(22.5), radius=37.0, width=74.0 / 45.3)
        # a 10 degree sweep: 0, 90 and four groups of four
        data = np.random.default_rng(9).standard_normal((45, 18))
        tens = make_sinogram(data, sweep_angles(10.0), radius=37.0, width=74.0 / 45.3)
        for sino, calls in ((three, 3), (sweep, 4), (tens, 6)):
            # odd grids have a middle row and column that are their own reflections; grid
            # 7's disk packs pixels for only 3 chunks; grid 257's 13,101 quadrant pixels
            # divide evenly among none of 2 or 5 chunks
            for size in (7, 10, 11, 64, 257):
                cfg = ReconConfig(FilterKind.NONE, kind, size)
                cpus(1)
                single = back_project(sino, cfg).pixels
                pixels = packed_pixels(size, 37.0)
                for n in (2, 3, 5):
                    cpus(n)
                    packed.clear()
                    np.testing.assert_array_equal(back_project(sino, cfg).pixels, single)
                    n_chunks = min(n, pixels // 16)
                    assert len(packed) == calls * n_chunks and sum(packed) == calls * pixels

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_split_matches_reference(self, kind, cpus):
        cpus(3)
        size = 210  # two chunks at the real _MIN_BLOCK_PIXELS
        assert packed_pixels(size, 40.0) // fbp._MIN_BLOCK_PIXELS == 2
        data = np.random.default_rng(11).standard_normal((60, 3))
        sino = make_sinogram(data, (0.0, 33.0, 101.0), radius=40.0, width=80.0 / 60.4)
        cfg = ReconConfig(FilterKind.NONE, kind, size)
        expected = reference_back_project(sino, cfg)
        got = back_project(sino, cfg).pixels
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))

    # grid 81 in two chunks, one in the caller and one in a worker thread; a failure in the
    # caller's chunk must still wait for the worker's chunk before it is raised
    @pytest.mark.parametrize("failing", ["caller", "worker"], ids=["caller_block", "worker_block"])
    def test_worker_failure_reaches_caller(self, cpus, monkeypatch, fixtures_dir, tmp_path, failing):
        cpus(2)
        monkeypatch.setattr(fbp, "_MIN_BLOCK_PIXELS", 16)
        interpolate = fbp._interpolate
        caller = threading.get_ident()
        finished = []

        def fail_in_one_chunk(table, interp, work, index):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise RuntimeError("injected chunk failure")
            time.sleep(0.02)  # so a chunk that is not waited for is still running
            value = interpolate(table, interp, work, index)
            finished.append(index.size)
            return value

        monkeypatch.setattr(fbp, "_interpolate", fail_in_one_chunk)
        sino = make_sinogram(np.ones((20, 2)), (0.0, 90.0))  # two groups: 0 and 90
        with pytest.raises(RuntimeError, match="injected chunk failure"):
            back_project(sino, ReconConfig(FilterKind.NONE, InterpKind.LINEAR, 81))
        assert len(finished) == 2  # the other chunk ran both groups before the error came

        finished.clear()
        cfg = parse_config(fixtures_dir / "one_perturbation_q10.json")
        cfg = replace(
            cfg,
            recon=tuple(replace(rc, grid_size=81) for rc in cfg.recon),
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(RuntimeError, match="injected chunk failure"):
            run_pipeline(cfg)
        assert "injected chunk failure" in (tmp_path / "out" / "INCOMPLETE").read_text()
        assert len(finished) == len(fbp._groups(sweep_angles(cfg.angle_step)))

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_chunk_allocates_no_plane(self, kind, cpus, monkeypatch):
        # the caller allocates every chunk's planes before any worker starts, so a chunk,
        # in the caller or in a worker thread, allocates nothing of their size: at grid
        # 320 each of two chunks has about 2.2 MB of planes.  The chunks run one at a time
        # here, each traced on its own
        cpus(2)
        accumulate = fbp._accumulate
        one_at_a_time = threading.Lock()
        peaks = []

        def traced(*args):
            with one_at_a_time:
                tracemalloc.start()
                try:
                    accumulate(*args)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

        monkeypatch.setattr(fbp, "_accumulate", traced)
        angles = sweep_angles(22.5)  # a group of four, a mirror pair and two lone angles
        data = np.random.default_rng(5).standard_normal((80, len(angles)))
        back_project(make_sinogram(data, angles), ReconConfig(FilterKind.NONE, kind, 320))
        assert len(peaks) == 2 and max(peaks) < 64 * 1024

    @staticmethod
    def check_memory(angles, kind, cpus):
        # the 46 bytes a pixel of the largest grid that config._work counts: 56 for
        # each packed pixel's planes, about 0.79 of them a pixel, and no pixel index is
        # built; the rest, a few per-thread KiB and O(grid) vectors, does not grow with
        # grid^2
        size = 400
        data = np.random.default_rng(3).standard_normal((40, len(angles)))
        sino = make_sinogram(data, angles, width=2.0)
        cfg = ReconConfig(FilterKind.RAM_LAK, kind, size)
        reconstruct(sino, cfg)  # first-call allocations are not the recon's

        def peak(n):
            cpus(n)
            tracemalloc.start()
            try:
                reconstruct(sino, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single, split = peak(1), peak(4)
        assert split <= single + 3 * 4096  # 4 KiB per extra thread
        assert split <= 46 * size * size + 48 * 1024

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_memory_does_not_grow_with_blocks(self, kind, cpus):
        self.check_memory((0.0, 45.0, 90.0, 135.0), kind, cpus)

    @pytest.mark.parametrize("kind", list(InterpKind))
    def test_memory_does_not_grow_with_quarter_turns(self, kind, cpus):
        # the 22.5 degree sweep's group of four: the same bounds hold with the quarter
        # accumulator, the flip in y and the final fold
        angles = sweep_angles(22.5)
        assert (1, 7, 5, 3) in fbp._groups(angles)
        self.check_memory(angles, kind, cpus)
