import numpy as np
import pytest

from _helpers import pearson
from eit_fbp import (
    Circle,
    FilterKind,
    InterpKind,
    InvalidAngleStep,
    Phantom,
    RasterImage,
    ReconConfig,
    chord_length,
    compare,
    discrete_radon,
    normalize_image,
    rasterize_target,
    round_trip,
    validate,
)


class TestDiscreteRadon:
    def test_zero_image(self):
        img = RasterImage(np.zeros((32, 32)), 10.0)
        sino = discrete_radon(img, 30, 16)
        assert np.all(sino.data == 0.0)
        assert sino.n_angles == 6

    def test_unit_pixel_at_origin(self):
        # odd grid and odd bin count put a pixel and a bin dead center
        pixels = np.zeros((81, 81))
        pixels[40, 40] = 1.0
        img = RasterImage(pixels, 40.5)
        sino = discrete_radon(img, 5, 81)
        center = sino.data[40, :]
        assert np.all(center > 0)
        np.testing.assert_allclose(center, center[0], rtol=1e-12)
        others = np.delete(sino.data, 40, axis=0)
        assert np.all(others == 0.0)

    def test_unit_disk_profile_matches_analytic_chord(self, homogeneous):
        disk = rasterize_target(
            validate(Phantom(40.0, 1.0, 2.0, 1.0)), 320
        )
        sino = discrete_radon(disk, 5, 80)
        centers = -40.0 + (np.arange(80) + 0.5) * 1.0
        chords = np.array([chord_length(40.0, c) for c in centers])
        for a in range(sino.n_angles):
            assert pearson(sino.data[:, a], chords) >= 0.999

    def test_mass_conserved_across_angles(self, one_perturbation):
        img = rasterize_target(one_perturbation, 160)
        sino = discrete_radon(img, 5, 80)
        sums = sino.data.sum(axis=0)
        assert np.ptp(sums) <= 1e-6 * sums.mean()
        # total mass equals pixel sum * (pixel area / bin width)
        expected = img.pixels.sum() * (0.5 * 0.5 / 1.0)
        assert sums[0] == pytest.approx(expected, rel=1e-12)

    def test_point_symmetric_image_gives_even_columns(self):
        ph = validate(
            Phantom(
                40.0,
                0.0005,
                2.0,
                1.0,
                (Circle(12.0, 6.0, 7.0, 0.0002), Circle(-12.0, -6.0, 7.0, 0.0002)),
            )
        )
        sino = discrete_radon(rasterize_target(ph, 160), 15, 80)
        for a in range(sino.n_angles):
            col = sino.data[:, a]
            np.testing.assert_allclose(col, col[::-1], rtol=1e-9, atol=1e-9)

    def test_invalid_inputs(self, one_perturbation):
        img = rasterize_target(one_perturbation, 32)
        with pytest.raises(InvalidAngleStep):
            discrete_radon(img, 7, 32)
        with pytest.raises(ValueError):
            discrete_radon(img, 30, 1)


class TestRoundTrip:
    def test_zero_image(self):
        # unnormalized: the normalize step intentionally maps a constant to 0.5
        img = RasterImage(np.zeros((32, 32)), 10.0)
        cfg = ReconConfig(FilterKind.RAM_LAK, InterpKind.LINEAR, 32, normalize=False)
        out = round_trip(img, cfg, 30)
        assert np.all(out.pixels == 0.0)

    def test_scaling_linearity(self, one_perturbation):
        img = rasterize_target(one_perturbation, 64)
        cfg = ReconConfig(FilterKind.RAM_LAK, InterpKind.LINEAR, 64, normalize=False)
        once = round_trip(img, cfg, 15).pixels
        scaled_img = RasterImage(3.0 * img.pixels, img.extent)
        scaled = round_trip(scaled_img, cfg, 15).pixels
        np.testing.assert_allclose(scaled, 3.0 * once, atol=1e-8 * np.abs(once).max())

    def test_disk_round_trip_fidelity(self, one_perturbation):
        # a homogeneous disk is constant over the comparison mask (pearson
        # degenerates), so the fidelity check uses a disk with one inclusion
        target = normalize_image(rasterize_target(one_perturbation, 120))
        out = round_trip(target, ReconConfig(FilterKind.RAM_LAK, InterpKind.LINEAR, 120), 3)
        assert compare(target, out).pearson >= 0.9
