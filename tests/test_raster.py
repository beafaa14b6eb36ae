import math
from dataclasses import astuple

import numpy as np
import pytest

from _helpers import (
    fresh_array_compare,
    full_grid_rasterize_target,
    nearest_pixel_value,
    random_phantom,
)
from eit_fbp import (
    Circle,
    FilterKind,
    InterpKind,
    Phantom,
    Quantity,
    RasterImage,
    ReconConfig,
    SizeMismatch,
    compare,
    compute_sinogram,
    inscribed_mask,
    normalize_image,
    pixel_centers,
    rasterize_target,
    reconstruct,
)
from eit_fbp.raster import rescale


class TestRasterImage:
    def test_pixels_must_be_square_and_2d(self):
        for shape in ((4, 5), (4,), (4, 4, 1)):
            with pytest.raises(ValueError, match="square 2-D"):
                RasterImage(np.zeros(shape), 1.0)
        img = RasterImage(np.zeros((5, 5)), 1.0)
        assert img.size == 5

    def test_pixels_must_not_be_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            RasterImage(np.zeros((0, 0)), 1.0)

    @pytest.mark.parametrize("extent", [0.0, -1.0, math.nan, math.inf])
    def test_extent_must_be_finite_and_positive(self, extent):
        with pytest.raises(ValueError, match="extent"):
            RasterImage(np.zeros((4, 4)), extent)

    # rescale reads min and max of the disk's pixels, so no valid image may have none
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_smallest_images_have_a_disk(self, size):
        assert inscribed_mask(size, 1.0).any()
        assert normalize_image(RasterImage(np.ones((size, size)), 1.0)).pixels.max() == 0.5


class TestInscribedMask:
    def test_built_once_and_read_only(self):
        mask = inscribed_mask(80, 40.0)
        assert inscribed_mask(80, 40.0) is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = True

    def test_every_stage_reads_the_one_mask(self, one_perturbation):
        # back projection, the target, normalization, written images' rescale and
        # compare at one grid build its mask once between them
        inscribed_mask.cache_clear()
        sino = compute_sinogram(one_perturbation, 10, Quantity.AVG_CONDUCTIVITY)
        image = reconstruct(sino, ReconConfig(FilterKind.RAM_LAK, InterpKind.LINEAR, 48))
        target = normalize_image(rasterize_target(one_perturbation, 48))
        rescale(image, 0.5)
        compare(image, target)
        info = inscribed_mask.cache_info()
        assert (info.misses, info.hits) == (1, 5)


class TestRasterizeTarget:
    def test_homogeneous_disk(self, homogeneous):
        img = rasterize_target(homogeneous, 80)
        mask = inscribed_mask(80, 40)
        assert np.all(img.pixels[mask] == 2000.0)
        assert np.all(img.pixels[~mask] == 0.0)
        assert img.extent == 40.0

    def test_perturbation_and_background_values(self, one_perturbation):
        img = rasterize_target(one_perturbation, 160)
        assert nearest_pixel_value(img, 10.0, 10.0) == pytest.approx(5000.0)
        assert nearest_pixel_value(img, -10.0, -10.0) == pytest.approx(2000.0)

    def test_corner_outside_circle(self, one_perturbation):
        img = rasterize_target(one_perturbation, 160)
        assert nearest_pixel_value(img, 39.9, 39.9) == 0.0

    def test_grid_size_too_small(self, homogeneous):
        with pytest.raises(ValueError):
            rasterize_target(homogeneous, 1)

    # odd grids have a middle row and column; grid 2 has one pixel a quadrant
    @pytest.mark.parametrize("size", [2, 3, 7, 64, 65, 320, 321])
    def test_bytes_equal_full_grid(self, size):
        # each inclusion is tested on a window of rows and columns; every pixel must get
        # the bytes the whole-grid test gave it: inclusions touching the rim, random ones,
        # and ones centred on a pixel centre whose radius is a whole number of pixel
        # steps, so pixel centres lie on their edges up to rounding
        rim = (Circle(30.0, 0.0, 10.0, 2e-4), Circle(-30.0, 0.0, 10.0, 3e-4), Circle(0.0, 25.0, 15.0, 4e-4))
        rng = np.random.default_rng(size)
        phantoms = [Phantom(40.0, 5e-4, 2.0, 1.0, rim), *(random_phantom(rng, 4) for _ in range(20))]
        for _ in range(20):
            extent = rng.uniform(25.0, 50.0)
            xs, ys = pixel_centers(size, extent)
            i, j = rng.choice(np.flatnonzero(np.abs(xs) <= extent / 2), 2)  # |ys[k]| == |xs[k]|
            radius = min(rng.integers(1, size // 8 + 2) * 2.0 * extent / size, 0.25 * extent)
            circle = Circle(float(xs[j]), float(ys[i]), float(radius), 1e-3)
            phantoms.append(Phantom(extent, 5e-4, 2.0, 1.0, (circle,)))
        for phantom in phantoms:
            got = rasterize_target(phantom, size).pixels
            assert got.tobytes() == full_grid_rasterize_target(phantom, size).tobytes()

    def test_resolution_consistency(self, one_perturbation):
        fine = rasterize_target(one_perturbation, 160).pixels
        coarse = rasterize_target(one_perturbation, 80).pixels
        blocks = fine.reshape(80, 2, 80, 2)
        downsampled = blocks.mean(axis=(1, 3))
        mixed_block = blocks.max(axis=(1, 3)) != blocks.min(axis=(1, 3))
        disagree = downsampled != coarse
        # disagreements may only happen where a material boundary crosses the block
        assert not np.any(disagree & ~mixed_block)


class TestNormalizeImage:
    def test_endpoints_map_to_unit_range(self, one_perturbation):
        img = normalize_image(rasterize_target(one_perturbation, 80))
        mask = inscribed_mask(80, 40)
        assert img.pixels[mask].min() == 0.0
        assert img.pixels[mask].max() == 1.0
        assert np.all(img.pixels[~mask] == 0.0)

    def test_constant_disk_maps_to_half(self, homogeneous):
        img = normalize_image(rasterize_target(homogeneous, 64))
        mask = inscribed_mask(64, 40)
        assert np.all(img.pixels[mask] == 0.5)
        assert np.all(img.pixels[~mask] == 0.0)

    def test_idempotent(self, one_perturbation):
        once = normalize_image(rasterize_target(one_perturbation, 80))
        twice = normalize_image(once)
        np.testing.assert_allclose(twice.pixels, once.pixels, atol=1e-12)


class TestCompare:
    def make_pair(self, one_perturbation):
        a = normalize_image(rasterize_target(one_perturbation, 80))
        mask = inscribed_mask(80, 40)
        flipped = np.where(mask, 1.0 - a.pixels, 0.0)
        b = RasterImage(flipped, 40.0)
        return a, b

    def test_self_comparison(self, one_perturbation):
        a = normalize_image(rasterize_target(one_perturbation, 80))
        m = compare(a, a)
        assert m.rmse == 0.0
        assert m.pearson == pytest.approx(1.0, abs=1e-12)
        assert math.isinf(m.psnr)

    def test_anticorrelation(self, one_perturbation):
        a, b = self.make_pair(one_perturbation)
        assert compare(a, b).pearson == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry(self, one_perturbation, two_perturbation):
        a = normalize_image(rasterize_target(one_perturbation, 80))
        b = normalize_image(rasterize_target(two_perturbation, 80))
        ab, ba = compare(a, b), compare(b, a)
        assert ab.rmse == ba.rmse
        assert ab.pearson == pytest.approx(ba.pearson, abs=1e-15)

    def test_pixels_outside_disk_never_count(self, one_perturbation):
        a, flipped = self.make_pair(one_perturbation)
        mask = inscribed_mask(80, 40)
        outside = np.random.default_rng(0).uniform(5.0, 9.0, (80, 80))
        same = RasterImage(np.where(mask, a.pixels, outside), 40.0)
        other = RasterImage(np.where(mask, flipped.pixels, outside), 40.0)
        for x, y in ((a, same), (same, a)):
            m = compare(x, y)
            assert m.rmse == 0.0
            assert m.pearson == pytest.approx(1.0, abs=1e-12)
        ab, ba = compare(a, other), compare(other, a)
        assert ab == ba
        assert ab == compare(a, flipped)
        assert ab.pearson == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("size, extent", [(2, 1.0), (33, 37.0), (80, 40.0), (321, 0.25)])
    def test_equals_fresh_array_arithmetic(self, size, extent):
        # bit for bit, with pixels outside the disk that must not count; a constant image
        # has denominator 0 and identical images have rmse 0 and psnr inf
        rng = np.random.default_rng(size)
        noise = rng.uniform(-3.0, 3.0, (4, size, size))
        disk = inscribed_mask(size, extent)
        images = [RasterImage(np.where(disk, p, q), extent) for p, q in zip(noise[:2], noise[2:])]
        images.append(RasterImage(np.where(disk, 0.5, noise[3]), extent))
        for a in images:
            for b in images:
                got, own = astuple(compare(a, b)), astuple(fresh_array_compare(a, b))
                assert np.array(got).tobytes() == np.array(own).tobytes()
        assert compare(images[0], images[0]).psnr == math.inf
        assert compare(images[2], images[0]).pearson == 0.0

    def test_constant_image_pearson_is_zero(self, homogeneous, one_perturbation):
        const = normalize_image(rasterize_target(homogeneous, 80))
        other = normalize_image(rasterize_target(one_perturbation, 80))
        assert compare(const, other).pearson == 0.0

    def test_size_mismatch(self, one_perturbation):
        a = rasterize_target(one_perturbation, 80)
        b = rasterize_target(one_perturbation, 64)
        with pytest.raises(SizeMismatch):
            compare(a, b)

    def test_psnr_formula(self):
        base = np.zeros((4, 4))
        a = RasterImage(base, 2.0)
        b = RasterImage(base + 0.1, 2.0)
        m = compare(a, b)
        assert m.rmse == pytest.approx(0.1, rel=1e-12)
        assert m.psnr == pytest.approx(20.0, rel=1e-12)
