import struct
import zlib

import numpy as np
import pytest

from eit_fbp import (
    FilterKind,
    InterpKind,
    Quantity,
    RasterImage,
    ReconConfig,
    compute_sinogram,
    inscribed_mask,
    normalize_image,
    parse_config,
    rasterize_target,
    reconstruct,
)
from eit_fbp import imageio, pipeline
from eit_fbp.imageio import MID_GRAY, write_pgm, write_png
from eit_fbp.pipeline import _write_images
from eit_fbp.raster import rescale


def read_pgm(path):
    blob = path.read_bytes()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    assert magic == b"P5"
    data = np.frombuffer(rest, dtype=">u2").reshape(h, w)
    return int(maxval), data


def read_png(path):
    blob = path.read_bytes()
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    pos = 8
    chunks = {}
    while pos < len(blob):
        (length,) = struct.unpack(">I", blob[pos : pos + 4])
        tag = blob[pos + 4 : pos + 8]
        data = blob[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", blob[pos + 8 + length : pos + 12 + length])
        assert crc == zlib.crc32(tag + data) & 0xFFFFFFFF
        chunks[tag] = data
        pos += 12 + length
    w, h, depth, color, *_ = struct.unpack(">IIBBBBB", chunks[b"IHDR"])
    assert (depth, color) == (8, 0)
    raw = zlib.decompress(chunks[b"IDAT"])
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, w + 1)
    assert np.all(rows[:, 0] == 2)  # filter type 2 (Up) on every scanline
    # undo Up: each byte plus the decoded byte above it, a running sum mod 256 down the rows
    return np.cumsum(rows[:, 1:], axis=0, dtype=np.uint8)


@pytest.fixture
def target(one_perturbation):
    return normalize_image(rasterize_target(one_perturbation, 64))


@pytest.fixture
def raw_ramlak(fixtures_dir):
    """An unnormalised ramlak reconstruction, whose disk has pixels of both signs."""
    cfg = parse_config(fixtures_dir / "three_perturbations_q5.json")
    sino = compute_sinogram(cfg.phantom, cfg.angle_step, Quantity.AVG_CONDUCTIVITY)
    return reconstruct(sino, ReconConfig(FilterKind.RAM_LAK, InterpKind.LINEAR, 64, False))


def write_images(tmp_path, img, stem="t"):
    """Write ``img`` as a run does, PGM and PNG from one mapping; its (lo, hi)."""
    fields = _write_images(tmp_path, stem, img)
    assert (fields["pgm"], fields["png"]) == (f"{stem}.pgm", f"{stem}.png")
    return fields["display_lo"], fields["display_hi"]


# the levels read back, and the file's maxval
FORMATS = {"pgm": (lambda path: read_pgm(path)[1], 65535), "png": (read_png, 255)}


class TestPgm:
    def test_header_and_range(self, tmp_path, target):
        lo, hi = write_images(tmp_path, target)
        maxval, data = read_pgm(tmp_path / "t.pgm")
        assert maxval == 65535
        assert data.shape == (64, 64)
        assert (lo, hi) == (0.0, 1.0)
        assert data.max() == 65535
        mask = inscribed_mask(64, 40.0)
        assert np.all(data[~mask] == 0)

    def test_levels_match_affine_mapping(self, tmp_path, target):
        lo, hi = write_images(tmp_path, target)
        _, data = read_pgm(tmp_path / "t.pgm")
        expected = np.rint((target.pixels - lo) / (hi - lo) * 65535).astype(np.uint32)
        mask = inscribed_mask(64, 40.0)
        np.testing.assert_array_equal(data[mask], expected[mask])

    def test_constant_image_is_mid_gray(self, tmp_path):
        img = RasterImage(np.full((8, 8), 3.0), 4.0)
        mask = inscribed_mask(8, 4.0)
        assert write_images(tmp_path, img, "c") == (3.0, 3.0)
        _, data = read_pgm(tmp_path / "c.pgm")
        assert np.all(data[mask] == 65535 // 2)
        assert np.all(data[~mask] == 0)
        levels = read_png(tmp_path / "c.png")
        assert np.all(levels[mask] == 127)
        assert np.all(levels[~mask] == 0)

    def test_deterministic_bytes(self, tmp_path, target):
        unit, _, _ = rescale(target, MID_GRAY)
        write_pgm(tmp_path / "a.pgm", unit)
        write_pgm(tmp_path / "b.pgm", unit)
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


class TestPng:
    def test_decodes_to_quantized_levels(self, tmp_path, target):
        lo, hi = write_images(tmp_path, target)
        data = read_png(tmp_path / "t.png")
        expected = np.rint((target.pixels - lo) / (hi - lo) * 255).astype(np.uint8)
        mask = inscribed_mask(64, 40.0)
        np.testing.assert_array_equal(data[mask], expected[mask])
        assert np.all(data[~mask] == 0)

    def test_up_filter_wraps_mod_256(self, tmp_path):
        # rows alternating 0 and 255 store differences of 255 and 1 (mod 256) below row 0
        unit = np.indices((9, 9)).sum(axis=0) % 2.0
        write_png(tmp_path / "c.png", unit)
        np.testing.assert_array_equal(read_png(tmp_path / "c.png"), 255 * unit)

    def test_deterministic_bytes(self, tmp_path, target):
        unit, _, _ = rescale(target, MID_GRAY)
        write_png(tmp_path / "a.png", unit)
        write_png(tmp_path / "b.png", unit)
        assert (tmp_path / "a.png").read_bytes() == (tmp_path / "b.png").read_bytes()


class TestRawReconstruction:
    @pytest.mark.parametrize("suffix", FORMATS)
    def test_levels_of_negative_and_positive_pixels(self, tmp_path, raw_ramlak, suffix):
        read, maxval = FORMATS[suffix]
        mask = inscribed_mask(64, 40.0)
        disk = raw_ramlak.pixels[mask]
        assert disk.min() < 0 < disk.max()
        lo, hi = write_images(tmp_path, raw_ramlak, "raw")
        assert (lo, hi) == (disk.min(), disk.max())
        data = read(tmp_path / f"raw.{suffix}")
        np.testing.assert_array_equal(data[mask], np.rint((disk - lo) / (hi - lo) * maxval))
        assert np.all(data[~mask] == 0)


def test_one_rescale_per_image(tmp_path, target, monkeypatch):
    calls = []

    def counted(img, flat):
        calls.append(img)
        return rescale(img, flat)

    monkeypatch.setattr(pipeline, "rescale", counted)
    write_images(tmp_path, target)
    assert len(calls) == 1
    # the writers only encode: nothing in imageio comes from raster
    assert "eit_fbp.raster" not in {getattr(v, "__module__", None) for v in vars(imageio).values()}


@pytest.mark.parametrize("maxval, dtype", [(65535, ">u2"), (255, "u1")])
def test_levels_in_row_blocks_match_whole_image_rounding(maxval, dtype):
    unit = np.random.default_rng(0).random((150, 150))  # two 64-row blocks and part of a third
    unit[0, :3] = [0.0, 1.0, MID_GRAY]
    expected = np.rint(unit * maxval).astype(dtype)
    np.testing.assert_array_equal(imageio._levels(unit, maxval, dtype), expected)
