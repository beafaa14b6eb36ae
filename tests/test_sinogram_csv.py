"""The sinogram CSV writer: its numpy encoder writes exactly the bytes of ``%.17e``."""

import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from eit_fbp import Quantity, Sinogram, compute_sinogram, parse_config, run_pipeline
from eit_fbp.pipeline import QUANTITY_SHORT, _csv_block_rows, _e17_rows, sinogram_csv_text

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
IN_RANGE = st.floats(min_value=1e-5, max_value=1e17, exclude_max=True)


def per_row(sino: Sinogram) -> bytes:
    """The writer's reference: one ``%`` format per row, encoded as ASCII."""
    header = ",".join(repr(a) for a in sino.angles_deg) + "\n"
    row = ",".join(["%.17e"] * sino.n_angles) + "\n"
    return "".join([header, *(row % tuple(values) for values in sino.data)]).encode("ascii")


def e17_rows(block: np.ndarray) -> bytes:
    """The records :func:`_e17_rows` writes for ``block``."""
    out = np.zeros((block.size, 24), np.uint8)
    _e17_rows(block, out)
    return out.tobytes()


def sinogram(data) -> Sinogram:
    data = np.asarray(data, dtype=float)
    angles = tuple(float(a) for a in range(data.shape[1]))
    return Sinogram(data, angles, Quantity.CONDUCTANCE, 1.0, 40.0)


def neighbours(x: float) -> list[float]:
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


def ties() -> list[float]:
    """Values whose 19th significant digit is an exact 5 followed by zeros.

    v = odd / 2**(m + 1) with m = 17 - k puts v * 10**m at odd * 5**m / 2, so
    the 18-digit rounding is a tie; consecutive odds round down and up.
    """
    out = []
    for k in range(-5, 17):
        m = 17 - k
        odd = math.ceil(10.0**k * 2 ** (m + 1)) | 1
        for j in range(0, 8, 2):
            if odd + j < 2**53:
                out.append((odd + j) / 2 ** (m + 1))
    return out


BOUNDARIES = [
    *(x for k in range(-5, 18) for x in neighbours(float(f"1e{k}"))),
    9.999999999999999995e5,  # a literal that rounds up into the next decade: 1e6
    9.9999999999999999e16,
    1e-5,
    1e17,
    *neighbours(2.0**53),
    *ties(),
]


def group_edges() -> list[int]:
    """Exact integers below 2**53 with runs of 0s or 9s on both sides of the
    edges between the encoder's 6-digit groups (digits 6|7 and 12|13).

    Fifteen digits fill the first two groups and half the third; sixteen leave
    it two trailing zeros, and 2**53 keeps their first group below 900720.
    """
    out = []
    for first in ("100000", "999999", "800000", "899999"):
        for second in ("000000", "999999"):
            for third in ("000", "999", "0000", "9999"):
                x = int(first + second + third)
                if x < 2**53:
                    out.append(x)
    return out


FALLBACK = [0.0, -0.0, -1.0, -2.5e-7, -1e300, 5e-324, 2.2250738585072014e-308, 1e-6, 1e17, 1e300]


class TestEncoder:
    @settings(max_examples=300, deadline=None)
    @given(x=FINITE)
    def test_any_finite_double(self, x):
        assert sinogram_csv_text(sinogram([[x]])) == ("0.0\n" + "%.17e\n" % x).encode("ascii")

    @settings(max_examples=300, deadline=None)
    @given(x=IN_RANGE)
    def test_encoder_in_range(self, x):
        assert e17_rows(np.array([[x]])) == ("%.17e\n" % x).encode("ascii")

    @settings(max_examples=100, deadline=None)
    @given(
        data=arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, max_side=40),
            elements=st.one_of(IN_RANGE, IN_RANGE, FINITE),
        )
    )
    def test_matches_per_row_format(self, data):
        sino = sinogram(data)
        assert sinogram_csv_text(sino) == per_row(sino)

    @pytest.mark.parametrize("x", BOUNDARIES, ids=repr)
    def test_boundary_value(self, x):
        assert sinogram_csv_text(sinogram([[x, x]])) == per_row(sinogram([[x, x]]))
        if 1e-5 <= x < 1e17:
            assert e17_rows(np.array([[x]])) == ("%.17e\n" % x).encode("ascii")

    def test_ties_round_to_even(self):
        values = ties()
        assert len(values) >= 60
        text = e17_rows(np.array([values]))
        assert text == (",".join("%.17e" % x for x in values) + "\n").encode("ascii")
        directions = set()
        for x, record in zip(values, text.decode("ascii").split(",")):
            digits, exponent = record.replace(".", "").split("e")
            scaled = Fraction(x) * Fraction(10) ** (17 - int(exponent))
            assert scaled.denominator == 2  # an exact tie
            assert int(digits) % 2 == 0
            directions.add(int(digits) - math.floor(scaled))
        assert directions == {0, 1}  # some ties round down, some up

    @pytest.mark.parametrize("x", group_edges())
    def test_runs_across_digit_groups(self, x):
        assert float(x) == x
        assert e17_rows(np.array([[float(x)]])) == ("%.17e\n" % x).encode("ascii")

    @pytest.mark.parametrize("x", FALLBACK, ids=repr)
    def test_value_outside_the_range_falls_back(self, x):
        expected = "0.0,1.0\n" + "%.17e,%.17e\n" % (1.0, x)
        assert sinogram_csv_text(sinogram([[1.0, x]])) == expected.encode("ascii")


class TestSinogramCsv:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_fixture_bytes_unchanged(self, path):
        cfg = parse_config(path)
        for quantity in cfg.quantities:
            sino = compute_sinogram(cfg.phantom, cfg.angle_step, quantity)
            assert sinogram_csv_text(sino) == per_row(sino)

    def test_rows_mixing_fast_and_fallback(self):
        rng = np.random.default_rng(7)
        for n_angles in (9, 180):
            rows = _csv_block_rows(n_angles)
            data = 10.0 ** rng.uniform(-5, 17, size=(3 * rows + 5, n_angles))
            data = np.clip(data, 1e-5, 9e16)
            # fallback rows inside a block, at block edges, a run of them, and the last
            fallback = [
                (0, 0.0),
                (rows // 2, -0.0),
                (rows - 1, -3.0),
                (rows, 1e17),
                (rows + 1, 5e-324),
                *((row, -1.0) for row in range(2 * rows - 2, 2 * rows + 3)),
                (3 * rows + 4, 1e200),
            ]
            for row, value in fallback:
                data[row, row % n_angles] = value
            # whole fallback rows in the middle block whose values are not 24 bytes
            # each: negatives (25), three-digit exponents (25, 26 when negative), and
            # zeros mixed in, so each row is longer than its in-range neighbours
            middle = rows + rows // 2
            data[middle - 2] = -data[middle - 2]
            data[middle] = np.resize([1e-300, 0.0, -2.5e300, 1e-310], n_angles)
            data[middle + 2] = np.resize([0.0, -0.0, -7.0], n_angles)
            sino = sinogram(data)
            for row in (middle - 2, middle, middle + 2):
                assert sum(len("%.17e," % v) for v in data[row]) > 24 * n_angles
            assert sinogram_csv_text(sino) == per_row(sino)

    def test_no_angles_or_no_slices(self):
        empty = Sinogram(np.zeros((3, 0)), (), Quantity.CONDUCTANCE, 1.0, 40.0)
        assert sinogram_csv_text(empty) == per_row(empty) == b"\n\n\n\n"
        assert sinogram_csv_text(sinogram(np.zeros((0, 2)))) == b"0.0,1.0\n"

    def test_written_csv_is_the_encoder_output(self, fixtures_dir, tmp_path):
        cfg = parse_config(fixtures_dir / "one_perturbation_q10.json")
        cfg = replace(cfg, output_dir=str(tmp_path), emit=("sinogram_csv",))
        run_pipeline(cfg)
        for quantity in cfg.quantities:
            sino = compute_sinogram(cfg.phantom, cfg.angle_step, quantity)
            name = f"sinogram_{QUANTITY_SHORT[quantity]}.csv"
            assert (tmp_path / name).read_bytes() == sinogram_csv_text(sino)
