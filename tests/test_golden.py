"""Golden numeric snapshot of every shipped fixture's outputs.

For each ``fixtures/*.json`` the snapshot holds fingerprints of the
sinograms, the reconstructions, the levels of every PGM written and the
metrics.  A fingerprint is the shape, min, max, 16 row-band and 16
column-band sums and 48 fixed samples of an array.  Tolerances:

* sinograms: rel 1e-12 of the largest magnitude;
* reconstruction pixels: 1e-9 of the pixel range;
* PGM levels: +-1;
* metrics: 1e-9 (relative or absolute).

A band sum gets the tolerance of every entry it adds up.  Refactors prove
"same behaviour" against this file; regenerate it only for an intended
change of outputs:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eit_fbp import compute_sinogram, parse_config, reconstruct, run_pipeline

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"
SNAPSHOT = Path(__file__).resolve().parent / "golden" / "fixtures.json"
FIXTURES = sorted(p.name for p in FIXTURES_DIR.glob("*.json"))

BANDS = 16
SAMPLES = 48
SINOGRAM_RTOL = 1e-12
PIXEL_TOL_OF_RANGE = 1e-9
LEVEL_TOL = 1
METRIC_TOL = 1e-9


def fingerprint(arr: np.ndarray) -> dict:
    a = np.asarray(arr, dtype=float)
    index = np.unique(np.linspace(0, a.size - 1, SAMPLES).round().astype(np.int64))
    return {
        "shape": list(a.shape),
        "min": float(a.min()),
        "max": float(a.max()),
        "row_bands": [float(b.sum()) for b in np.array_split(a, BANDS, axis=0)],
        "col_bands": [float(b.sum()) for b in np.array_split(a, BANDS, axis=1)],
        "sample": a.ravel()[index].tolist(),
    }


def read_pgm(path: Path) -> np.ndarray:
    magic, dims, _maxval, body = path.read_bytes().split(b"\n", 3)
    assert magic == b"P5"
    width, height = (int(v) for v in dims.split())
    return np.frombuffer(body, dtype=">u2").reshape(height, width)


def fixture_outputs(name: str, out_dir: Path) -> dict:
    """Fingerprints of one fixture's sinograms, reconstructions, PGMs and metrics."""
    cfg = replace(parse_config(FIXTURES_DIR / name), output_dir=str(out_dir))
    reports = run_pipeline(cfg)
    sinograms, images = {}, {}
    for quantity in cfg.quantities:
        sino = compute_sinogram(cfg.phantom, cfg.angle_step, quantity)
        sinograms[quantity.value] = fingerprint(sino.data)
        for rc in cfg.recon:
            key = f"{quantity.value}_{rc.filter.value}_{rc.interp.value}_n{int(rc.normalize)}"
            images[key] = fingerprint(reconstruct(sino, rc).pixels)
    return {
        "sinograms": sinograms,
        "images": images,
        "pgm_levels": {p.name: fingerprint(read_pgm(p)) for p in sorted(out_dir.glob("*.pgm"))},
        "metrics": [
            [m.rmse, m.pearson, "inf" if math.isinf(m.psnr) else m.psnr] for m in reports
        ],
    }


def fingerprint_mismatch(got: dict, ref: dict, tol: float) -> str | None:
    """None if every fingerprinted value is within ``tol`` per entry it covers."""
    if got["shape"] != ref["shape"]:
        return f"shape {got['shape']} != {ref['shape']}"
    rows, cols = ref["shape"]
    covered = {
        "min": 1,
        "max": 1,
        "sample": 1,
        "row_bands": math.ceil(rows / BANDS) * cols,
        "col_bands": math.ceil(cols / BANDS) * rows,
    }
    for key, n in covered.items():
        g = np.asarray(got[key], dtype=float)
        r = np.asarray(ref[key], dtype=float)
        excess = np.abs(g - r) - n * tol
        if np.any(excess > 0) or not np.all(np.isfinite(g)):
            i = int(np.argmax(excess))
            return f"{key}[{i}] = {g.ravel()[i]!r}, snapshot {r.ravel()[i]!r}"
    return None


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_fixture(snapshot):
    assert sorted(snapshot) == FIXTURES


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_matches_snapshot(snapshot, tmp_path, name):
    got = fixture_outputs(name, tmp_path)
    ref = snapshot[name]
    problems = []
    for group, tol_of in (
        ("sinograms", lambda r: SINOGRAM_RTOL * max(abs(r["min"]), abs(r["max"]))),
        ("images", lambda r: PIXEL_TOL_OF_RANGE * (r["max"] - r["min"])),
        ("pgm_levels", lambda r: LEVEL_TOL),
    ):
        assert sorted(got[group]) == sorted(ref[group]), group
        for key, r in ref[group].items():
            bad = fingerprint_mismatch(got[group][key], r, tol_of(r))
            if bad:
                problems.append(f"{group}/{key}: {bad}")
    assert len(got["metrics"]) == len(ref["metrics"])
    for i, (g_row, r_row) in enumerate(zip(got["metrics"], ref["metrics"])):
        for label, g, r in zip(("rmse", "pearson", "psnr"), g_row, r_row):
            if g != r and not math.isclose(g, r, rel_tol=METRIC_TOL, abs_tol=METRIC_TOL):
                problems.append(f"metrics[{i}].{label} = {g!r}, snapshot {r!r}")
    assert not problems, "\n".join(problems)


def write_snapshot() -> None:
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIXTURES:
            doc[name] = fixture_outputs(name, Path(tmp) / name)
    SNAPSHOT.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(doc[name], sort_keys=True)}" for name in doc]
    SNAPSHOT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {SNAPSHOT}", file=sys.stderr)


if __name__ == "__main__":
    write_snapshot()
