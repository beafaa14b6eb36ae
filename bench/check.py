"""Output checks for benchmark passes.

Every pass is checked after the timed region:

* the artifacts named by ``metrics.json`` exist, no ``INCOMPLETE`` marker is
  left, and the reported metrics match the values ``run_pipeline`` returned;
* CSV, PGM and PNG bytes are identical to those of the first pass (the
  package promises byte-deterministic artifacts);
* on the first pass, for every seed: total conductance per projection is the
  same at every angle (rel 1e-6), each projection correlates with the
  discrete Radon transform of the target rasterised at twice the slice count
  (per-angle Pearson >= 0.99), and each PGM holds the levels of the image
  ``reconstruct`` returned (+-1);
* on the first pass, where a reference was recorded (fixtures, and the
  default seed of the generated workloads): sinograms to rel 1e-12,
  reconstruction pixels to 1e-9 of their range, PGM levels +-1 and metrics
  to 1e-9.

References store fingerprints -- shape, range, sums over bands of rows
and of columns, and a fixed sample of entries -- rather than whole arrays.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SAMPLES = 48
BANDS = 16
SINOGRAM_RTOL = 1e-12
PIXEL_TOL_OF_RANGE = 1e-9
LEVEL_TOL = 1
METRIC_TOL = 1e-9
CONSERVATION_RTOL = 1e-6
ORACLE_MIN_PEARSON = 0.99


def image_key(quantity: str, filter: str, interp: str, normalize: bool, grid_size: int) -> str:
    """Names one reconstruction of a config, as metrics.json describes it."""
    raw = "" if normalize else "_raw"
    return f"{quantity}_{filter}_{interp}{raw}_g{grid_size}"


def sample_index(size: int) -> np.ndarray:
    return np.unique(np.linspace(0, size - 1, SAMPLES).round().astype(np.int64))


def _band_sums(a: np.ndarray) -> list[float]:
    return [float(band.sum()) for band in np.array_split(a, min(BANDS, a.shape[0]))]


def fingerprint(arr: np.ndarray) -> dict:
    a = np.asarray(arr, dtype=float)
    return {
        "shape": list(a.shape),
        "min": float(a.min()),
        "max": float(a.max()),
        "row_bands": _band_sums(a),
        "col_bands": _band_sums(a.T),
        "sample": a.ravel()[sample_index(a.size)].tolist(),
    }


def compare_fingerprint(got: dict, ref: dict, elem_tol: float, rel: float = 0.0) -> str | None:
    """None if every fingerprinted entry is within ``elem_tol + rel * |ref|``;
    a band sum gets the tolerance of all the entries it adds up."""
    if got["shape"] != ref["shape"]:
        return f"shape {got['shape']} != reference {ref['shape']}"
    size = ref["shape"][0] * ref["shape"][1]
    row_band = size / len(ref["row_bands"])
    col_band = size / len(ref["col_bands"])
    for key, n in (("sample", 1), ("row_bands", row_band), ("col_bands", col_band), ("min", 1), ("max", 1)):
        g = np.asarray(got[key], dtype=float)
        r = np.asarray(ref[key], dtype=float)
        excess = np.abs(g - r) - (math.ceil(n) * elem_tol + rel * np.abs(r))
        if np.any(excess > 0) or not np.all(np.isfinite(g)):
            i = int(np.argmax(excess))
            return f"{key}[{i}] = {float(g.ravel()[i])!r}, reference {float(r.ravel()[i])!r}"
    return None


def sinogram_tol(ref: dict) -> float:
    return SINOGRAM_RTOL * max(abs(ref["min"]), abs(ref["max"]))


def image_tol(ref: dict) -> float:
    return PIXEL_TOL_OF_RANGE * (ref["max"] - ref["min"])


def read_csv(path: Path) -> tuple[list[float], np.ndarray]:
    lines = path.read_text().splitlines()
    angles = [float(a) for a in lines[0].split(",")]
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return angles, data


def read_pgm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    magic, dims, maxval, body = raw.split(b"\n", 3)
    width, height = (int(v) for v in dims.split())
    if magic != b"P5" or int(maxval) != 65535 or len(body) != 2 * width * height:
        raise ValueError(f"{path.name}: not a 16-bit P5 PGM of {width}x{height}")
    return np.frombuffer(body, dtype=">u2").reshape(height, width).astype(np.int64)


def check_png(path: Path, size: int) -> str | None:
    raw = path.read_bytes()
    if raw[:8] != b"\x89PNG\r\n\x1a\n" or raw[12:16] != b"IHDR":
        return f"{path.name}: not a PNG"
    width, height = int.from_bytes(raw[16:20], "big"), int.from_bytes(raw[20:24], "big")
    if (width, height) != (size, size):
        return f"{path.name}: PNG is {width}x{height}, expected {size}x{size}"
    return None


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float((da * da).sum()) * float((db * db).sum()))
    return float((da * db).sum()) / denom if denom > 0 else 0.0


def strip_conductance(cfg, quantity: str, data: np.ndarray) -> np.ndarray:
    """Conductance sinogram; average conductivity times subject strip area / depth."""
    if quantity == "conductance":
        return data
    from eit_fbp.phantom import strip_area
    from eit_fbp.projector import slice_bounds

    ph = cfg.phantom
    area = np.array(
        [
            strip_area(ph.subject_radius, *slice_bounds(ph.subject_radius, ph.slice_width, j))
            for j in range(data.shape[0])
        ]
    )
    return data * area[:, None] / ph.depth


def physics_problems(cfg, quantity: str, angles, data, oracle) -> list[str]:
    """Conservation across angles and per-angle agreement with the oracle."""
    from eit_fbp.projector import slice_count, sweep_angles

    problems = []
    n = slice_count(cfg.phantom.subject_radius, cfg.phantom.slice_width)
    expect_angles = list(sweep_angles(cfg.angle_step))
    if data.shape != (n, len(expect_angles)) or angles != expect_angles:
        return [f"{quantity}: sinogram shape {data.shape} or angles differ from the config"]
    conductance = strip_conductance(cfg, quantity, data)
    totals = conductance.sum(axis=0)
    spread = (totals.max() - totals.min()) / abs(totals.mean())
    if not spread <= CONSERVATION_RTOL:
        problems.append(f"{quantity}: column sums differ across angles by rel {spread:.3g}")
    worst = min(_pearson(conductance[:, a], oracle[:, a]) for a in range(data.shape[1]))
    if not worst >= ORACLE_MIN_PEARSON:
        problems.append(f"{quantity}: per-angle Pearson with the Radon oracle {worst:.4f} < 0.99")
    return problems


def oracle_sinogram(cfg) -> np.ndarray:
    """Discrete Radon transform of the target rasterised at twice the slice count."""
    from eit_fbp.projector import slice_count
    from eit_fbp.radon_oracle import discrete_radon
    from eit_fbp.raster import rasterize_target

    n = slice_count(cfg.phantom.subject_radius, cfg.phantom.slice_width)
    return discrete_radon(rasterize_target(cfg.phantom, 2 * n), cfg.angle_step, n).data


def expected_levels(image_fp: dict, size: int, extent: float, lo: float, hi: float) -> np.ndarray:
    """PGM levels at the fingerprint's sample points, from the float image."""
    from eit_fbp.raster import inscribed_mask

    idx = sample_index(size * size)
    inside = inscribed_mask(size, extent).ravel()[idx]
    v = np.asarray(image_fp["sample"])
    if hi > lo:
        levels = np.rint(np.clip((v - lo) / (hi - lo) * 65535, 0, 65535))
    else:
        levels = np.full(v.shape, 65535 // 2)
    return np.where(inside, levels, 0)


def metrics_problems(got: list, ref: list) -> list[str]:
    if len(got) != len(ref):
        return [f"{len(got)} results, expected {len(ref)}"]
    problems = []
    for i, (g_row, r_row) in enumerate(zip(got, ref)):
        for name, g, r in zip(("rmse", "pearson", "psnr"), g_row, r_row):
            same = g == r or math.isclose(g, r, rel_tol=METRIC_TOL, abs_tol=METRIC_TOL)
            if not same:
                problems.append(f"result {i} {name} = {g!r}, expected {r!r}")
    return problems


def read_metrics(path: Path) -> tuple[dict, list]:
    doc = json.loads(path.read_text())
    rows = [
        [r["rmse"], r["pearson"], math.inf if r["psnr"] == "inf" else r["psnr"]]
        for r in doc["results"]
    ]
    return doc, rows
