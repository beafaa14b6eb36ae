"""Batch pipeline: forward project, reconstruct, compare, write artifacts.

This module owns every artifact name.  Layout inside the output directory:

* ``sinogram_<quantity>.csv``  -- header row of angles, one row per slice
* ``target.pgm`` / ``target.png`` -- normalized ground-truth conductivity image
* ``<quantity>_<filter>_<interp>[_raw].pgm/.png`` -- reconstructions
* ``metrics.json`` -- config echo, metrics, timings and display mappings
* ``INCOMPLETE`` -- present while a run is going and after one that failed
  or was killed

When the recon configs use several grid sizes, every image stem ends in
``_g<N>``.

CSV and image bytes depend only on the config, never on wall-clock state.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from .config import RunConfig, config_to_dict
from .fbp import ReconConfig, reconstruct
from .imageio import write_atomic, write_pgm, write_png
from .projector import Quantity, Sinogram, compute_sinogram
from .raster import MetricsReport, RasterImage, compare, normalize_image, rasterize_target

QUANTITY_SHORT = {Quantity.CONDUCTANCE: "conductance", Quantity.AVG_CONDUCTIVITY: "avgcond"}
# the temporaries write_atomic leaves behind when a run is killed mid-write
_TEMPORARIES = ("*.csv.tmp", "*.pgm.tmp", "*.png.tmp", "metrics.json.tmp")


def grid_suffix(grid_size: int, recon: tuple[ReconConfig, ...]) -> str:
    """Image-name suffix: ``_g<N>`` unless every recon config uses that size."""
    return "" if all(rc.grid_size == grid_size for rc in recon) else f"_g{grid_size}"


def recon_stem(rc: ReconConfig, recon: tuple[ReconConfig, ...]) -> str:
    """Image-name stem of one of the ``recon`` configs, after its quantity prefix."""
    raw = "" if rc.normalize else "_raw"
    return f"{rc.filter.value}_{rc.interp.value}{raw}{grid_suffix(rc.grid_size, recon)}"


def sinogram_csv_text(sino: Sinogram) -> str:
    """Angles as the header row, then one full-precision row per slice."""
    header = ",".join(repr(a) for a in sino.angles_deg) + "\n"
    row = ",".join(["%.17e"] * sino.n_angles) + "\n"
    return "".join([header, *(row % tuple(values) for values in sino.data)])


def _json_safe(value: float) -> float | str:
    return "inf" if math.isinf(value) else value


def _write_images(out_dir: Path, stem: str, img: RasterImage) -> dict:
    """Write ``<stem>.pgm`` and ``<stem>.png``; their metrics.json fields."""
    lo, hi = write_pgm(out_dir / f"{stem}.pgm", img)
    write_png(out_dir / f"{stem}.png", img)
    return {"pgm": f"{stem}.pgm", "png": f"{stem}.png", "display_lo": lo, "display_hi": hi}


def run_pipeline(config: RunConfig) -> list[MetricsReport]:
    """Run every quantity x recon combination, writing the requested artifacts.

    An ``INCOMPLETE`` marker is written before any artifact and removed only
    once every artifact is in place, so a run that dies for any reason,
    including being killed, is never mistaken for a full one.  On an
    exception the marker names the error.  Each artifact is written under a
    temporary name and moved into place, so none is ever a truncated file;
    temporaries a killed run left behind are deleted first.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    marker = out_dir / "INCOMPLETE"
    marker.write_text("pipeline running or killed\n")
    try:
        for pattern in _TEMPORARIES:
            for stale in out_dir.glob(pattern):
                stale.unlink(missing_ok=True)
        reports = _run(config, out_dir)
    except Exception as e:
        try:
            marker.write_text(f"pipeline failed: {e}\n")
        except OSError:
            pass
        raise
    marker.unlink()
    return reports


def _run(config: RunConfig, out_dir: Path) -> list[MetricsReport]:
    emit = set(config.emit)
    doc: dict = {"config": config_to_dict(config), "sinograms": [], "targets": [], "results": []}
    reports: list[MetricsReport] = []

    sinograms: dict[Quantity, Sinogram] = {}
    for quantity in config.quantities:
        sino = compute_sinogram(config.phantom, config.angle_step, quantity)
        sinograms[quantity] = sino
        if "sinogram_csv" in emit:
            name = f"sinogram_{QUANTITY_SHORT[quantity]}.csv"
            write_atomic(out_dir / name, sinogram_csv_text(sino).encode("ascii"))
            doc["sinograms"].append({"quantity": quantity.value, "csv": name})

    targets = {}
    for grid in sorted({rc.grid_size for rc in config.recon}):
        target = normalize_image(rasterize_target(config.phantom, grid))  # conductivity
        targets[grid] = target
        if "target_image" in emit:
            stem = "target" + grid_suffix(grid, config.recon)
            doc["targets"].append({"grid_size": grid, **_write_images(out_dir, stem, target)})

    for quantity in config.quantities:
        for rc in config.recon:
            start = time.perf_counter()
            image = reconstruct(sinograms[quantity], rc)
            metrics = compare(image, targets[rc.grid_size])
            seconds = time.perf_counter() - start
            reports.append(metrics)

            entry = {
                "quantity": quantity.value,
                "filter": rc.filter.value,
                "interp": rc.interp.value,
                "normalize": rc.normalize,
                "grid_size": rc.grid_size,
                "rmse": metrics.rmse,
                "pearson": metrics.pearson,
                "psnr": _json_safe(metrics.psnr),
                "seconds": seconds,
            }
            if "recon_images" in emit:
                stem = f"{QUANTITY_SHORT[quantity]}_{recon_stem(rc, config.recon)}"
                entry.update(_write_images(out_dir, stem, image))
            doc["results"].append(entry)

    if "metrics_json" in emit:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        write_atomic(out_dir / "metrics.json", text.encode("ascii"))
    return reports
