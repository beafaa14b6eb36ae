"""Benchmark workloads: the shipped fixtures and two seeded, generated configs.

Why these three:

* ``fixtures`` -- every ``fixtures/*.json`` in sorted order with all artifacts.
  Small sizes (80 slices, 18-36 angles, grid 80) where no stage dominates, so
  fixed per-call costs and slow writes show that the large workloads hide.
  The configs are shipped files, so the seed does not change them.
* ``forward_heavy`` -- 320 slices x 180 angles, 4 inclusions, both
  quantities, one small ramlak/nearest reconstruction, no images.  The
  projector dominates; it is the no-change workload for reconstruction work.
* ``recon_heavy`` -- 80 slices x 180 angles, 1 inclusion, average
  conductivity only, {ramlak, hann} x {nearest, linear, spline} at grid 320.
  Back projection dominates; it is the no-change workload for projector work.

``BENCHMARK.json`` lists only the two generated workloads.  Pass times on a
small shared machine drift by tens of percent over minutes, so a run needs a
window of about a minute to give a steady median, and three workloads leave
room for runs of only half that.  ``fixtures`` stays available by name.

Inclusion radii are fixed per workload and only centres and resistivities
come from the seed: the projector's cost depends on how many strips cross an
inclusion, which is proportional to its radius, so every seed does the same
amount of work.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

NAMES = ("fixtures", "forward_heavy", "recon_heavy")
# Workloads dominated by interpreted Python float math, whose pass times are
# scaled by the reference kernel in bench/calibrate.py.
SCALED = ("forward_heavy",)
DEFAULT_SEED = 1

SUBJECT_RADIUS_MM = 40.0
SUBJECT_RESISTIVITY = 0.0005
# Gap kept between inclusions and to the subject rim, in mm.
MARGIN_MM = 1.0


def _place_inclusions(rng: random.Random, radii: tuple[float, ...]) -> list[dict]:
    """Rejection-sample disjoint inclusion centres inside the subject disk."""
    placed: list[dict] = []
    for radius in radii:
        reach = SUBJECT_RADIUS_MM - radius - MARGIN_MM
        for _ in range(10_000):
            x = rng.uniform(-reach, reach)
            y = rng.uniform(-reach, reach)
            if math.hypot(x, y) > reach:
                continue
            if all(
                math.hypot(x - p["center_x_mm"], y - p["center_y_mm"])
                >= radius + p["radius_mm"] + MARGIN_MM
                for p in placed
            ):
                break
        else:
            raise RuntimeError(f"cannot place an inclusion of radius {radius} mm")
        # Conductive or resistive against the subject, never equal to it.
        contrast = rng.choice((rng.uniform(0.25, 0.7), rng.uniform(1.5, 4.0)))
        placed.append(
            {
                "center_x_mm": round(x, 6),
                "center_y_mm": round(y, 6),
                "radius_mm": radius,
                "resistivity_ohm_m": round(SUBJECT_RESISTIVITY * contrast, 12),
            }
        )
    return placed


def _generated(rng: random.Random, slice_width: float, radii, quantities, recon, emit, name):
    return {
        "phantom": {
            "subject_radius_mm": SUBJECT_RADIUS_MM,
            "subject_resistivity_ohm_m": SUBJECT_RESISTIVITY,
            "depth_mm": 2.0,
            "slice_width_mm": slice_width,
            "perturbations": _place_inclusions(rng, radii),
        },
        "angle_step_deg": 1,
        "quantities": quantities,
        "recon": recon,
        "output_dir": name,
        "emit": emit,
    }


def generate(name: str, seed: int) -> dict:
    """Config document of a generated workload."""
    rng = random.Random(f"{name}:{seed}")
    if name == "forward_heavy":
        return _generated(
            rng,
            slice_width=0.25,
            radii=(9.0, 7.0, 6.0, 5.0),
            quantities=["conductance", "avg_conductivity"],
            recon=[{"filters": ["ramlak"], "interps": ["nearest"], "grid_size": 64}],
            emit=["sinogram_csv", "metrics_json"],
            name=name,
        )
    if name == "recon_heavy":
        return _generated(
            rng,
            slice_width=1.0,
            radii=(10.0,),
            quantities=["avg_conductivity"],
            recon=[
                {
                    "filters": ["ramlak", "hann"],
                    "interps": ["nearest", "linear", "spline"],
                    "grid_size": 320,
                }
            ],
            emit=["sinogram_csv", "target_image", "recon_images", "metrics_json"],
            name=name,
        )
    raise ValueError(f"unknown generated workload {name!r}")


def config_paths(name: str, seed: int, root: Path, out: Path) -> list[Path]:
    """Config files the workload runs, in order.

    A generated config is written to ``out/<name>.json``; the program sees
    only that file.  It must pass the package's own validation, which
    includes ``phantom.validate``.
    """
    if name == "fixtures":
        paths = sorted((root / "fixtures").glob("*.json"))
        if not paths:
            raise FileNotFoundError(f"no fixtures/*.json under {root}")
        return paths
    from eit_fbp.config import parse_config_dict

    doc = generate(name, seed)
    parse_config_dict(json.loads(json.dumps(doc)))
    path = out / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return [path]
