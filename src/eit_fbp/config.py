"""Run configuration: parse and validate strict JSON with units in the key names.

Unknown and repeated keys are rejected everywhere so a typo cannot silently
fall back to a default.  Quantities, filters and interpolations are given by
their lowercase names; the recon section is a list of filter x interpolation
matrices that expand to individual reconstruction configs, and one equal to
an earlier one is rejected: the two would write the same artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .fbp import FilterKind, InterpKind, ReconConfig
from .phantom import Circle, Phantom, PhantomError, validate
from .projector import InvalidAngleStep, Quantity, angle_count, slice_count

EMIT_KINDS = ("sinogram_csv", "target_image", "recon_images", "metrics_json")

# Caps on the work one config may ask for, far above every config in
# fixtures/ and the benchmark (at most 320 slices x 180 angles = 57,600
# sinogram values, and 320^2 pixels x 180 angles = 1.8e7 samples per back
# projection).  A sinogram at the cap takes 80 MB per quantity.  One back
# projection holds about 49 bytes per pixel at its peak (tracemalloc, grids
# 400 and 800), so an image at the pixel cap takes about 2 GB; the pixel cap
# is what bounds a config with few angles.
MAX_SINOGRAM_VALUES = 10**7  # n_slices x n_angles
MAX_BACKPROJECTION_SAMPLES = 10**9  # grid_size^2 x n_angles, per recon entry
MAX_RECON_PIXELS = 4 * 10**7  # grid_size^2, per recon entry


# JSON key -> field of the object it sets, in the order the keys are checked
PHANTOM_KEYS = {
    "subject_radius_mm": "subject_radius",
    "subject_resistivity_ohm_m": "subject_resistivity",
    "depth_mm": "depth",
    "slice_width_mm": "slice_width",
}
CIRCLE_KEYS = {
    "center_x_mm": "center_x",
    "center_y_mm": "center_y",
    "radius_mm": "radius",
    "resistivity_ohm_m": "resistivity",
}


class ParseError(ValueError):
    """Malformed config file: bad JSON, wrong type, or unknown key."""


class ValidationError(ValueError):
    """Well-formed config that violates a domain rule (phantom, angles, ...)."""


@dataclass(frozen=True)
class RunConfig:
    """A validated run; no recon config may appear twice, since two equal ones
    would write the same artifacts, and none may back-project more than
    MAX_BACKPROJECTION_SAMPLES samples or MAX_RECON_PIXELS pixels."""

    phantom: Phantom
    angle_step: float
    quantities: tuple[Quantity, ...]
    recon: tuple[ReconConfig, ...]
    output_dir: str
    emit: tuple[str, ...]

    def __post_init__(self):
        n_angles = angle_count(self.angle_step)
        seen = set()
        for rc in self.recon:
            if rc.grid_size**2 * n_angles > MAX_BACKPROJECTION_SAMPLES:
                raise ValidationError(
                    f"recon grid_size {rc.grid_size} and angle_step_deg {self.angle_step:g} ask "
                    f"for {rc.grid_size}^2 pixels x {n_angles} angles, more than "
                    f"{MAX_BACKPROJECTION_SAMPLES:.0e} back-projection samples"
                )
            if rc.grid_size**2 > MAX_RECON_PIXELS:
                raise ValidationError(
                    f"recon grid_size {rc.grid_size} asks for {rc.grid_size}^2 pixels, more than "
                    f"{MAX_RECON_PIXELS:.0e} pixels in one image"
                )
            if rc in seen:
                raise ValidationError(
                    f"recon repeats filter '{rc.filter.value}' x interp '{rc.interp.value}' "
                    f"at grid_size {rc.grid_size} (normalize {str(rc.normalize).lower()}); "
                    "both would write the same artifacts"
                )
            seen.add(rc)


def parse_config(path: str | Path) -> RunConfig:
    """Read and fully validate a JSON config file, which is UTF-8 whatever the locale."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read config file {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not valid UTF-8: {e}") from e
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    # a repeated key, an integer literal longer than int() accepts, or too deep nesting
    except (ValueError, RecursionError) as e:
        raise ParseError(f"{path}: {e}") from e
    return parse_config_dict(data)


def parse_config_dict(data: object) -> RunConfig:
    """Build a validated RunConfig from an already-decoded JSON document."""
    top = _mapping(data, "config")
    phantom = _parse_phantom(_take(top, "phantom", required=True))
    angle_step = _number(_take(top, "angle_step_deg", required=True), "angle_step_deg")
    quantities = _parse_quantities(_take(top, "quantities", required=True))
    recon = _take(top, "recon", required=True)
    output_dir = _take(top, "output_dir", default="out")
    if not isinstance(output_dir, str):
        raise ParseError(f"output_dir must be a string, got {type(output_dir).__name__}")
    emit = _parse_emit(_take(top, "emit", default=list(EMIT_KINDS)))
    _reject_unknown(top, "config")

    # the phantom and the sweep are checked before anything is computed from them
    try:
        validate(phantom)
    except PhantomError as e:
        raise ValidationError(f"invalid phantom: {e}") from e
    try:
        n_angles = angle_count(angle_step)
    except InvalidAngleStep as e:
        raise ValidationError(str(e)) from e
    # 2R / w as a float, so an absurd slice count is rejected, never built
    slices = 2.0 * phantom.subject_radius / phantom.slice_width
    if slices * n_angles > MAX_SINOGRAM_VALUES:
        raise ValidationError(
            f"subject_radius_mm {phantom.subject_radius:g}, slice_width_mm "
            f"{phantom.slice_width:g} and angle_step_deg {angle_step:g} ask for {slices:.3g} "
            f"slices x {n_angles:.3g} angles, more than {MAX_SINOGRAM_VALUES:.0e} sinogram values"
        )

    return RunConfig(
        phantom=phantom,
        angle_step=float(angle_step),
        quantities=quantities,
        recon=_parse_recon(recon, slice_count(phantom.subject_radius, phantom.slice_width)),
        output_dir=output_dir,
        emit=emit,
    )


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON-ready echo of a RunConfig; re-parsing it round-trips."""
    return {
        "phantom": {
            **{key: getattr(cfg.phantom, field) for key, field in PHANTOM_KEYS.items()},
            "perturbations": [
                {key: getattr(c, field) for key, field in CIRCLE_KEYS.items()}
                for c in cfg.phantom.perturbations
            ],
        },
        "angle_step_deg": cfg.angle_step,
        "quantities": [q.value for q in cfg.quantities],
        "recon": [
            {
                "filters": [rc.filter.value],
                "interps": [rc.interp.value],
                "grid_size": rc.grid_size,
                "normalize": rc.normalize,
            }
            for rc in cfg.recon
        ],
        "output_dir": cfg.output_dir,
        "emit": list(cfg.emit),
    }


_MISSING = object()


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object hook: a repeated key is an error, not a silent last-wins."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"repeated key '{key}'")
        out[key] = value
    return out


def _take(mapping: dict, key: str, required: bool = False, default: object = None):
    value = mapping.pop(key, _MISSING)
    if value is _MISSING:
        if required:
            raise ParseError(f"missing required key '{key}'")
        return default
    return value


def _mapping(value: object, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be a JSON object, got {type(value).__name__}")
    return dict(value)


def _reject_unknown(mapping: dict, where: str) -> None:
    if mapping:
        raise ParseError(f"unknown key '{sorted(mapping)[0]}' in {where}")


def _number(value: object, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{key} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    # json accepts NaN and Infinity, which no dimension may take
    if not math.isfinite(number):
        raise ParseError(f"{key} must be a finite number, got {number}")
    return number


def _numbers(mapping: dict, keys: dict[str, str]) -> dict[str, float]:
    """The required number under each JSON key of ``keys``, by field name."""
    return {field: _number(_take(mapping, key, required=True), key) for key, field in keys.items()}


def _parse_phantom(data: object) -> Phantom:
    m = _mapping(data, "phantom")
    dimensions = _numbers(m, PHANTOM_KEYS)
    raw = _take(m, "perturbations", default=[])
    _reject_unknown(m, "phantom")
    if not isinstance(raw, list):
        raise ParseError("phantom.perturbations must be a list")
    circles = []
    for i, item in enumerate(raw):
        cm = _mapping(item, f"perturbations[{i}]")
        circles.append(Circle(**_numbers(cm, CIRCLE_KEYS)))
        _reject_unknown(cm, f"perturbations[{i}]")
    return Phantom(**dimensions, perturbations=tuple(circles))


def _parse_quantities(data: object) -> tuple[Quantity, ...]:
    if not isinstance(data, list):
        raise ParseError("quantities must be a list")
    out: list[Quantity] = []
    for name in data:
        try:
            q = Quantity(name)
        except ValueError:
            raise ParseError(
                f"unknown quantity '{name}'; expected one of "
                f"{[q.value for q in Quantity]}"
            ) from None
        if q not in out:
            out.append(q)
    if not out:
        raise ValidationError("at least one quantity is required")
    return tuple(out)


def _parse_recon(data: object, default_grid: int) -> tuple[ReconConfig, ...]:
    if not isinstance(data, list):
        raise ParseError("recon must be a list")
    out: list[ReconConfig] = []
    for i, item in enumerate(data):
        m = _mapping(item, f"recon[{i}]")
        filters = _enum_list(_take(m, "filters", required=True), FilterKind, f"recon[{i}].filters")
        interps = _enum_list(_take(m, "interps", required=True), InterpKind, f"recon[{i}].interps")
        grid_raw = _take(m, "grid_size", default=default_grid)
        normalize = _take(m, "normalize", default=True)
        _reject_unknown(m, f"recon[{i}]")
        if isinstance(grid_raw, bool) or not isinstance(grid_raw, int):
            raise ParseError(f"recon[{i}].grid_size must be an integer")
        if not isinstance(normalize, bool):
            raise ParseError(f"recon[{i}].normalize must be a boolean")
        for flt in filters:
            for interp in interps:
                try:
                    out.append(
                        ReconConfig(
                            filter=flt, interp=interp, grid_size=grid_raw, normalize=normalize
                        )
                    )
                except ValueError as e:
                    raise ValidationError(str(e)) from e
    if not out:
        raise ValidationError("at least one reconstruction config is required")
    return tuple(out)


def _enum_list(data: object, enum_cls, where: str) -> list:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{where} must be a non-empty list")
    out = []
    for name in data:
        try:
            out.append(enum_cls(name))
        except ValueError:
            raise ParseError(
                f"unknown value '{name}' in {where}; expected one of "
                f"{[e.value for e in enum_cls]}"
            ) from None
    return out


def _parse_emit(data: object) -> tuple[str, ...]:
    if not isinstance(data, list):
        raise ParseError("emit must be a list")
    for name in data:
        if name not in EMIT_KINDS:
            raise ParseError(f"unknown emit kind '{name}'; expected one of {list(EMIT_KINDS)}")
    # canonical order, deduplicated
    return tuple(kind for kind in EMIT_KINDS if kind in data)
