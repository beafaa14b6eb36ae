"""Run configuration: parse and validate strict JSON with units in the key names.

Unknown and repeated keys are rejected everywhere so a typo cannot silently
fall back to a default.  Quantities, filters, interpolations and emit kinds
are lists of lowercase names, all read by :func:`_names`, which rejects a
non-list or an unknown name and names the key.  A repeated quantity or emit
kind is kept once; the recon section is a list of filter x interpolation
matrices that expand to individual reconstruction configs, and one equal to
an earlier one is rejected: the two would write the same artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .fbp import FilterKind, InterpKind, ReconConfig
from .phantom import Circle, Phantom, PhantomError
from .projector import InvalidAngleStep, Quantity, angle_count, slice_count

EMIT_KINDS = ("sinogram_csv", "target_image", "recon_images", "metrics_json")

# Caps on a run's work as _work counts it, far above every fixture and benchmark
# config (recon_heavy asks for 1.1e8 samples and about 8 MB)
MAX_SAMPLES = 10**9
MAX_PEAK_BYTES = 2 * 10**9


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
    """A valid run, however it is made: at least one quantity and one recon config, an
    angle step that divides 180, no recon config twice (both would write the same
    artifacts), and :func:`_work` puts its work within MAX_SAMPLES and MAX_PEAK_BYTES."""

    phantom: Phantom
    angle_step: float
    quantities: tuple[Quantity, ...]
    recon: tuple[ReconConfig, ...]
    output_dir: str
    emit: tuple[str, ...]

    def __post_init__(self):
        if not self.quantities:
            raise ValidationError("at least one quantity is required")
        if not self.recon:
            raise ValidationError("at least one reconstruction config is required")
        try:
            angle_count(self.angle_step)
        except InvalidAngleStep as e:
            raise ValidationError(str(e)) from e
        seen = set()
        for rc in self.recon:
            if rc in seen:
                raise ValidationError(
                    f"recon repeats filter '{rc.filter.value}' x interp '{rc.interp.value}' "
                    f"at grid_size {rc.grid_size} (normalize {str(rc.normalize).lower()}); "
                    "both would write the same artifacts"
                )
            seen.add(rc)
        samples, peak = _work(self)
        grids = ", ".join(map(str, sorted({rc.grid_size for rc in self.recon}, reverse=True)))
        sweep = f"angle_step_deg {self.angle_step:g} and recon grid_size {grids}"
        p = self.phantom
        subject = f"subject_radius_mm {p.subject_radius:g}, slice_width_mm {p.slice_width:g}, "
        for keys, figure, value, cap in (
            (subject + sweep, "bytes at the peak", peak, MAX_PEAK_BYTES),
            (sweep, "back-projection samples", samples, MAX_SAMPLES),
        ):
            if value > cap:
                raise ValidationError(f"{keys} ask for {value:,} {figure}, more than {cap:,}")


def _work(config: RunConfig) -> tuple[int, int]:
    """A run's back-projection samples, angles x grid^2 over every result, and an upper
    estimate of its peak traced bytes (tracemalloc), fitted on warm runs: 60 a sinogram value
    over (2R / w + 8) x (angles + 1), the padding for each angle's objects and a column's FFT;
    56 a pixel of the largest grid, where a back projection holds about 48; 9 a pixel of
    each distinct grid, for its target and disk mask; 8 KiB a result; and 0.5 MiB.  Both are
    exact integers, so no grid overflows them, and no absurd slice count is ever built."""
    n_angles = angle_count(config.angle_step)
    slices = 2.0 * config.phantom.subject_radius / config.phantom.slice_width
    grids = {rc.grid_size for rc in config.recon}
    n = len(config.quantities)
    samples = n_angles * n * sum(rc.grid_size**2 for rc in config.recon)
    peak = 60 * math.ceil(slices + 8) * (n_angles + 1) + 56 * max(grids, default=0) ** 2
    peak += 9 * sum(g * g for g in grids) + 8192 * n * len(config.recon) + 2**19
    return samples, peak


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
    """Build a RunConfig, which checks its own rules, from a decoded JSON document."""
    top = _mapping(data, "config")
    fields = _parse_phantom(_take(top, "phantom", required=True))
    angle_step = _number(_take(top, "angle_step_deg", required=True), "angle_step_deg")
    quantities = _parse_quantities(_take(top, "quantities", required=True))
    recon = _take(top, "recon", required=True)
    output_dir = _take(top, "output_dir", default="out")
    if not isinstance(output_dir, str):
        raise ParseError(f"output_dir must be a string, got {type(output_dir).__name__}")
    emit = _parse_emit(_take(top, "emit", default=list(EMIT_KINDS)))
    _reject_unknown(top, "config")
    try:
        phantom = Phantom(**fields)
    except PhantomError as e:
        raise ValidationError(f"invalid phantom: {e}") from e
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


def _parse_phantom(data: object) -> dict:
    """The Phantom fields of ``data``, read but not yet checked."""
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
    return {**dimensions, "perturbations": tuple(circles)}


def _parse_quantities(data: object) -> tuple[Quantity, ...]:
    names = _names(data, [q.value for q in Quantity], "quantities")
    # first-occurrence order, deduplicated
    return tuple(Quantity(name) for name in dict.fromkeys(names))


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
    return tuple(out)


def _names(data: object, allowed: list[str] | tuple[str, ...], where: str) -> list[str]:
    """``data`` if it is a list of names from ``allowed``, else a ParseError naming ``where``."""
    if not isinstance(data, list):
        raise ParseError(f"{where} must be a list")
    for name in data:
        if name not in allowed:
            raise ParseError(f"unknown value '{name}' in {where}; expected one of {list(allowed)}")
    return data


def _enum_list(data: object, enum_cls, where: str) -> list:
    names = _names(data, [e.value for e in enum_cls], where)
    if not names:
        raise ParseError(f"{where} must be a non-empty list")
    return [enum_cls(name) for name in names]


def _parse_emit(data: object) -> tuple[str, ...]:
    names = _names(data, EMIT_KINDS, "emit")
    # canonical order, deduplicated
    return tuple(kind for kind in EMIT_KINDS if kind in names)
