import fcntl
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eit_fbp.cli
import eit_fbp.pipeline
from eit_fbp import (
    FilterKind,
    InterpKind,
    NonPositiveDimension,
    ParseError,
    Quantity,
    ReconConfig,
    RunConfig,
    ValidationError,
    compute_sinogram,
    config_to_dict,
    parse_config,
    run_pipeline,
    slice_count,
)
from eit_fbp.cli import main
from eit_fbp.config import (
    CIRCLE_KEYS,
    EMIT_KINDS,
    MAX_PEAK_BYTES,
    MAX_SAMPLES,
    PHANTOM_KEYS,
    _work,
    parse_config_dict,
)
from eit_fbp.pipeline import _ARTIFACT, recon_stem
from eit_fbp.projector import angle_count

ALL_FIXTURES = sorted(
    p.name for p in (Path(__file__).resolve().parent.parent / "fixtures").glob("*.json")
)


def base_config(**overrides):
    doc = {
        "phantom": {
            "subject_radius_mm": 40.0,
            "subject_resistivity_ohm_m": 0.0005,
            "depth_mm": 2.0,
            "slice_width_mm": 1.0,
            "perturbations": [
                {
                    "center_x_mm": 10.0,
                    "center_y_mm": 10.0,
                    "radius_mm": 10.0,
                    "resistivity_ohm_m": 0.0002,
                }
            ],
        },
        "angle_step_deg": 10,
        "quantities": ["avg_conductivity"],
        "recon": [{"filters": ["none"], "interps": ["linear"]}],
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_paper_fixture(self, fixtures_dir):
        cfg = parse_config(fixtures_dir / "one_perturbation_q10.json")
        assert slice_count(cfg.phantom.subject_radius, cfg.phantom.slice_width) == 80
        assert cfg.angle_step == 10.0
        assert cfg.quantities == (Quantity.AVG_CONDUCTIVITY, Quantity.CONDUCTANCE)
        assert [rc.filter for rc in cfg.recon] == [FilterKind.NONE, FilterKind.RAM_LAK]
        assert all(rc.grid_size == 80 for rc in cfg.recon)

    def test_matrix_expansion(self):
        cfg = parse_config_dict(
            base_config(
                recon=[
                    {"filters": ["ramlak", "cosine"], "interps": ["nearest", "spline"]}
                ]
            )
        )
        combos = [(rc.filter, rc.interp) for rc in cfg.recon]
        assert combos == [
            (FilterKind.RAM_LAK, InterpKind.NEAREST),
            (FilterKind.RAM_LAK, InterpKind.SPLINE),
            (FilterKind.COSINE, InterpKind.NEAREST),
            (FilterKind.COSINE, InterpKind.SPLINE),
        ]

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(bogus=1), "bogus"),
            (lambda d: d["phantom"].update(radius=1), "radius"),
            (lambda d: d["phantom"]["perturbations"][0].update(color="red"), "color"),
            (lambda d: d["recon"][0].update(window="hamming"), "window"),
        ],
    )
    def test_unknown_keys_rejected(self, mutate, fragment):
        doc = base_config()
        mutate(doc)
        with pytest.raises(ParseError, match=fragment):
            parse_config_dict(doc)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "phantom": [,]\n}\n')
        with pytest.raises(ParseError, match="line 2"):
            parse_config(path)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            (json.dumps(base_config(angle_step_deg=12345)).replace("12345", "9" * 5000), "digits"),
            ('{"phantom": ' + "[" * 100_000 + "]" * 100_000 + "}", "recursion"),
        ],
        ids=["long_integer", "deep_nesting"],
    )
    def test_json_the_decoder_cannot_hold(self, tmp_path, text, fragment):
        path = tmp_path / "odd.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=fragment):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(tmp_path / "nope.json")

    def test_angle_step_not_dividing(self):
        with pytest.raises(ValidationError, match="does not divide"):
            parse_config_dict(base_config(angle_step_deg=7))

    def test_overlapping_perturbations(self):
        doc = base_config()
        doc["phantom"]["perturbations"].append(
            {"center_x_mm": 5.0, "center_y_mm": 10.0, "radius_mm": 10.0, "resistivity_ohm_m": 0.0002}
        )
        with pytest.raises(ValidationError, match="overlap"):
            parse_config_dict(doc)

    def test_perturbation_outside_subject(self):
        doc = base_config()
        doc["phantom"]["perturbations"][0]["center_x_mm"] = 35.0
        with pytest.raises(ValidationError, match="beyond the subject"):
            parse_config_dict(doc)

    def test_empty_quantities(self):
        with pytest.raises(ValidationError):
            parse_config_dict(base_config(quantities=[]))

    def test_unknown_quantity(self):
        with pytest.raises(ParseError, match="impedance"):
            parse_config_dict(base_config(quantities=["impedance"]))

    def test_empty_recon(self):
        with pytest.raises(ValidationError):
            parse_config_dict(base_config(recon=[]))

    def test_grid_size_too_small(self):
        with pytest.raises(ValidationError):
            parse_config_dict(
                base_config(recon=[{"filters": ["none"], "interps": ["linear"], "grid_size": 1}])
            )

    def test_unknown_emit_kind(self):
        with pytest.raises(ParseError, match="emit"):
            parse_config_dict(base_config(emit=["csv"]))

    @pytest.mark.parametrize(
        "key, put, empty_error",
        [
            ("quantities", lambda d, v: d.update(quantities=v), ValidationError),
            ("recon[0].filters", lambda d, v: d["recon"][0].update(filters=v), ParseError),
            ("recon[0].interps", lambda d, v: d["recon"][0].update(interps=v), ParseError),
            ("emit", lambda d, v: d.update(emit=v), None),
        ],
        ids=["quantities", "filters", "interps", "emit"],
    )
    def test_named_list(self, key, put, empty_error):
        # a bare string is not a list, and an unknown name is rejected
        for value in ("bogus", ["bogus"]):
            doc = base_config()
            put(doc, value)
            with pytest.raises(ParseError, match=re.escape(key)):
                parse_config_dict(doc)
        doc = base_config()
        put(doc, [])
        if empty_error is None:
            assert parse_config_dict(doc).emit == ()
        else:
            with pytest.raises(empty_error):
                parse_config_dict(doc)

    def test_emit_canonical_order(self):
        cfg = parse_config_dict(base_config(emit=["metrics_json", "sinogram_csv", "metrics_json"]))
        assert cfg.emit == ("sinogram_csv", "metrics_json")

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_every_fixture_parses(self, fixtures_dir, name):
        parse_config(fixtures_dir / name)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_echo_round_trips(self, fixtures_dir, name):
        cfg = parse_config(fixtures_dir / name)
        assert parse_config_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (
                lambda d: d.update(angle_step_deg=1e-4),
                "angle_step_deg 0.0001 and recon grid_size 80 ask for [\\d,]+ bytes at the peak",
            ),
            (
                lambda d: d["phantom"].update(slice_width_mm=1e-4),
                "subject_radius_mm 40, slice_width_mm 0.0001, angle_step_deg 10 and recon "
                "grid_size 800000 ask for [\\d,]+ bytes at the peak",
            ),
            # every number within the phantom rules, but 2R / w is 2e20 slices
            (lambda d: d["phantom"].update(subject_radius_mm=1e20), "subject_radius_mm 1e\\+20, "),
            (
                lambda d: d["recon"][0].update(grid_size=100000),
                "recon grid_size 100000 ask for [\\d,]+ bytes at the peak, more than 2,000,000,000",
            ),
            # one angle keeps grid^2 x angles under the sample cap; the byte cap stops it
            (
                lambda d: d.update(
                    angle_step_deg=180,
                    recon=[{"filters": ["none"], "interps": ["linear"], "grid_size": 31622}],
                ),
                "angle_step_deg 180 and recon grid_size 31622 ask for [\\d,]+ bytes at the peak",
            ),
            # each grid alone is under the byte cap; the run holds a target at both
            (
                lambda d: d.update(
                    angle_step_deg=180,
                    recon=[
                        {"filters": [f], "interps": ["linear"], "grid_size": g}
                        for f, g in (("none", 4000), ("none", 5500), ("ramlak", 4000))
                    ],
                ),
                "recon grid_size 5500, 4000 ask for 2,110,809,424 bytes at the peak",
            ),
        ],
        ids=[
            "angle_step",
            "slice_width",
            "subject_radius",
            "grid_size",
            "one_angle_grid_size",
            "distinct_grid_sizes",
        ],
    )
    def test_work_over_cap_rejected(self, mutate, fragment):
        doc = base_config()
        mutate(doc)
        with pytest.raises(ValidationError, match=fragment):
            parse_config_dict(doc)

    def test_work_caps_leave_room_above_the_benchmark(self):
        doc = base_config(
            angle_step_deg=1,
            recon=[{"filters": ["hann"], "interps": ["spline"], "grid_size": 640}],
        )
        doc["phantom"]["slice_width_mm"] = 0.125
        cfg = parse_config_dict(doc)
        assert cfg.recon[0].grid_size == 640
        # a grid override is checked against the same cap
        with pytest.raises(ValidationError, match="grid_size 100000"):
            replace(cfg, recon=(replace(cfg.recon[0], grid_size=100000),))

    @pytest.mark.parametrize(
        "phantom, run, error, fragment",
        [
            # 8e6 slices x 18 angles, about 1.2 GB a sinogram
            (
                {"slice_width": 1e-5},
                {},
                ValidationError,
                "slice_width_mm 1e-05, .* bytes at the peak",
            ),
            ({"slice_width": -1.0}, {}, NonPositiveDimension, "slice_width must be > 0"),
            ({"slice_width": math.nan}, {}, NonPositiveDimension, "slice_width must be finite"),
            ({"slice_width": 0.0}, {}, NonPositiveDimension, "slice_width must be > 0"),
            ({}, {"quantities": ()}, ValidationError, "at least one quantity"),
            ({}, {"recon": ()}, ValidationError, "at least one reconstruction"),
            ({}, {"angle_step": 0.7}, ValidationError, "angle step 0.7 does not divide 180"),
        ],
        ids=[
            "slice_width_over_cap",
            "slice_width_negative",
            "slice_width_nan",
            "slice_width_zero",
            "no_quantities",
            "no_recon",
            "angle_step",
        ],
    )
    def test_replaced_config_rejected(self, fixtures_dir, phantom, run, error, fragment):
        # a Phantom and a RunConfig check their own rules, so a config built from
        # Python is checked as a parsed one is
        cfg = parse_config(fixtures_dir / "one_perturbation_q10.json")
        with pytest.raises(error, match=fragment):
            replace(cfg, phantom=replace(cfg.phantom, **phantom), **run)


# Config documents for the property below: mostly well-formed, each number
# either ordinary or absurd (json's NaN and Infinity, integers beyond the float
# range, sizes whose products overflow, steps and widths that ask for
# astronomically many values), and now and then a value of the wrong type or
# an unknown name.
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2))
EXTREMES = st.sampled_from(
    [0, -1.0, 5e-324, 1e-300, 1e-9, 1e-4, 1e308, 10**400, float("nan"), float("inf")]
)


def _mostly(strategy):
    """``strategy``, or a value of the wrong type once in 64 draws."""
    return st.integers(0, 63).flatmap(lambda i: JUNK if i == 63 else strategy)


def _number(lo, hi):
    return _mostly(st.one_of(st.floats(lo, hi), st.floats(lo, hi), EXTREMES))


def _names(values):
    return _mostly(st.lists(st.sampled_from([*values] * 10 + ["bogus"]), min_size=1, max_size=3))


_BOUNDS = {"subject_radius_mm": (10, 100), "depth_mm": (0.1, 10), "slice_width_mm": (0.1, 5)}
_CIRCLES = st.fixed_dictionaries(
    {key: _number(*((-5, 5) if "center" in key else (1e-4, 5))) for key in CIRCLE_KEYS}
)
_PHANTOMS = st.fixed_dictionaries(
    {key: _number(*_BOUNDS.get(key, (1e-4, 1))) for key in PHANTOM_KEYS},
    optional={"perturbations": _mostly(st.lists(_CIRCLES, max_size=1))},
)
_RECON = st.fixed_dictionaries(
    {"filters": _names([k.value for k in FilterKind]), "interps": _names([k.value for k in InterpKind])},
    optional={
        "grid_size": _mostly(st.one_of(st.integers(-2, 400), st.sampled_from([10**5, 10**400]))),
        "normalize": _mostly(st.booleans()),
    },
)
CONFIG_DICTS = _mostly(
    st.fixed_dictionaries(
        {
            "phantom": _mostly(_PHANTOMS),
            "angle_step_deg": _mostly(st.one_of(st.sampled_from([0.5, 1, 10, 90, 180]), EXTREMES)),
            "quantities": _names([q.value for q in Quantity]),
            "recon": _mostly(st.lists(_mostly(_RECON), min_size=1, max_size=2)),
        },
        optional={"output_dir": _mostly(st.text(max_size=4)), "emit": _names(EMIT_KINDS)},
    )
)


@settings(max_examples=200, deadline=None)
@given(doc=CONFIG_DICTS)
# the generator almost never pairs one angle with a grid under the sample cap but
# over the byte cap, so that shape is given; and a grid beyond the float range,
# whose work must still be counted exactly
@example(
    doc=base_config(
        angle_step_deg=180, recon=[{"filters": ["none"], "interps": ["linear"], "grid_size": 31622}]
    )
)
@example(
    doc=base_config(recon=[{"filters": ["none"], "interps": ["linear"], "grid_size": 10**400}])
)
def test_every_config_dict_is_parsed_or_rejected(doc):
    # parsing only: a config that passes is never run here
    try:
        cfg = parse_config_dict(doc)
    except (ParseError, ValidationError):
        return
    assert isinstance(cfg, RunConfig)
    # both caps hold over the whole run: the samples of every result, and the
    # estimated peak, which bounds a one-angle sweep at any grid
    samples = sum(rc.grid_size**2 for rc in cfg.recon) * len(cfg.quantities)
    assert samples * angle_count(cfg.angle_step) <= MAX_SAMPLES
    assert _work(cfg)[1] <= MAX_PEAK_BYTES


def _shaped(fixtures_dir, width, step, quantities, recon, emit=EMIT_KINDS, circles=None):
    """one_perturbation_q10 with another slice width, sweep, recon list and emit list."""
    doc = json.loads((fixtures_dir / "one_perturbation_q10.json").read_text())
    doc["phantom"]["slice_width_mm"] = width
    if circles is not None:
        doc["phantom"]["perturbations"] = [
            dict(zip(CIRCLE_KEYS, (x, y, r, 0.0002))) for x, y, r in circles
        ]
    doc.update(angle_step_deg=step, quantities=quantities, recon=recon, emit=list(emit))
    return doc


WORK_SHAPES = {
    # 320 slices x 180 angles and four inclusions, both quantities, one small recon
    "forward_heavy": lambda d: _shaped(
        d,
        0.25,
        1,
        ["conductance", "avg_conductivity"],
        [{"filters": ["ramlak"], "interps": ["nearest"], "grid_size": 64}],
        emit=["sinogram_csv", "metrics_json"],
        circles=[(15, 15, 9), (-15, 15, 7), (-15, -15, 6), (15, -15, 5)],
    ),
    # 80 slices x 180 angles, six filter x interp recons at grid 320
    "recon_heavy": lambda d: _shaped(
        d,
        1.0,
        1,
        ["avg_conductivity"],
        [
            {
                "filters": ["ramlak", "hann"],
                "interps": ["nearest", "linear", "spline"],
                "grid_size": 320,
            }
        ],
    ),
    # the large end-to-end config: 0.25 mm slices, 1 degree steps, grid 320
    "large_e2e": lambda d: _shaped(
        d,
        0.25,
        1,
        ["avg_conductivity", "conductance"],
        [{"filters": [f], "interps": ["linear"], "grid_size": 320} for f in ("none", "ramlak")],
    ),
}


class TestWorkModel:
    """The peak that config._work estimates is at least the traced peak of a warm
    run_pipeline, and at most PEAK_FACTOR times it.  Measured: 1.28 for the
    recon_heavy shape to 2.22 for three_perturbations_q5, whose 0.53 MB peak is
    mostly the fixed part."""

    PEAK_FACTOR = 2.5

    def check(self, doc, tmp_path):
        cfg = parse_config_dict({**doc, "output_dir": str(tmp_path / "out")})
        run_pipeline(cfg)  # first-call allocations and caches are not the run's
        tracemalloc.start()
        try:
            run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = _work(cfg)[1]
        assert peak <= estimate <= self.PEAK_FACTOR * peak, (peak, estimate)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixture(self, fixtures_dir, tmp_path, name):
        self.check(json.loads((fixtures_dir / name).read_text()), tmp_path)

    @pytest.mark.parametrize("name", sorted(WORK_SHAPES))
    def test_large_shape(self, fixtures_dir, tmp_path, name):
        self.check(WORK_SHAPES[name](fixtures_dir), tmp_path)


GRIDS = [40, 64, 80]
_RECON_CONFIGS = st.builds(
    ReconConfig,
    st.sampled_from(FilterKind),
    st.sampled_from(InterpKind),
    st.sampled_from(GRIDS),
    st.booleans(),
)


def _accepted(recon: list[ReconConfig]) -> bool:
    entries = [
        {
            "filters": [rc.filter.value],
            "interps": [rc.interp.value],
            "grid_size": rc.grid_size,
            "normalize": rc.normalize,
        }
        for rc in recon
    ]
    try:
        parse_config_dict(base_config(recon=entries))
    except ValidationError:
        return False
    return True


def _names_unique(recon: list[ReconConfig]) -> bool:
    stems = [recon_stem(rc, tuple(recon)) for rc in recon]
    return len(set(stems)) == len(stems)


@settings(max_examples=300, deadline=None)
@given(recon=st.lists(_RECON_CONFIGS, min_size=1, max_size=8), grid=st.sampled_from(GRIDS))
def test_config_rejects_recon_lists_whose_names_collide(recon, grid):
    # config rejects repeats by identity; this ties that rule to the names the
    # pipeline writes, with and without a --grid style override of every grid
    assert _accepted(recon) == _names_unique(recon)
    overridden = [replace(rc, grid_size=grid) for rc in recon]
    assert _accepted(overridden) == _names_unique(overridden)


def _run_killed(config: Path, out: Path, target: str, k: int) -> None:
    """Run ``config`` into ``out`` in a child that SIGKILLs itself on its k-th call
    of ``target``, ``p.<name>`` for a name in the pipeline's globals or ``os.replace``."""
    script = (
        "import dataclasses, os, signal, sys\n"
        "import eit_fbp.pipeline as p\n"
        "from eit_fbp.config import parse_config\n"
        "owner, name = sys.argv[3].split('.')\n"
        "module, k, calls = {'os': os, 'p': p}[owner], int(sys.argv[4]), []\n"
        "real = getattr(module, name)\n"
        "def kill(*args, **kwargs):\n"
        "    calls.append(args)\n"
        "    if len(calls) == k:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return real(*args, **kwargs)\n"
        "setattr(module, name, kill)\n"
        "cfg = parse_config(sys.argv[1])\n"
        "p.run_pipeline(dataclasses.replace(cfg, output_dir=sys.argv[2]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(config), str(out), target, str(k)],
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (target, k)


class TestRunPipeline:
    def test_one_perturbation_artifacts(self, fixtures_dir, tmp_path):
        cfg = parse_config(fixtures_dir / "one_perturbation_q10.json")
        cfg = replace(cfg, output_dir=str(tmp_path / "out"))
        reports = run_pipeline(cfg)
        out = tmp_path / "out"
        assert len(reports) == 4  # 2 quantities x 2 recon configs
        names = {p.name for p in out.iterdir()}
        assert {
            "sinogram_avgcond.csv",
            "sinogram_conductance.csv",
            "target.pgm",
            "target.png",
            "avgcond_none_linear.pgm",
            "avgcond_ramlak_linear.pgm",
            "conductance_none_linear.png",
            "conductance_ramlak_linear.png",
            "metrics.json",
        } <= names
        assert "INCOMPLETE" not in names

    def test_metrics_json_echo_reparses(self, fixtures_dir, tmp_path):
        cfg = parse_config(fixtures_dir / "one_perturbation_q10.json")
        cfg = replace(cfg, output_dir=str(tmp_path / "out"))
        run_pipeline(cfg)
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert parse_config_dict(doc["config"]) == cfg
        assert len(doc["results"]) == 4
        for entry in doc["results"]:
            assert entry["rmse"] >= 0.0
            assert -1.0 <= entry["pearson"] <= 1.0

    def test_csv_shape_and_header(self, fixtures_dir, tmp_path):
        cfg = parse_config(fixtures_dir / "one_perturbation_q10.json")
        cfg = replace(cfg, output_dir=str(tmp_path / "out"))
        run_pipeline(cfg)
        lines = (tmp_path / "out" / "sinogram_conductance.csv").read_text().splitlines()
        assert lines[0].split(",") == [repr(10.0 * i) for i in range(18)]
        assert len(lines) == 1 + 80
        sino = compute_sinogram(cfg.phantom, 10, Quantity.CONDUCTANCE)
        row17 = np.array([float(v) for v in lines[18].split(",")])
        np.testing.assert_array_equal(row17, sino.data[17])

    def test_deterministic_outputs(self, fixtures_dir, tmp_path):
        cfg = parse_config(fixtures_dir / "one_perturbation_q10.json")
        outputs = []
        for sub in ("a", "b"):
            c = replace(cfg, output_dir=str(tmp_path / sub))
            run_pipeline(c)
            outputs.append(tmp_path / sub)
        for path_a in sorted(outputs[0].iterdir()):
            if path_a.name == "metrics.json":  # contains wall-clock timings
                continue
            path_b = outputs[1] / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    def test_failure_leaves_incomplete_marker(self, fixtures_dir, tmp_path, monkeypatch):
        cfg = parse_config(fixtures_dir / "one_perturbation_q10.json")
        cfg = replace(cfg, output_dir=str(tmp_path / "out"))

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(eit_fbp.pipeline, "reconstruct", boom)
        with pytest.raises(RuntimeError):
            run_pipeline(cfg)
        marker = tmp_path / "out" / "INCOMPLETE"
        assert marker.exists()
        assert "injected failure" in marker.read_text()

    @pytest.mark.parametrize("kill_in", ["compare", "replace"])
    def test_killed_run_leaves_incomplete_marker(
        self, fixtures_dir, tmp_path, monkeypatch, kill_in
    ):
        # SIGKILL runs no handler, so only a marker written up front can survive it
        config = fixtures_dir / "one_perturbation_q10.json"
        cfg = parse_config(config)
        full = tmp_path / "full"
        moved: list[str] = []  # every artifact, in the order it moved into place
        os_replace = os.replace

        def record(src, dst):
            moved.append(Path(dst).name)
            os_replace(src, dst)

        with monkeypatch.context() as m:
            m.setattr(os, "replace", record)
            run_pipeline(replace(cfg, output_dir=str(full)))
        # the targets, then each quantity's CSV and the images of its results, which
        # metrics.json lists in result_order
        doc = json.loads((full / "metrics.json").read_text())
        expected = [target[kind] for target in doc["targets"] for kind in ("pgm", "png")]
        for sino in doc["sinograms"]:
            expected.append(sino["csv"])
            results = [r for r in doc["results"] if r["quantity"] == sino["quantity"]]
            expected += [result[kind] for result in results for kind in ("pgm", "png")]
        assert moved == [*expected, "metrics.json"]

        if kill_in == "compare":
            # killed in the first result; the artifacts before its images were done
            kills = [("p.compare", 1, set(moved[: moved.index(doc["results"][0]["pgm"])]))]
        else:
            # killed while the k-th artifact moves into place: it is left as its temporary
            kills = [
                ("os.replace", k, {*moved[: k - 1], moved[k - 1] + ".tmp"})
                for k in range(1, len(moved) + 1)
            ]
        for target, k, expected_left in kills:
            out = tmp_path / f"killed_{k}"
            _run_killed(config, out, target, k)
            assert (out / "INCOMPLETE").exists(), k
            left = {p.name for p in out.iterdir()} - {"INCOMPLETE"}
            assert left == expected_left, k
            for name in left - {moved[k - 1] + ".tmp"}:
                assert (out / name).read_bytes() == (full / name).read_bytes(), name
            # a rerun that writes no sinogram still clears the killed run's temporary,
            # and every artifact the killed run finished
            run_pipeline(replace(cfg, output_dir=str(out), emit=("metrics_json",)))
            assert {p.name for p in out.iterdir()} == {"metrics.json"}

    def test_artifact_rule_matches_every_name_a_run_writes(self, tmp_path):
        # every filter x interp, raw or not, at two grids: each name a run can write
        doc = base_config(
            quantities=["avg_conductivity", "conductance"],
            recon=[
                {
                    "filters": [k.value for k in FilterKind],
                    "interps": [k.value for k in InterpKind],
                    "grid_size": g,
                    "normalize": normalize,
                }
                for g in (8, 12)
                for normalize in (True, False)
            ],
            output_dir=str(tmp_path / "out"),
        )
        run_pipeline(parse_config_dict(doc))
        names = os.listdir(tmp_path / "out")
        assert len(names) == 2 + 2 * 2 + 2 * 72 * 2 + 1  # CSVs, targets, images, metrics
        for name in names:
            assert _ARTIFACT.fullmatch(name) and _ARTIFACT.fullmatch(name + ".tmp"), name
        for other in ("INCOMPLETE", "notes.txt", "target.png.bak", "target_g08.png", "x.png.tmp"):
            assert not _ARTIFACT.fullmatch(other), other

    def test_multiple_grid_sizes_write_one_target_each(self, tmp_path):
        doc = base_config(
            recon=[
                {"filters": ["none"], "interps": ["linear"], "grid_size": 40},
                {"filters": ["none"], "interps": ["linear"], "grid_size": 64},
            ],
            output_dir=str(tmp_path / "out"),
        )
        run_pipeline(parse_config_dict(doc))
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert {"target_g40.pgm", "target_g64.pgm", "target_g40.png", "target_g64.png"} <= names
        assert "target.pgm" not in names
        # reconstructions take the same suffix, so the grid-40 image is not overwritten
        assert {"avgcond_none_linear_g40.pgm", "avgcond_none_linear_g64.png"} <= names
        assert "avgcond_none_linear.pgm" not in names
        results = json.loads((tmp_path / "out" / "metrics.json").read_text())["results"]
        assert [r["pgm"] for r in results] == [
            "avgcond_none_linear_g40.pgm",
            "avgcond_none_linear_g64.pgm",
        ]
        # entries that would write the same artifacts are rejected
        doc["recon"].append({"filters": ["none"], "interps": ["linear"], "grid_size": 64})
        with pytest.raises(ValidationError, match="grid_size 64"):
            parse_config_dict(doc)

    def test_non_finite_metric_is_not_written(self, tmp_path, monkeypatch):
        # json writes a bare NaN by default, which is not JSON
        nan = eit_fbp.pipeline.MetricsReport(float("nan"), 0.0, float("nan"))
        monkeypatch.setattr(eit_fbp.pipeline, "compare", lambda image, target: nan)
        with pytest.raises(ValueError, match="JSON"):
            run_pipeline(parse_config_dict(base_config(output_dir=str(tmp_path / "out"))))
        assert not (tmp_path / "out" / "metrics.json").exists()
        assert (tmp_path / "out" / "INCOMPLETE").exists()

    def test_emit_subset_writes_only_requested(self, tmp_path):
        doc = base_config(emit=["metrics_json"], output_dir=str(tmp_path / "out"))
        run_pipeline(parse_config_dict(doc))
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == {"metrics.json"}

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_every_fixture_runs(self, fixtures_dir, tmp_path, name):
        cfg = parse_config(fixtures_dir / name)
        recon = tuple(replace(rc, grid_size=48) for rc in cfg.recon)
        cfg = replace(cfg, recon=recon, output_dir=str(tmp_path / "out"))
        reports = run_pipeline(cfg)
        assert len(reports) == len(cfg.quantities) * len(cfg.recon)
        assert not (tmp_path / "out" / "INCOMPLETE").exists()

    @pytest.mark.parametrize(
        "radius, width_share, resistivity, depth, circle_resistivity",
        itertools.product([4e-24, 1e24], [1, 0.25], *[[1e-24, 1e24]] * 3),
    )
    def test_range_corners_run_finite(
        self, fixtures_dir, tmp_path, radius, width_share, resistivity, depth, circle_resistivity
    ):
        # the corners of 1e-24 .. 1e24, the range that bounds every strip value by
        # 4e96; an overflow anywhere in the run is a RuntimeWarning, which fails it
        fixture = json.loads((fixtures_dir / "two_perturbations_unfiltered_q5.json").read_text())
        quarter = radius / 4
        doc = base_config(
            quantities=["avg_conductivity", "conductance"],
            recon=[{**entry, "grid_size": 40} for entry in fixture["recon"]],
            output_dir=str(tmp_path / "out"),
        )
        doc["phantom"] = {
            "subject_radius_mm": radius,
            "subject_resistivity_ohm_m": resistivity,
            "depth_mm": depth,
            "slice_width_mm": radius * width_share,
            "perturbations": [
                {
                    "center_x_mm": quarter,
                    "center_y_mm": quarter,
                    "radius_mm": quarter,
                    "resistivity_ohm_m": circle_resistivity,
                }
            ],
        }
        run_pipeline(parse_config_dict(doc))
        out = tmp_path / "out"
        for quantity in ("avgcond", "conductance"):
            values = np.loadtxt(out / f"sinogram_{quantity}.csv", delimiter=",", skiprows=1)
            assert np.all(np.isfinite(values) & (values > 0) & (values <= 4e96)), quantity
        numbers = []
        json.loads((out / "metrics.json").read_text(), parse_float=numbers.append)
        assert numbers and all(math.isfinite(float(n)) for n in numbers)


class TestCli:
    def test_validate_ok(self, fixtures_dir, capsys):
        code = main(["validate", str(fixtures_dir / "one_perturbation_q10.json")])
        assert code == 0
        assert "80 slices" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base_config(angle_step_deg=7)))
        assert main(["validate", str(path)]) == 2
        assert "divide" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "key, value",
        [("subject_radius_mm", float("nan")), ("depth_mm", float("inf")), ("radius_mm", 10**400)],
        ids=["nan", "infinity", "int_beyond_float"],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, command, key, value):
        doc = base_config(output_dir=str(tmp_path / "out"))
        section = doc["phantom"]["perturbations"][0] if key == "radius_mm" else doc["phantom"]
        section[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert f"{key} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "value",
        [1e-170, 1e200, 1e-320, math.nextafter(1e-24, 0), math.nextafter(1e24, math.inf)],
    )
    @pytest.mark.parametrize("key", [*PHANTOM_KEYS, "radius_mm", "resistivity_ohm_m"])
    def test_absurd_magnitude_rejected(self, tmp_path, capsys, key, value):
        # a size, depth or resistivity outside 1e-24 .. 1e24, down to the float next to an end
        doc = base_config(output_dir=str(tmp_path / "out"))
        circle = key in CIRCLE_KEYS
        (doc["phantom"]["perturbations"][0] if circle else doc["phantom"])[key] = value
        path = tmp_path / "absurd.json"
        path.write_text(json.dumps(doc))
        field = f"perturbation 0: {CIRCLE_KEYS[key]}" if circle else PHANTOM_KEYS[key]
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            assert f"{field} must lie in 1e-24 .. 1e24, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [1e-24, 1e24])
    def test_range_ends_accepted(self, tmp_path, capsys, value):
        # every positive number, of the subject and of a circle, exactly at one end
        circle = {"center_x_mm": 0, "center_y_mm": 0, "radius_mm": value, "resistivity_ohm_m": value}
        doc = base_config(recon=[{"filters": ["none"], "interps": ["linear"], "grid_size": 40}])
        doc["phantom"] = {**dict.fromkeys(PHANTOM_KEYS, value), "perturbations": [circle]}
        path = tmp_path / "ends.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0, capsys.readouterr().err

    # each ran to exit 0: all-zero sinograms with rmse=0 psnr=inf, or rmse=nan on every line
    @pytest.mark.parametrize(
        "numbers",
        [
            {"subject_radius_mm": 1e-170, "slice_width_mm": 1e-171},
            {"depth_mm": 1e-320},
            {"subject_resistivity_ohm_m": 1e-320},
        ],
        ids=["radius_and_width", "depth", "resistivity"],
    )
    def test_absurd_magnitude_not_run(self, tmp_path, capsys, numbers):
        doc = base_config(output_dir=str(tmp_path / "out"))
        doc["phantom"].update(numbers, perturbations=[])
        path = tmp_path / "absurd.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        assert f"{PHANTOM_KEYS[next(iter(numbers))]} must lie in" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # each strip's 1e299 mm^2 over 1e-150 ohm m would overflow; the radius is out of range
    def test_overflowing_phantom_rejected_by_validate_and_run(self, tmp_path, capsys):
        doc = base_config(output_dir=str(tmp_path / "out"))
        doc["phantom"].update(
            subject_radius_mm=1e150,
            slice_width_mm=1e149,
            subject_resistivity_ohm_m=1e-150,
            perturbations=[],
        )
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            assert "subject_radius must lie in 1e-24 .. 1e24, got 1e+150" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # phantoms whose strip values could pass 1e100; one number of each is out of range
    @pytest.mark.parametrize(
        "numbers, quantities, named",
        [
            # 4 R w / rho
            (
                {"subject_radius_mm": 1e52, "slice_width_mm": 1e47},
                ["avg_conductivity"],
                "subject_radius must lie in 1e-24 .. 1e24, got 1e+52",
            ),
            # the conductance is that sum over depth_mm
            ({"depth_mm": 1e-96}, ["conductance"], "depth must lie in 1e-24 .. 1e24, got 1e-96"),
            # an average conductivity is at most 1 / min(rho)
            (
                {"subject_resistivity_ohm_m": 1e-101},
                ["avg_conductivity"],
                "subject_resistivity must lie in 1e-24 .. 1e24, got 1e-101",
            ),
        ],
        ids=["radius_and_width", "depth", "resistivity"],
    )
    def test_strip_values_over_bound_rejected(self, tmp_path, capsys, numbers, quantities, named):
        doc = base_config(quantities=quantities, output_dir=str(tmp_path / "out"))
        doc["phantom"].update(numbers)
        path = tmp_path / "absurd.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tiny_depth_rejected_for_every_quantity_list(self):
        # depth_mm divides only the conductance, but its range holds for every run
        for quantities in (["avg_conductivity"], ["conductance"], ["avg_conductivity", "conductance"]):
            doc = base_config(quantities=quantities)
            doc["phantom"]["depth_mm"] = 1e-96
            with pytest.raises(ValidationError, match="depth must lie in 1e-24 .. 1e24, got 1e-96"):
                parse_config_dict(doc)

    @pytest.mark.parametrize(
        "key, value, fragment",
        [("angle_step_deg", 1e-4, "bytes at the peak"), ("grid_size", 100000, "bytes at the peak")],
        ids=["angle_step_deg", "grid_size"],
    )
    def test_validate_rejects_work_over_cap(self, tmp_path, capsys, key, value, fragment):
        doc = base_config()
        (doc["recon"][0] if key == "grid_size" else doc)[key] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert key in err and fragment in err

    def test_one_angle_huge_grid_rejected(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        doc = json.loads((fixtures_dir / "one_perturbation_q10.json").read_text())
        doc["angle_step_deg"] = 180
        doc["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "one_angle.json"
        path.write_text(json.dumps(doc))
        # an over-cap config must never run, even if the check were missing
        monkeypatch.setattr(eit_fbp.cli, "run_pipeline", lambda cfg: pytest.fail("ran"))
        doc["recon"][0]["grid_size"] = 31622
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        assert main(["validate", str(huge)]) == 2
        err = capsys.readouterr().err
        assert "recon grid_size 31622, 80 ask for 64,997,432,676 bytes at the peak" in err
        assert main(["run", str(path), "--grid", "10000", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "recon grid_size 10000 ask for 6,500,567,616 bytes at the peak" in err
        assert not (tmp_path / "out").exists()

    def test_grids_that_fit_only_alone_rejected(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        # 40 grid sizes near 4000: each fits alone, but their targets and disk masks
        # together would hold 5.8 GB before the first back projection
        doc = json.loads((fixtures_dir / "one_perturbation_q10.json").read_text())
        doc["recon"] = [
            {"filters": ["none"], "interps": ["linear"], "grid_size": g} for g in range(4000, 4040)
        ]
        path = tmp_path / "many_grids.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(eit_fbp.cli, "run_pipeline", lambda cfg: pytest.fail("ran"))
        for one in doc["recon"]:
            parse_config_dict({**doc, "recon": [one]})
        assert main(["validate", str(path)]) == 2
        assert "recon grid_size 4039, 4038" in capsys.readouterr().err

    def test_samples_over_cap_rejected(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        # one_perturbation_q10 at 1 degree steps with every filter x interp x normalize
        # at grids 2350-2356: 504 results of at most 1e9 samples each, 5e11 together
        doc = json.loads((fixtures_dir / "one_perturbation_q10.json").read_text())
        doc["angle_step_deg"] = 1
        doc["output_dir"] = str(tmp_path / "out")
        doc["recon"] = [
            {
                "filters": [k.value for k in FilterKind],
                "interps": [k.value for k in InterpKind],
                "grid_size": g,
                "normalize": normalize,
            }
            for g in range(2350, 2357)
            for normalize in (True, False)
        ]
        path = tmp_path / "huge_work.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(eit_fbp.cli, "run_pipeline", lambda cfg: pytest.fail("ran"))
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert "angle_step_deg 1 and recon grid_size 2356, 2355, 2354" in err
            assert "ask for 502,281,531,360 back-projection samples, more than 1,000,000,000" in err
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8_rejected(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(base_config()).encode().replace(b"avg_conductivity", b"\xff"))
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and "not valid UTF-8" in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "original, repeat",
        [
            ('"angle_step_deg": 10', '"angle_step_deg": 45'),
            ('"depth_mm": 2.0', '"depth_mm": 3.0'),
            ('"radius_mm": 10.0', '"radius_mm": 5.0'),
            ('"interps": ["linear"]', '"interps": ["spline"]'),
        ],
        ids=["top_level", "phantom", "perturbation", "recon_entry"],
    )
    def test_repeated_key_rejected(self, tmp_path, capsys, command, original, repeat):
        # json alone keeps the last copy, so the first would be silently dropped
        text = json.dumps(base_config(output_dir=str(tmp_path / "out")))
        assert text.count(original) == 1
        path = tmp_path / "repeated.json"
        path.write_text(text.replace(original, f"{original}, {repeat}"))
        assert main([command, str(path)]) == 2
        key = original.split('"')[1]
        assert f"repeated key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda doc: doc.update(output_dir=5), "output_dir must be a string"),
            (lambda doc: doc.pop("angle_step_deg"), "missing required key 'angle_step_deg'"),
            (lambda doc: doc.update(recon=doc["recon"][0]), "recon must be a list"),
            (lambda doc: doc["recon"][0].update(grid_size=40.5), "recon[0].grid_size must be"),
            (lambda doc: doc["recon"][0].update(normalize="no"), "recon[0].normalize must be"),
        ],
        ids=["output_dir", "missing_key", "recon", "grid_size", "normalize"],
    )
    def test_malformed_config_rejected(
        self, tmp_path, capsys, monkeypatch, command, mutate, fragment
    ):
        # the default output directory is relative, so run it where nothing else is
        monkeypatch.chdir(tmp_path)
        doc = base_config()
        mutate(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert fragment in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_grid_override_that_collides_rejected(self, tmp_path, capsys):
        doc = base_config(
            recon=[
                {"filters": ["none"], "interps": ["linear"], "grid_size": 40},
                {"filters": ["none"], "interps": ["linear"], "grid_size": 80},
            ],
            output_dir=str(tmp_path / "out"),
        )
        path = tmp_path / "two_grids.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--grid", "48", "--quiet"]) == 2
        assert "grid_size 48" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_run_with_overrides(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "cli_out"
        code = main(
            [
                "run",
                str(fixtures_dir / "one_perturbation_q10.json"),
                "--out",
                str(out),
                "--grid",
                "40",
                "--quiet",
            ]
        )
        assert code == 0
        assert (out / "metrics.json").exists()
        doc = json.loads((out / "metrics.json").read_text())
        assert all(entry["grid_size"] == 40 for entry in doc["results"])

    def test_run_prints_metrics(self, fixtures_dir, tmp_path, capsys):
        code = main(
            [
                "run",
                str(fixtures_dir / "one_perturbation_xneg_q10.json"),
                "--out",
                str(tmp_path / "o"),
                "--grid",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avgcond none linear" in out
        assert "avgcond none linear grid 40: rmse=" in out
        assert "wrote artifacts" in out
        # entries differing only in grid size or normalize print distinct lines
        doc = base_config(
            recon=[
                {"filters": ["none"], "interps": ["linear"], "grid_size": 40},
                {"filters": ["none"], "interps": ["linear"], "grid_size": 80},
                {"filters": ["none"], "interps": ["linear"], "grid_size": 80, "normalize": False},
            ],
            output_dir=str(tmp_path / "two_grids"),
        )
        path = tmp_path / "two_grids.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ", 1)[0] for line in lines[:-1]] == [
            "avgcond none linear grid 40",
            "avgcond none linear grid 80",
            "avgcond none linear raw grid 80",
        ]

    def test_printed_lines_match_their_results(self, tmp_path, capsys):
        doc = base_config(
            quantities=["avg_conductivity", "conductance"],
            recon=[
                {"filters": ["none", "ramlak"], "interps": ["linear"], "grid_size": 40},
                {"filters": ["hann"], "interps": ["nearest", "spline"], "grid_size": 80},
                {"filters": ["ramlak"], "interps": ["linear"], "grid_size": 80, "normalize": False},
            ],
            output_dir=str(tmp_path / "out"),
        )
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 0
        *lines, last = capsys.readouterr().out.splitlines()
        assert last.startswith("wrote artifacts")
        short = {q.value: name for q, name in eit_fbp.pipeline.QUANTITY_SHORT.items()}
        expected = {}
        for r in json.loads((tmp_path / "out" / "metrics.json").read_text())["results"]:
            raw = "" if r["normalize"] else " raw"
            label = f"{short[r['quantity']]} {r['filter']} {r['interp']}{raw} grid {r['grid_size']}"
            psnr = float(r["psnr"])
            expected[label] = f"rmse={r['rmse']:.6g} pearson={r['pearson']:.6g} psnr={psnr:.6g}"
        assert len(lines) == len(expected) == 10
        assert dict(line.split(": ", 1) for line in lines) == expected

    def test_run_into_a_held_output_dir_exits_2(self, fixtures_dir, tmp_path, capsys):
        # the lock is on an open file description, so a second descriptor in this
        # process holds it against the run as another process would
        out = tmp_path / "out"
        out.mkdir()
        (out / "target.png.tmp").write_bytes(b"a temporary a new run would delete")
        argv = ["run", str(fixtures_dir / "one_perturbation_q10.json"), "--out", str(out)]
        held = os.open(out, os.O_RDONLY)
        try:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            before = sorted(os.listdir(out))
            assert main([*argv, "--quiet"]) == 2
            assert f"output_dir {out}" in capsys.readouterr().err
            assert sorted(os.listdir(out)) == before
            assert main(["validate", argv[1]]) == 0  # validate takes no lock
        finally:
            os.close(held)
        assert main([*argv, "--quiet"]) == 0
        assert "metrics.json" in os.listdir(out)
        assert not (out / "INCOMPLETE").exists() and not (out / "target.png.tmp").exists()
        held = os.open(out, os.O_RDONLY)
        try:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)  # the run let go of it
        finally:
            os.close(held)

    def test_rerun_leaves_only_its_own_artifacts(self, fixtures_dir, tmp_path):
        # an earlier config with more artifacts, most of them under other names
        out = tmp_path / "out"
        earlier = fixtures_dir / "two_perturbations_unfiltered_q5.json"
        assert main(["run", str(earlier), "--grid", "40", "--out", str(out), "--quiet"]) == 0
        before = set(os.listdir(out))
        (out / "notes.txt").write_text("a file no run writes")
        later = ["run", str(fixtures_dir / "one_perturbation_q10.json"), "--out", str(out)]
        assert main([*later, "--quiet"]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        named = {s["csv"] for s in doc["sinograms"]}
        for entry in doc["targets"] + doc["results"]:
            named |= {entry["pgm"], entry["png"]}
        assert set(os.listdir(out)) == named | {"metrics.json", "notes.txt"}
        assert len(before - named) > 10  # files of the earlier run that this one does not write

    def test_runtime_error_exit_code(self, fixtures_dir, tmp_path, capsys):
        clobber = tmp_path / "file_in_the_way"
        clobber.write_text("not a directory")
        code = main(
            [
                "run",
                str(fixtures_dir / "one_perturbation_q10.json"),
                "--out",
                str(clobber),
                "--quiet",
            ]
        )
        assert code == 3

    def test_filters_table(self, capsys):
        assert main(["filters"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["freq", "ramlak", "shepplogan", "cosine", "hamming", "hann"]
        assert len(lines) == 12
        grid = np.array([[float(v) for v in line.split()] for line in lines[1:]])
        np.testing.assert_allclose(grid[:, 0], np.arange(11) / 10.0)
        np.testing.assert_allclose(grid[:, 1], grid[:, 0], atol=1e-10)  # ramlak is the ramp
        assert grid[10, 4] == pytest.approx(0.08, abs=1e-10)  # hamming at nyquist
