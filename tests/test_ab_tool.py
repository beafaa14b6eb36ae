"""The output comparison of ``tools/ab.py --outputs`` on hand-made output directories."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_outputs(d: Path, png: bytes, metrics: dict) -> Path:
    d.mkdir()
    (d / "target.png").write_bytes(png)
    (d / "metrics.json").write_text(json.dumps(metrics))
    return d


METRICS = {
    "config": {"output_dir": "a"},
    "results": [{"pearson": 0.5, "seconds": 0.1}],
}


def test_run_fields_are_ignored(ab, tmp_path):
    a = write_outputs(tmp_path / "a", b"\x89PNG", METRICS)
    other = {"config": {"output_dir": "b"}, "results": [{"pearson": 0.5, "seconds": 0.2}]}
    b = write_outputs(tmp_path / "b", b"\x89PNG", other)
    assert ab.compare(a, b) == []


def test_every_difference_is_named(ab, tmp_path):
    a = write_outputs(tmp_path / "a", b"\x89PNG", METRICS)
    changed = {"config": {"output_dir": "a"}, "results": [{"pearson": 0.5 + 1e-16, "seconds": 0.1}]}
    b = write_outputs(tmp_path / "b", b"\x89PNH", changed)
    (b / "extra.pgm").write_bytes(b"P5")
    assert ab.compare(a, b) == [
        f"extra.pgm only in {b}",
        "metrics.json.results[0].pearson: 0.5 != 0.5000000000000001",
        "target.png: 4 and 4 bytes, first difference at byte 3",
    ]


def test_config_list(ab):
    names = [name for name, _, _ in ab.configs()]
    assert len(names) == len(set(names)) == 16
    grids = {name: grid for name, _, grid in ab.configs()}
    assert grids["large_e2e"] == 320 and grids["odd_sweep_grid321"] == 321
