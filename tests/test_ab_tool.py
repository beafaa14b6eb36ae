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


END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_rate", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def bench_line(run_s: float, ok_rate: float, correct: bool = True) -> dict:
    """The last stdout line of one bench/run.py run."""
    metrics = {"run_s": {"value": run_s, "unit": "s"}, "ok_rate": {"value": ok_rate, "unit": "ratio"}}
    return {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics}


def test_pairs_summary(ab):
    parent = [0.40, 0.42, 0.44, 0.46, 0.48]
    change = [0.38, 0.42, 0.40, 0.47, 0.36]  # better in pairs 1, 3 and 5; pair 2 ties
    pairs = [
        {"parent": bench_line(p, 1.0), "change": bench_line(c, 0.9 if k == 0 else 1.0, k != 4)}
        for k, (p, c) in enumerate(zip(parent, change))
    ]
    summary = ab.summarize(pairs, END_TO_END)
    assert summary["pairs"] == 5 and summary["correct"] is False
    assert summary["runs_correct"] == {"parent": [True] * 5, "change": [True] * 4 + [False]}
    run_s = summary["run_s"]
    assert run_s["unit"] == "s"
    assert run_s["parent"] == pytest.approx({"p25": 0.41, "median": 0.44, "p75": 0.47, "runs": parent})
    assert run_s["change"]["median"] == 0.40 and run_s["change"]["runs"] == change
    assert run_s["change_better_in"] == 3
    assert run_s["median_change_worse_by"] == pytest.approx((0.40 - 0.44) / 0.44)
    # higher is better: the change's lower ok_rate in pair 1 is worse, and no pair wins
    ok = summary["ok_rate"]
    assert ok["change_better_in"] == 0
    assert ok["median_change_worse_by"] == 0
    assert ok["change"]["p25"] == pytest.approx(0.95)


def test_pairs_is_the_only_other_mode(ab, tmp_path):
    with pytest.raises(SystemExit):
        ab.main(["--outputs", str(tmp_path), "--pairs", str(tmp_path)])
    with pytest.raises(SystemExit):
        ab.main(["--pairs", str(tmp_path)])  # no src/eit_fbp there
