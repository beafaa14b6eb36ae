"""eit-fbp benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it imports the package from ``src/`` and
writes only under ``.bench_out/``.  Workloads are described in
``bench/workloads.py``.

``--trace 0`` reports the end-to-end metrics:

* ``run_s`` -- median time of one pass (``parse_config`` plus
  ``run_pipeline`` for each config of the workload) in a warm worker
  process without tracing; the quartiles and pass count are printed too;
* ``setup_s`` -- median time of a fresh interpreter that imports the
  CLI module and parses the workload's configs, what every CLI call pays;
* ``peak_rss_mb`` -- peak resident memory of the worker that ran the passes;
* ``ok_rate`` -- passes whose outputs pass the check over passes attempted.

The shared host this runs on changes speed by up to 1.8x for minutes at a
time, so ``setup_s``, and ``run_s`` on ``forward_heavy``, are wall times
scaled to a reference CPU speed: each sample is taken between two runs of
fixed reference work and multiplied by the reference's time at that speed
over their mean (see ``bench/calibrate.py``).  ``run_s`` on the other
workloads is the wall time as measured.  The unscaled wall times are printed
and recorded too.

``--trace 1`` alternates untraced and traced passes and reports per-layer
self times (median over traced passes), work counts per pass and the
tracing overhead.  Every pass's outputs are checked after the timed region
(see ``bench/check.py``).  The last line of stdout is one JSON object; the
full record, with machine facts, seed and config hashes, goes to
``.bench_out/<workload>/result.json``.

    python3 bench/run.py --record-reference

re-records ``bench/reference.jsonl`` from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
REFERENCE = BENCH / "reference.jsonl"
SETUP_REPEATS = 15
WORKER_TIMEOUT_S = 150

SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, 'src'); import eit_fbp.cli; "
    "from eit_fbp.config import parse_config\n"
    "for p in sys.argv[1:]: parse_config(p)\n"
    "print(repr(time.perf_counter()))"
)

LAYER_TIMES = [
    "projector.compute_sinogram.conductance_s",
    "projector.compute_sinogram.avg_conductivity_s",
    "fbp.filter_s",
    "fbp.back_project.nearest_s",
    "fbp.back_project.linear_s",
    "fbp.back_project.spline_s",
    "raster.rasterize_target_s",
    "raster.normalize_image_s",
    "raster.compare_s",
    "imageio.write_pgm_s",
    "imageio.write_png_s",
    "pipeline.sinogram_csv_s",
    "pipeline.self_s",
    "config.parse_s",
]
INTERPS = ("nearest", "linear", "spline")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import check  # noqa: E402
import workloads  # noqa: E402
from tracing import layer_totals, read_spans  # noqa: E402


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_seconds(snippet: str, *args: str) -> float:
    """Wall time from launching a fresh interpreter on ``snippet`` until it
    prints the time it finished.  The child reports on the same monotonic
    clock, because a wait with a timeout polls and would round the time up to
    its polling interval."""
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", snippet, *args],
        cwd=ROOT,
        check=True,
        timeout=60,
        capture_output=True,
        text=True,
    )
    return float(child.stdout) - start


def measure_setup(paths: list[Path]) -> list[tuple[float, list[float]]]:
    """Set-up times, each with the start-up reference times on either side."""
    samples = []
    reference = child_seconds(calibrate.STARTUP_SNIPPET)
    for _ in range(SETUP_REPEATS):
        seconds = child_seconds(SETUP_SNIPPET, *map(str, paths))
        after = child_seconds(calibrate.STARTUP_SNIPPET)
        samples.append((seconds, [reference, after]))
        reference = after
    return samples


def run_worker(out: Path, paths: list[Path], seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--out",
        str(out),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        *map(str, paths),
    ]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads((out / "worker.json").read_text())


class Checker:
    """Checks each pass's artifacts.  Content checks run on the first pass
    that produced an artifact; later passes must reproduce its bytes, and
    inherit the problems found in them."""

    def __init__(self, configs: list, worker: dict, reference: dict | None):
        self.configs = configs
        self.images = worker["images"]
        self.reference = reference
        self.first_bytes: dict[tuple[str, str], tuple[bytes, list[str]]] = {}
        self.first_metrics: dict[str, tuple[list, list[str]]] = {}
        self.recorded: dict[str, dict] = {}
        self.oracle_s = 0.0
        self._oracles: dict[str, np.ndarray] = {}

    def oracle(self, cfg):
        if cfg.output_dir not in self._oracles:
            start = time.perf_counter()
            self._oracles[cfg.output_dir] = check.oracle_sinogram(cfg)
            self.oracle_s += time.perf_counter() - start
        return self._oracles[cfg.output_dir]

    def check_pass(self, pass_dir: Path, rows: list) -> list[str]:
        problems = []
        if len(rows) != len(self.configs):
            return [f"{len(rows)} of {len(self.configs)} configs returned"]
        for cfg, got in zip(self.configs, rows):
            problems += [f"{cfg.output_dir}: {p}" for p in self.check_config(cfg, pass_dir / cfg.output_dir, got)]
        return problems

    def check_config(self, cfg, d: Path, returned: list) -> list[str]:
        stem = cfg.output_dir
        ref = (self.reference or {}).get(stem)
        rec = self.recorded.setdefault(stem, {"sinograms": {}, "pgm": {}, "images": {}, "metrics": None})
        problems = []
        if (d / "INCOMPLETE").exists():
            problems.append("INCOMPLETE marker left")
        doc, rows = check.read_metrics(d / "metrics.json")
        if len(doc["results"]) != len(cfg.quantities) * len(cfg.recon):
            problems.append(f"{len(doc['results'])} results in metrics.json")
        problems += check.metrics_problems(rows, returned)
        if stem not in self.first_metrics:
            rec["metrics"] = rows
            rec["images"] = self.images.get(stem, {})
            found = []
            if ref is not None:
                found += check.metrics_problems(rows, ref["metrics"])
                for key, fp in rec["images"].items():
                    why = check.compare_fingerprint(fp, ref["images"][key], check.image_tol(ref["images"][key]))
                    found += [f"image {key}: {why}"] if why else []
            self.first_metrics[stem] = (rows, found)
        first_rows, found = self.first_metrics[stem]
        problems += found + check.metrics_problems(rows, first_rows)

        files = [(s["csv"], None) for s in doc["sinograms"]]
        files += [(t[kind], t) for t in doc["targets"] for kind in ("pgm", "png")]
        files += [(r[kind], r) for r in doc["results"] if "pgm" in r for kind in ("pgm", "png")]
        for name, entry in files:
            path = d / name
            if not path.is_file():
                problems.append(f"{name} missing")
                continue
            data = path.read_bytes()
            if (stem, name) not in self.first_bytes:
                found = [f"{name}: {p}" for p in self.check_content(cfg, path, entry, rec, ref)]
                self.first_bytes[(stem, name)] = (data, found)
            first_data, found = self.first_bytes[(stem, name)]
            problems += found if data == first_data else [f"{name} differs from the first pass"]
        return problems

    def check_content(self, cfg, path: Path, entry: dict | None, rec: dict, ref: dict | None) -> list[str]:
        name = path.name
        if name.endswith(".csv"):
            quantity = "conductance" if name == "sinogram_conductance.csv" else "avg_conductivity"
            angles, data = check.read_csv(path)
            problems = check.physics_problems(cfg, quantity, angles, data, self.oracle(cfg))
            fp = rec["sinograms"][name] = check.fingerprint(data)
            if ref is not None:
                r = ref["sinograms"][name]
                why = check.compare_fingerprint(fp, r, check.sinogram_tol(r), rel=check.SINOGRAM_RTOL)
                problems += [why] if why else []
            return problems
        if name.endswith(".png"):
            why = check.check_png(path, entry["grid_size"])
            return [why] if why else []
        levels = check.read_pgm(path)
        fp = rec["pgm"][name] = check.fingerprint(levels)
        problems = []
        if ref is not None:
            why = check.compare_fingerprint(fp, ref["pgm"][name], check.LEVEL_TOL)
            problems += [why] if why else []
        if "quantity" in entry:
            key = check.image_key(
                entry["quantity"], entry["filter"], entry["interp"], entry["normalize"], entry["grid_size"]
            )
            image = rec["images"].get(key)
            if image is None:
                return problems + ["no reconstructed image was captured"]
            want = check.expected_levels(
                image, entry["grid_size"], cfg.phantom.subject_radius, entry["display_lo"], entry["display_hi"]
            )
            got = np.asarray(fp["sample"])
            if np.any(np.abs(got - want) > check.LEVEL_TOL):
                problems.append("PGM levels do not encode the reconstructed image")
        return problems


def layer_metrics(worker: dict, spans_path: Path, oracle_s: float) -> dict[str, tuple[float, str]]:
    totals = layer_totals(read_spans(spans_path))
    passes = [p for p in worker["passes"] if p["timed"] and not p["error"]]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = [totals[p["index"]] for p in traced]

    def median(key: str) -> float:
        return statistics.median(t.get(key, 0.0) for t in per_pass)

    first = per_pass[0]
    m: dict[str, tuple[float, str]] = {}
    for key in LAYER_TIMES:
        m[key] = (median(key), "s")
    projector_s = median("projector.compute_sinogram.conductance_s") + median(
        "projector.compute_sinogram.avg_conductivity_s"
    )
    strip_evals = first.get("projector.strip_evals", 0)
    m["projector.strip_evals"] = (strip_evals, "count")
    m["projector.ns_per_strip_eval"] = (projector_s / strip_evals * 1e9 if strip_evals else 0.0, "ns")
    samples = {i: first.get(f"fbp.back_project.{i}.samples", 0) for i in INTERPS}
    m["fbp.back_project.samples"] = (sum(samples.values()), "count")
    for i in INTERPS:
        ns = median(f"fbp.back_project.{i}_s") / samples[i] * 1e9 if samples[i] else 0.0
        m[f"fbp.back_project.{i}.ns_per_sample"] = (ns, "ns")
    m["fbp.filter_projection.calls"] = (first.get("fbp.filter_projection.calls", 0), "count")
    m["imageio.bytes"] = (first.get("imageio.bytes", 0), "bytes")
    m["pipeline.csv_bytes"] = (first.get("pipeline.csv_bytes", 0), "bytes")
    m["radon_oracle.discrete_radon_s"] = (oracle_s, "s")
    traced_run = statistics.median(p["seconds"] for p in traced)
    untraced_run = statistics.median(p["seconds"] for p in untraced)
    m["trace.run_s"] = (traced_run, "s")
    m["trace.overhead_s"] = (traced_run - untraced_run, "s")
    unaccounted = [p["seconds"] - totals[p["index"]]["root_s"] for p in traced]
    m["trace.unaccounted_s"] = (statistics.median(unaccounted), "s")
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: int, reference: dict | None):
    """Run, check and summarise one workload; returns the full record."""
    from eit_fbp.config import parse_config

    out = ROOT / ".bench_out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    paths = workloads.config_paths(name, seed, ROOT, out)
    configs = [parse_config(p) for p in paths]

    setup = [] if trace else measure_setup(paths)
    worker = run_worker(out, paths, seconds, trace)

    checker = Checker(configs, worker, reference)
    failures = {}
    for p in worker["passes"]:
        if p["error"]:
            problems = [p["error"]]
        else:
            try:
                problems = checker.check_pass(out / "passes" / str(p["index"]), p["reports"])
            except (OSError, ValueError, KeyError) as e:
                problems = [f"unreadable output: {e!r}"]
        if problems:
            failures[p["index"]] = problems
    shutil.rmtree(out / "passes")
    attempted = len(worker["passes"])
    failed = len(failures)

    timed = [p for p in worker["passes"] if p["timed"] and not p["traced"]]
    wall = [p["seconds"] for p in timed]
    if name in workloads.SCALED:
        run = [calibrate.scaled(p["seconds"], *p["kernel_s"], calibrate.KERNEL_REFERENCE_S) for p in timed]
    else:
        run = wall
    q1, med, q3 = quartiles(run)
    if trace:
        metrics = layer_metrics(worker, out / "spans.jsonl", checker.oracle_s)
    else:
        metrics = {
            "run_s": (med, "s"),
            "setup_s": (
                statistics.median(calibrate.scaled(s, *r, calibrate.STARTUP_REFERENCE_S) for s, r in setup),
                "s",
            ),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
        }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "configs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths},
        "machine": {**worker["machine"], "git_commit": git_commit(), "src_sha256": source_digest()},
        "run_s": {"median": med, "p25": q1, "p75": q3, "n": len(timed), "values": run},
        "run_wall_s": wall,
        "kernel_s": [p["kernel_s"] for p in timed],
        "setup_wall_s": [s for s, _ in setup],
        "setup_reference_s": [r for _, r in setup],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fingerprints": checker.recorded,
    }
    return record


def load_reference(name: str, seed: int) -> dict | None:
    if name != "fixtures" and seed != workloads.DEFAULT_SEED:
        return None
    refs: dict[str, dict] = {}
    for line in REFERENCE.read_text().splitlines():
        entry = json.loads(line)
        if entry.pop("workload") == name:
            refs[entry.pop("config")] = entry
    return refs


def record_reference() -> int:
    lines = []
    for name in workloads.NAMES:
        rec = run_workload(name, workloads.DEFAULT_SEED, 0, 0, None)
        if rec["failed"]:
            print(json.dumps(rec["failures"], indent=1), file=sys.stderr)
            return 1
        for config, fingerprints in sorted(rec["fingerprints"].items()):
            lines.append(json.dumps({"workload": name, "config": config, **fingerprints}, sort_keys=True))
    REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "eit_fbp" / "__init__.py").is_file():
        print("error: run from the repository root; src/eit_fbp not found", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE} is missing", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, args.trace, load_reference(args.workload, args.seed))
    out = ROOT / ".bench_out" / args.workload
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(
        f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
        f"blas={m['blas']} blas_threads={m['blas_threads']} commit={m['git_commit']}"
    )
    print(f"workload={args.workload} seed={args.seed} configs={record['configs']}")
    r = record["run_s"]
    print(f"run_s: median={r['median']:.6f} p25={r['p25']:.6f} p75={r['p75']:.6f} n={r['n']} s")
    wq1, wmed, wq3 = quartiles(record["run_wall_s"])
    print(f"run wall: median={wmed:.6f} p25={wq1:.6f} p75={wq3:.6f} s (unscaled)")
    if record["setup_wall_s"]:
        print(f"setup wall: median={statistics.median(record['setup_wall_s']):.6f} s (unscaled)")
    for key, value in record["metrics"].items():
        print(f"{key} = {value['value']!r} {value['unit']}")
    for index, problems in record["failures"].items():
        print(f"pass {index} failed: {problems[0]}", file=sys.stderr)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
