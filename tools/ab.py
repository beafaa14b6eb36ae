"""Parent-versus-change checks of two checkouts of this repository.

    python3 tools/ab.py --outputs PARENT_DIR

runs ``python -m eit_fbp.cli run`` from ``PARENT_DIR/src`` and from this
checkout's ``src/`` over one fixed list of configs (see :func:`configs`), each
once pinned to one CPU and once on every CPU this process may use, and compares
the two trees' outputs: the same file names, every CSV, PGM and PNG byte, and
every ``metrics.json`` field but ``seconds`` and ``output_dir`` exactly.  This
checkout's one-CPU and all-CPU outputs must match each other the same way.  It
prints one line per difference and exits 1 if there is any, 0 if there is none.
Runs go one at a time, into a temporary directory that is removed at the end.

    python3 tools/ab.py --pairs PARENT_DIR

runs, for each workload in ``BENCHMARK.json``, :data:`PAIRS` pairs of
``bench/run.py --seed 1 --seconds <run_seconds>``, one run from each tree, in
that tree and one at a time, alternating which side goes first.  It prints one
JSON object: for each workload and end-to-end metric, both sides' runs with
their p25, median and p75, the pairs the change wins and how much worse its
median is (see :func:`summarize`), each run's ``correct``, and the machine facts.
Each run writes under its own tree's ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
IGNORED_FIELDS = {"seconds", "output_dir"}
RUN_TIMEOUT_S = 300
PAIRS = 10
SIDES = ("parent", "change")
MACHINE_FACTS = ("nproc", "cpus_usable", "python", "numpy", "blas", "blas_threads")


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def configs() -> list[tuple[str, dict, int | None]]:
    """(name, config document, --grid or None) of every config, in run order."""
    out = [(p.stem, json.loads(p.read_text()), None) for p in sorted(FIXTURES.glob("*.json"))]
    generate = _workloads().generate
    for name in ("forward_heavy", "recon_heavy"):
        for seed in (1, 2):
            doc = generate(name, seed)
            del doc["emit"]  # every emit kind
            out.append((f"{name}_seed{seed}", doc, None))
    base = json.loads((FIXTURES / "one_perturbation_q10.json").read_text())
    large = json.loads(json.dumps(base))
    large["phantom"]["slice_width_mm"] = 0.25
    large["angle_step_deg"] = 1
    out.append(("large_e2e", large, 320))
    odd = dict(base, angle_step_deg=7.2)  # 25 angles: mirror pairs, no quarter turns
    for grid in (320, 321):
        out.append((f"one_perturbation_q10_grid{grid}", base, grid))
        out.append((f"odd_sweep_grid{grid}", odd, grid))
    return out


def _env(tree: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def imports_from(tree: Path) -> Path:
    """Directory the package is imported from when ``tree`` runs it."""
    cmd = [sys.executable, "-c", "import eit_fbp; print(eit_fbp.__file__)"]
    child = subprocess.run(cmd, env=_env(tree), capture_output=True, text=True, check=True)
    return Path(child.stdout.strip()).resolve().parent


def run(tree: Path, config: Path, grid: int | None, out: Path, cpus: set[int]) -> str | None:
    """Run the CLI of ``tree`` on ``config`` into ``out`` on ``cpus``; an error line or None."""
    cmd = [sys.executable, "-m", "eit_fbp.cli", "run", str(config), "--out", str(out), "--quiet"]
    if grid is not None:
        cmd += ["--grid", str(grid)]
    every = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)  # inherited by the child
    try:
        child = subprocess.run(
            cmd,
            cwd=out.parent,
            env=_env(tree),
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    finally:
        os.sched_setaffinity(0, every)
    if child.returncode != 0:
        return f"exit {child.returncode}: {child.stderr.strip()[-500:]}"
    return None


def _field_differences(a, b, where: str) -> list[str]:
    """Every field of the JSON values ``a`` and ``b`` that differs, by its path, leaving
    out the fields that differ between identical runs."""
    if isinstance(a, dict) and isinstance(b, dict):
        one_only = (a.keys() ^ b.keys()) - IGNORED_FIELDS
        lines = [f"{where}.{key} in one only" for key in sorted(one_only)]
        for key in sorted((a.keys() & b.keys()) - IGNORED_FIELDS):
            lines += _field_differences(a[key], b[key], f"{where}.{key}")
        return lines
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [
            line
            for i, (x, y) in enumerate(zip(a, b))
            for line in _field_differences(x, y, f"{where}[{i}]")
        ]
    # as JSON text, so 1 differs from 1.0 and NaN equals NaN
    return [] if json.dumps(a) == json.dumps(b) else [f"{where}: {a!r} != {b!r}"]


def compare(a: Path, b: Path) -> list[str]:
    """Every difference between the output directories ``a`` and ``b``."""
    names_a = {p.name for p in a.iterdir()}
    names_b = {p.name for p in b.iterdir()}
    lines = [f"{name} only in {a}" for name in sorted(names_a - names_b)]
    lines += [f"{name} only in {b}" for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        if name == "metrics.json":
            fields = [json.loads((d / name).read_text()) for d in (a, b)]
            lines += [f"metrics.json{line}" for line in _field_differences(*fields, "")]
            continue
        bytes_a, bytes_b = (a / name).read_bytes(), (b / name).read_bytes()
        if bytes_a != bytes_b:
            at = next((i for i, (x, y) in enumerate(zip(bytes_a, bytes_b)) if x != y), None)
            at = min(len(bytes_a), len(bytes_b)) if at is None else at
            sizes = f"{len(bytes_a)} and {len(bytes_b)} bytes"
            lines.append(f"{name}: {sizes}, first difference at byte {at}")
    return lines


def outputs(parent: Path) -> int:
    every = os.sched_getaffinity(0)
    sides = {"one_cpu": {min(every)}, "all_cpus": every}
    trees = {"parent": parent, "change": ROOT}
    for tree in trees.values():
        if imports_from(tree) != (tree / "src" / "eit_fbp").resolve():
            raise SystemExit(f"{tree}/src does not provide the package it runs")
    failures = 0
    with tempfile.TemporaryDirectory(prefix="ab_outputs_") as tmp:
        work = Path(tmp)
        listed = configs()
        for name, doc, grid in listed:
            config = work / f"{name}.json"
            config.write_text(json.dumps(doc, indent=2) + "\n")
            dirs = {}
            for side, cpus in sides.items():
                for tree_name, tree in trees.items():
                    out = work / tree_name / side / name
                    out.parent.mkdir(parents=True, exist_ok=True)
                    error = run(tree, config, grid, out, cpus)
                    if error is not None:
                        print(f"{name} [{tree_name}, {side}]: {error}")
                        failures += 1
                    else:
                        dirs[tree_name, side] = out
            pairs = [(("parent", side), ("change", side)) for side in sides]
            pairs.append((("change", "one_cpu"), ("change", "all_cpus")))
            found = []
            for a, b in pairs:
                if a in dirs and b in dirs:
                    where = f"{name} [{'/'.join(a)} vs {'/'.join(b)}]"
                    found += [f"{where}: {line}" for line in compare(dirs[a], dirs[b])]
            for line in found:
                print(line)
            failures += len(found)
            print(f"{name}: {len(found)} difference(s)", file=sys.stderr)
    print(f"{failures} difference(s) over {len(listed)} configs at {len(sides)} CPU settings")
    return 1 if failures else 0


def bench_run(tree: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """One ``bench/run.py`` run of ``tree``: its last stdout line, and its machine facts."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload]
    cmd += ["--seed", "1", "--seconds", str(seconds)]
    child = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if child.returncode != 0:
        raise SystemExit(f"{tree}: {workload} exited {child.returncode}: {child.stderr[-500:]}")
    record = json.loads((tree / ".bench_out" / workload / "result.json").read_text())
    return json.loads(child.stdout.splitlines()[-1]), record["machine"]


def _quartiles(values: list[float]) -> dict:
    p25, median, p75 = statistics.quantiles(values, n=4, method="exclusive")
    return {"p25": p25, "median": median, "p75": p75, "runs": values}


def summarize(pairs: list[dict[str, dict]], end_to_end: list[dict]) -> dict:
    """One workload's summary from its ``pairs``, each the last stdout line of
    ``bench/run.py`` by side, for every metric in ``end_to_end`` (BENCHMARK.json's
    entries).  ``change_better_in`` counts the pairs where the change is better, ties
    counting for neither; ``median_change_worse_by`` is (change - parent) / parent of
    the medians, negated where higher is better."""
    out = {
        "pairs": len(pairs),
        "correct": all(pair[side]["correct"] for pair in pairs for side in SIDES),
        "runs_correct": {side: [pair[side]["correct"] for pair in pairs] for side in SIDES},
    }
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        runs = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        parent, change = (statistics.median(runs[side]) for side in SIDES)
        wins = zip(runs["parent"], runs["change"])
        out[name] = {
            "unit": metric["unit"],
            **{side: _quartiles(runs[side]) for side in SIDES},
            "change_better_in": sum(sign * (c - p) < 0 for p, c in wins),
            "median_change_worse_by": sign * (change - parent) / parent if parent else None,
        }
    return out


def pairs_mode(parent: Path) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"parent": parent, "change": ROOT}
    doc = {
        "command": f"bench/run.py --workload <name> --seed 1 --seconds {seconds}",
        "method": (
            f"{PAIRS} pairs a workload of one run from each tree, in that tree, one at a "
            "time, alternating which side runs first ('first'); each metric is the value "
            "bench/run.py reports for one run; p25/median/p75 are over one side's runs "
            "(statistics.quantiles, exclusive)"
        ),
        "machine": {},
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        first = [SIDES[k % 2] for k in range(PAIRS)]
        pairs = []
        for k, lead in enumerate(first):
            pair = {}
            for side in (lead, *(s for s in SIDES if s != lead)):
                pair[side], machine = bench_run(trees[side], workload, seconds)
                doc["machine"] = {key: machine.get(key) for key in MACHINE_FACTS}
                value = pair[side]["metrics"]["run_s"]["value"]
                print(f"{workload} pair {k + 1}/{PAIRS} {side}: run_s {value:.4f}", file=sys.stderr)
            pairs.append(pair)
        summary = summarize(pairs, bench["end_to_end"])
        doc["workloads"][workload] = {"seed": 1, "seconds": seconds, "first": first, **summary}
    print(json.dumps(doc, indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--outputs",
        metavar="PARENT_DIR",
        type=Path,
        help="checkout to compare this one's outputs with",
    )
    mode.add_argument(
        "--pairs",
        metavar="PARENT_DIR",
        type=Path,
        help="checkout to run the benchmark against in alternating pairs",
    )
    args = parser.parse_args(argv)
    parent = args.outputs or args.pairs
    if not (parent / "src" / "eit_fbp").is_dir():
        parser.error(f"{parent} has no src/eit_fbp")
    if args.pairs:
        return pairs_mode(parent.resolve())
    return outputs(parent.resolve())


if __name__ == "__main__":
    sys.exit(main())
