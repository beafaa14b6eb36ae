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
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
IGNORED_FIELDS = {"seconds", "output_dir"}
RUN_TIMEOUT_S = 300


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--outputs",
        metavar="PARENT_DIR",
        type=Path,
        required=True,
        help="checkout to compare this one's outputs with",
    )
    args = parser.parse_args(argv)
    if not (args.outputs / "src" / "eit_fbp").is_dir():
        parser.error(f"{args.outputs} has no src/eit_fbp")
    return outputs(args.outputs.resolve())


if __name__ == "__main__":
    sys.exit(main())
