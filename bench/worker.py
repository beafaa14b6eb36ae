"""Runs the passes of one workload in a fresh interpreter.

    python3 bench/worker.py --out DIR --seconds S --trace 0|1 CONFIG...

Run from the repository root.  A pass is ``parse_config`` plus
``run_pipeline`` for every config, in order, writing into its own directory
under ``DIR/passes``.  Pass 0 is an untimed warm-up that also fingerprints
every image ``reconstruct`` returns, for the output check.  Then passes run
until ``S`` seconds have elapsed; with ``--trace 1`` they alternate between
untraced and traced.  The reference kernel of ``bench/calibrate.py`` runs
before the first timed pass and after each one, so every pass has a kernel
time on either side; ``bench/run.py`` scales by them where the workload
asks for it.  The worker checks nothing itself, so that its peak
memory is that of the passes alone; it writes ``DIR/worker.json`` and, when
tracing, ``DIR/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import eit_fbp.pipeline as pipeline  # noqa: E402
from check import fingerprint, image_key  # noqa: E402
from eit_fbp.config import parse_config  # noqa: E402
from tracing import Tracer  # noqa: E402


def blas_facts() -> dict:
    """BLAS library and the thread count it runs with, left as the user has it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*"))
    for lib in libs:
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            facts["blas_threads"] = getter()
    return facts


def run_pass(paths, pass_dir: Path, parse, run) -> tuple[float, list, str | None]:
    pass_dir.mkdir(parents=True)
    os.chdir(pass_dir)
    reports: list = []
    error = None
    start = time.perf_counter()
    try:
        for path in paths:
            reports.append(run(parse(path)))
    except Exception:
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    os.chdir(ROOT)
    rows = [[[m.rmse, m.pearson, m.psnr] for m in r] for r in reports]
    return seconds, rows, error


def warm_up(paths, pass_dir: Path) -> tuple[dict, float, list, str | None]:
    """Untimed first pass; fingerprints every reconstructed image per config."""
    images: dict[str, dict] = {}
    current: dict = {}
    original = pipeline.reconstruct

    def capture(sino, rc):
        image = original(sino, rc)
        key = image_key(sino.quantity.value, rc.filter.value, rc.interp.value, rc.normalize, rc.grid_size)
        current[key] = fingerprint(image.pixels)
        return image

    def run(cfg):
        current.clear()
        result = pipeline.run_pipeline(cfg)
        images[cfg.output_dir] = dict(current)
        return result

    pipeline.reconstruct = capture
    try:
        seconds, rows, error = run_pass(paths, pass_dir, parse_config, run)
    finally:
        pipeline.reconstruct = original
    return images, seconds, rows, error


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("configs", nargs="+", type=Path)
    args = ap.parse_args()
    out = args.out.resolve()
    paths = [p.resolve() for p in args.configs]
    passes_dir = out / "passes"

    images, seconds, rows, error = warm_up(paths, passes_dir / "0")
    passes = [{"index": 0, "timed": False, "traced": False, "seconds": seconds, "reports": rows, "error": error}]

    tracer = Tracer()
    traced_parse = tracer.wrap("config.parse_config", parse_config)
    traced_run = tracer.wrap("pipeline.run_pipeline", pipeline.run_pipeline)
    kernel_s = calibrate.kernel_seconds()
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 0
        if traced:
            tracer.pass_id = index
            tracer.install()
            try:
                seconds, rows, error = run_pass(paths, passes_dir / str(index), traced_parse, traced_run)
            finally:
                tracer.uninstall()
        else:
            seconds, rows, error = run_pass(
                paths, passes_dir / str(index), parse_config, pipeline.run_pipeline
            )
        kernel_after = calibrate.kernel_seconds()
        passes.append(
            {
                "index": index,
                "timed": True,
                "traced": traced,
                "seconds": seconds,
                "kernel_s": [kernel_s, kernel_after],
                "reports": rows,
                "error": error,
            }
        )
        kernel_s = kernel_after
        # Stop before a pass that would end past the time limit.
        both_kinds = not args.trace or len(passes) >= 3
        if time.perf_counter() - start + seconds > args.seconds and both_kinds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer.write(out / "spans.jsonl")
    machine = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(),
    }
    result = {"passes": passes, "images": images, "peak_rss_mb": peak_rss_mb, "machine": machine}
    (out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
