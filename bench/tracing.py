"""In-memory spans around the package's layer boundaries.

The tracer wraps the public functions that ``eit_fbp.pipeline`` and
``eit_fbp.fbp`` look up in their module globals at call time, so a traced
pass runs the unmodified package code with a span around every call into a
layer.  Each span records its name, start, end, parent span and pass id.
Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span name -> per-layer metric name, where the metric is not "<span>_s".
METRIC_OF_SPAN = {
    "config.parse_config": "config.parse_s",
    "pipeline.run_pipeline": "pipeline.self_s",
    "pipeline.sinogram_csv_text": "pipeline.sinogram_csv_s",
    # Filtering runs inside reconstruct and has no span of its own.
    "fbp.reconstruct": "fbp.filter_s",
}


def _strip_evals(phantom, angle_step, quantity) -> int:
    """strip_area calls compute_sinogram makes: subject + each inclusion per
    slice and angle, plus the subject strip again for average conductivity."""
    from eit_fbp.projector import Quantity, slice_count, sweep_angles

    cells = slice_count(phantom.subject_radius, phantom.slice_width) * len(
        sweep_angles(angle_step)
    )
    per_cell = 1 + len(phantom.perturbations)
    if quantity is Quantity.AVG_CONDUCTIVITY:
        per_cell += 1
    return cells * per_cell


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent, pass_id)
        self.counts: dict[int, Counter] = defaultdict(Counter)  # pass_id -> work counts
        self.pass_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counts=None):
        """``fn`` wrapped in a span.  ``name`` may be a function of the call's
        arguments; ``counts(result, *args)`` returns work counts, added to
        the pass after the span has ended."""

        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent, self.pass_id)
            if counts is not None:
                self.counts[self.pass_id].update(counts(result, *args, **kwargs))
            return result

        return traced

    def count(self, name, fn):
        """``fn`` wrapped so that its calls are counted, without a span."""

        def counted(*args, **kwargs):
            self.counts[self.pass_id][name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module, attr, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every layer function the pipeline and fbp modules call."""
        from eit_fbp import fbp, pipeline as p

        self._patch(
            p,
            "compute_sinogram",
            self.wrap(
                lambda ph, step, q: f"projector.compute_sinogram.{q.value}",
                p.compute_sinogram,
                counts=lambda _r, ph, step, q: {"projector.strip_evals": _strip_evals(ph, step, q)},
            ),
        )
        self._patch(
            p,
            "sinogram_csv_text",
            self.wrap(
                "pipeline.sinogram_csv_text",
                p.sinogram_csv_text,
                counts=lambda text, _s: {"pipeline.csv_bytes": len(text)},
            ),
        )
        self._patch(p, "rasterize_target", self.wrap("raster.rasterize_target", p.rasterize_target))
        self._patch(p, "reconstruct", self.wrap("fbp.reconstruct", p.reconstruct))
        self._patch(p, "compare", self.wrap("raster.compare", p.compare))
        normalize = self.wrap("raster.normalize_image", p.normalize_image)
        self._patch(p, "normalize_image", normalize)
        self._patch(fbp, "normalize_image", normalize)
        for writer in ("write_pgm", "write_png"):
            self._patch(
                p,
                writer,
                self.wrap(
                    f"imageio.{writer}",
                    getattr(p, writer),
                    counts=lambda _r, path, _img: {"imageio.bytes": os.path.getsize(path)},
                ),
            )
        self._patch(
            fbp,
            "back_project",
            self.wrap(
                lambda sino, rc: f"fbp.back_project.{rc.interp.value}",
                fbp.back_project,
                counts=lambda _r, sino, rc: {
                    f"fbp.back_project.{rc.interp.value}.samples": rc.grid_size**2 * sino.n_angles
                },
            ),
        )
        self._patch(
            fbp, "filter_projection", self.count("fbp.filter_projection.calls", fbp.filter_projection)
        )

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Spans as one JSON object per line, then one line of counts per pass."""
        with open(path, "w") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "pass": pass_id}
                    )
                    + "\n"
                )
            for pass_id, counts in sorted(self.counts.items()):
                fh.write(json.dumps({"pass": pass_id, "counts": dict(counts)}) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_totals(records: list[dict]) -> dict[int, dict[str, float]]:
    """Per pass: self seconds by metric name, work counts, and ``root_s``,
    the summed duration of spans without a parent.

    A span's self time is its duration minus its children's durations.  The
    program is single-threaded at this level, so children never overlap.
    """
    spans = [r for r in records if "name" in r]
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    per_pass: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        totals = per_pass[s["pass"]]
        duration = s["end"] - s["start"]
        totals[METRIC_OF_SPAN.get(s["name"], s["name"] + "_s")] += duration - child_time[i]
        if s["parent"] < 0:
            totals["root_s"] += duration
    for r in records:
        if "counts" in r:
            per_pass[r["pass"]].update(r["counts"])
    return per_pass
