"""Batch pipeline: forward project, reconstruct, compare, write artifacts.

This module owns every artifact name.  Layout inside the output directory:

* ``sinogram_<quantity>.csv``  -- header row of angles, one row per slice
* ``target.pgm`` / ``target.png`` -- normalized ground-truth conductivity image
* ``<quantity>_<filter>_<interp>[_raw].pgm/.png`` -- reconstructions
* ``metrics.json`` -- config echo, metrics, timings and display mappings
* ``INCOMPLETE`` -- present while a run is going and after one that failed
  or was killed

When the recon configs use several grid sizes, every image stem ends in
``_g<N>``.  A run first deletes every file whose name is one of these, or one
of them with ``.tmp`` (see :data:`_ARTIFACT`), and nothing else.

Artifacts are written in this order: the targets, then each quantity's CSV and
the images of its results, in :func:`result_order`, then ``metrics.json``.

CSV and image bytes depend only on the config, never on wall-clock state.  Each
is encoded once: the CSV as ASCII bytes straight into one buffer of the file's
length, image levels in the file's dtype.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import math
import os
import re
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, config_to_dict
from .fbp import FilterKind, InterpKind, ReconConfig, reconstruct
from .imageio import MID_GRAY, write_atomic, write_pgm, write_png
from .projector import Quantity, Sinogram, compute_sinogram
from .raster import MetricsReport, RasterImage, compare, normalize_image, rasterize_target, rescale

QUANTITY_SHORT = {Quantity.CONDUCTANCE: "conductance", Quantity.AVG_CONDUCTIVITY: "avgcond"}


def _one_of(names) -> str:
    """A regex group that matches any of ``names`` literally."""
    return "(" + "|".join(map(re.escape, names)) + ")"


_Q = _one_of(QUANTITY_SHORT.values())
_F, _I = (_one_of(k.value for k in kind) for kind in (FilterKind, InterpKind))
# every name a run writes, finished or as write_atomic's temporary
_ARTIFACT = re.compile(
    rf"(sinogram_{_Q}\.csv|(target|{_Q}_{_F}_{_I}(_raw)?)(_g[1-9][0-9]*)?\.(pgm|png)"
    rf"|metrics\.json)(\.tmp)?"
)


class OutputDirInUse(RuntimeError):
    """Another run holds the output directory."""


def grid_suffix(grid_size: int, recon: tuple[ReconConfig, ...]) -> str:
    """Image-name suffix: ``_g<N>`` unless every recon config uses that size."""
    return "" if all(rc.grid_size == grid_size for rc in recon) else f"_g{grid_size}"


def recon_stem(rc: ReconConfig, recon: tuple[ReconConfig, ...]) -> str:
    """Image-name stem of one of the ``recon`` configs, after its quantity prefix."""
    raw = "" if rc.normalize else "_raw"
    return f"{rc.filter.value}_{rc.interp.value}{raw}{grid_suffix(rc.grid_size, recon)}"


def sinogram_csv_text(sino: Sinogram) -> bytearray:
    """The CSV as ASCII bytes, in one buffer of the file's length: angles as the
    header row, then one ``%.17e`` row per slice.

    A row with a value outside [1e-5, 1e17) goes through bytes ``%``, which
    writes the same bytes.  The rows between two such rows go through
    :func:`_e17_rows` in blocks of :func:`_csv_block_rows` rows, each block
    writing 24 bytes a value into its slice of the buffer.
    """
    header = (",".join(repr(a) for a in sino.angles_deg) + "\n").encode("ascii")
    row = b",".join([b"%.17e"] * sino.n_angles) + b"\n"
    in_range = ((sino.data >= 1e-5) & (sino.data < 1e17)).all(axis=1) & (sino.n_angles > 0)
    slow = np.flatnonzero(~in_range).tolist()
    lines = [row % tuple(sino.data[i]) for i in slow]
    fast_bytes = 24 * sino.n_angles * (sino.n_slices - len(slow))
    text = bytearray(len(header) + fast_bytes + sum(map(len, lines)))
    text[: len(header)] = header
    records = np.frombuffer(text, np.uint8)
    at, start, rows = len(header), 0, _csv_block_rows(sino.n_angles)
    for stop, line in zip(slow + [sino.n_slices], lines + [b""]):
        for first in range(start, stop, rows):  # the in-range rows before row stop
            block = sino.data[first : min(first + rows, stop)]
            _e17_rows(block, records[at : at + 24 * block.size].reshape(-1, 24))
            at += 24 * block.size
        text[at : at + len(line)] = line
        at += len(line)
        start = stop + 1
    return text


def _csv_block_rows(n_angles: int) -> int:
    """Rows encoded at once: as many as keep a block's 24-byte records within
    ``_CSV_BLOCK_BYTES``, and at least one."""
    return max(1, _CSV_BLOCK_BYTES // (24 * max(n_angles, 1)))


# 22 rows at 180 angles.  Larger blocks make fewer numpy calls, but from about
# 112 KiB of records (26 rows) a forward_heavy pass took 1.7x the minor faults,
# more than the calls saved: near glibc's 128 KiB default thresholds, freed
# blocks go back to the system and are faulted in afresh
_CSV_BLOCK_BYTES = 96 * 1024
_POW10 = 10.0 ** np.arange(23)  # every power up to 1e22 is an exact double


def _dekker_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as hi + lo, each with at most 26 significant bits."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _dekker_split(_POW10)
# rows 19-22 of a record, "e-05" .. "e+16", one column per exponent k = -5 .. 16
_EXPONENTS = np.array([list(b"e%+03d" % k) for k in range(-5, 17)], np.uint8).T.copy()


def _scaled_digits(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """v * 10**(17 - k) rounded half to even, exactly: Dekker's two-product
    gives the product as hi + lo, hi an integer (>= 2**53) and lo its error."""
    m = 17 - k
    p, p_hi, p_lo = _POW10[m], _POW10_HI[m], _POW10_LO[m]
    vh, vl = _dekker_split(v)
    hi = v * p
    lo = vh * p_hi - hi
    lo += vh * p_lo
    lo += vl * p_hi
    lo += vl * p_lo
    return hi.astype(np.int64) + np.rint(lo, out=lo).astype(np.int64)


def _e17_rows(block: np.ndarray, out: np.ndarray) -> None:
    """Write the CSV rows of ``block``, every value in [1e-5, 1e17), into the
    (``block.size``, 24) uint8 ``out``, byte for byte as ``%.17e`` writes them:
    the correctly rounded 18 digits, ties to even.

    Each value is one 24-byte record ``d.ddddddddddddddddde±XX`` plus its
    separator.  k starts at floor(log10 v) and moves by one wherever the
    rounded digits come out 19 or 17 long.
    """
    v = block.ravel()
    # off by one only within a few ulps of a power of ten, so n fits in int64
    k = np.clip(np.floor(np.log10(v)), -5, 16).astype(np.int64)
    n = _scaled_digits(v, k)
    while (step := (n >= 10**18).astype(np.int64) - (n < 10**17)).any():
        k += step
        n = _scaled_digits(v, k)
    record = np.empty((24, v.size), np.uint8)  # one column per value
    # the 18 digits as three 6-digit groups, which int32 divides several times
    # faster than int64; round j peels the last digit of every group into rows
    # 6 - j, 12 - j and 18 - j, and the leading digits land in rows 0, 7 and 13
    groups = np.empty((3, v.size), np.int32)
    groups[0] = n // 10**12
    n -= groups[0] * np.int64(10**12)
    groups[1] = n // 10**6
    n -= groups[1] * np.int64(10**6)
    groups[2] = n
    for j in range(5):
        q = groups // 10
        record[6 - j : 19 - j : 6] = groups - q * 10
        groups = q
    record[[0, 7, 13]] = groups
    record[:19] += ord("0")
    record[1] = ord(".")
    np.take(_EXPONENTS, k + 5, axis=1, out=record[19:23])
    record[23] = ord(",")
    record[23, block.shape[1] - 1 :: block.shape[1]] = ord("\n")
    out[...] = record.T


def _write_images(out_dir: Path, stem: str, img: RasterImage) -> dict:
    """Write ``<stem>.pgm`` and ``<stem>.png`` from one rescale; their metrics.json fields."""
    unit, lo, hi = rescale(img, MID_GRAY)
    write_pgm(out_dir / f"{stem}.pgm", unit)
    write_png(out_dir / f"{stem}.png", unit)
    return {"pgm": f"{stem}.pgm", "png": f"{stem}.png", "display_lo": lo, "display_hi": hi}


def result_order(config: RunConfig) -> list[tuple[Quantity, ReconConfig]]:
    """The (quantity, recon entry) of each result, in the order they are made."""
    return [(quantity, rc) for quantity in config.quantities for rc in config.recon]


def run_pipeline(config: RunConfig) -> list[MetricsReport]:
    """Run every quantity x recon combination, writing the requested artifacts.

    An ``INCOMPLETE`` marker is written before any artifact and removed only
    once every artifact is in place, so a run that dies for any reason,
    including being killed, is never mistaken for a full one.  On an
    exception the marker names the error.  Each artifact is written under a
    temporary name and moved into place, so none is ever a truncated file.
    Every file with an artifact's name, finished or temporary, is deleted first,
    so no artifact of an earlier or a killed run is left among this run's.

    From before the marker is written until after it is removed, the run holds
    an exclusive ``flock`` (POSIX) on the directory's own descriptor, so no lock
    file joins the artifacts, and the kernel drops it when the process dies.
    While another run holds it, this one raises :class:`OutputDirInUse` and
    writes or deletes nothing.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = os.open(out_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OutputDirInUse(f"output_dir {out_dir} is in use by another run") from None
        marker = out_dir / "INCOMPLETE"
        marker.write_text("pipeline running or killed\n")
        try:
            for stale in out_dir.iterdir():
                if _ARTIFACT.fullmatch(stale.name):
                    stale.unlink(missing_ok=True)
            reports = _run(config, out_dir)
        except Exception as e:
            try:
                marker.write_text(f"pipeline failed: {e}\n")
            except OSError:
                pass
            raise
        marker.unlink()
        return reports
    finally:
        os.close(lock)  # drops the lock


def _run(config: RunConfig, out_dir: Path) -> list[MetricsReport]:
    emit = set(config.emit)
    doc: dict = {"config": config_to_dict(config), "sinograms": [], "targets": [], "results": []}
    reports: list[MetricsReport] = []

    targets = {}
    for grid in sorted({rc.grid_size for rc in config.recon}):
        target = normalize_image(rasterize_target(config.phantom, grid))  # conductivity
        targets[grid] = target
        if "target_image" in emit:
            stem = "target" + grid_suffix(grid, config.recon)
            doc["targets"].append({"grid_size": grid, **_write_images(out_dir, stem, target)})

    # one quantity at a time, in result_order: its sinogram, its CSV, then its
    # results.  Every quantity then allocates and frees the same sizes in the
    # same order, so it reuses the heap blocks the one before freed instead of
    # faulting in fresh pages (glibc's dynamic mmap threshold, mallopt(3))
    for quantity, results in itertools.groupby(result_order(config), key=lambda qr: qr[0]):
        sino = compute_sinogram(config.phantom, config.angle_step, quantity)
        if "sinogram_csv" in emit:
            name = f"sinogram_{QUANTITY_SHORT[quantity]}.csv"
            write_atomic(out_dir / name, sinogram_csv_text(sino))
            doc["sinograms"].append({"quantity": quantity.value, "csv": name})
        for _, rc in results:
            start = time.perf_counter()
            image = reconstruct(sino, rc)
            metrics = compare(image, targets[rc.grid_size])
            seconds = time.perf_counter() - start
            reports.append(metrics)

            entry = {
                "quantity": quantity.value,
                "filter": rc.filter.value,
                "interp": rc.interp.value,
                "normalize": rc.normalize,
                "grid_size": rc.grid_size,
                "rmse": metrics.rmse,
                "pearson": metrics.pearson,
                "psnr": "inf" if math.isinf(metrics.psnr) else metrics.psnr,
                "seconds": seconds,
            }
            if "recon_images" in emit:
                stem = f"{QUANTITY_SHORT[quantity]}_{recon_stem(rc, config.recon)}"
                entry.update(_write_images(out_dir, stem, image))
            doc["results"].append(entry)
            del image  # so the next reconstruction's peak holds one image fewer
        del sino  # freed before the next sinogram is made, which reuses its blocks

    if "metrics_json" in emit:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        write_atomic(out_dir / "metrics.json", text.encode("ascii"))
    return reports
