"""Command-line front end.

Subcommands:

* ``eit-fbp run <config> [--out DIR] [--grid N] [--quiet]`` -- full pipeline
* ``eit-fbp validate <config>`` -- parse and check a config, write nothing
* ``eit-fbp filters`` -- gain table of the five named filters

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys

from .config import ParseError, RunConfig, ValidationError, parse_config
from .fbp import FilterKind, filter_gain
from .pipeline import QUANTITY_SHORT, run_pipeline
from .projector import angle_count, slice_count

_TABLE_FILTERS = tuple(kind for kind in FilterKind if kind is not FilterKind.NONE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eit-fbp",
        description="Forward-simulate a circular phantom and reconstruct it by "
        "filtered back projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline from a JSON config")
    p_run.add_argument("config", help="path to the JSON config file")
    p_run.add_argument("--out", metavar="DIR", help="override the config's output directory")
    p_run.add_argument(
        "--grid", type=int, metavar="N", help="override grid_size of every recon config"
    )
    p_run.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_val = sub.add_parser("validate", help="parse and validate a config, writing nothing")
    p_val.add_argument("config", help="path to the JSON config file")

    sub.add_parser("filters", help="print the filter gain table at 11 frequencies")
    return parser


def _apply_overrides(cfg: RunConfig, out: str | None, grid: int | None) -> RunConfig:
    if out is not None:
        cfg = dataclasses.replace(cfg, output_dir=out)
    if grid is not None:
        recon = tuple(dataclasses.replace(rc, grid_size=grid) for rc in cfg.recon)
        cfg = dataclasses.replace(cfg, recon=recon)
    return cfg


def _print_filter_table(stream) -> None:
    header = "freq " + " ".join(f"{k.value:>12s}" for k in _TABLE_FILTERS)
    print(header, file=stream)
    for i in range(11):
        f = i / 10.0
        row = " ".join(f"{filter_gain(kind, f):12.10f}" for kind in _TABLE_FILTERS)
        print(f"{f:4.1f} {row}", file=stream)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "filters":
        _print_filter_table(sys.stdout)
        return 0

    try:
        cfg = parse_config(args.config)
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.command == "validate":
        n = slice_count(cfg.phantom.subject_radius, cfg.phantom.slice_width)
        print(
            f"config OK: {n} slices, {angle_count(cfg.angle_step)} angles, "
            f"{len(cfg.phantom.perturbations)} perturbations, "
            f"{len(cfg.quantities)} quantities, {len(cfg.recon)} recon configs"
        )
        return 0

    try:
        cfg = _apply_overrides(cfg, args.out, args.grid)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        reports = run_pipeline(cfg)
    except Exception as e:  # domain or I/O failure after a valid config
        print(f"error: {e}", file=sys.stderr)
        return 3

    if not args.quiet:
        for (quantity, rc), m in zip(itertools.product(cfg.quantities, cfg.recon), reports):
            raw = "" if rc.normalize else " raw"
            print(
                f"{QUANTITY_SHORT[quantity]} {rc.filter.value} {rc.interp.value}{raw} "
                f"grid {rc.grid_size}: "
                f"rmse={m.rmse:.6g} pearson={m.pearson:.6g} psnr={m.psnr:.6g}"
            )
        print(f"wrote artifacts to {cfg.output_dir}")
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
