"""Command-line benchmark runner.

Builds an experiment spec from defaults, an optional JSON config file, and
command-line flags (flags win), runs the matrix, and writes CSV and/or SVG
outputs. Exits nonzero when any individual run failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .bench import (METHODS, ExperimentSpec, FAMILIES, emit_csv,
                    run_experiments)
from .plots import emit_plots
from .tree import _count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpais-bench",
        description="Benchmark tree-pyramid adaptive importance sampling "
                    "against MH and PMC baselines.")
    parser.add_argument("--config", help="JSON file with experiment settings "
                        "(same keys as the flags below)")
    parser.add_argument("--methods",
                        help=f"comma-separated method ids; available: "
                             f"{', '.join(sorted(METHODS))}")
    parser.add_argument("--families",
                        help=f"comma-separated target families: "
                             f"{', '.join(FAMILIES)}")
    parser.add_argument("--dims",
                        help="comma-separated dimensionalities, e.g. 1,2,3")
    parser.add_argument("--n-grid", dest="sample_counts",
                        help="comma-separated sample counts, e.g. 16,64,256")
    parser.add_argument("--trials", help="trials per cell")
    parser.add_argument("--seed", dest="base_seed",
                        help="base seed for the whole matrix")
    parser.add_argument("--jsd-points", dest="jsd_points",
                        help="Monte Carlo points per JSD estimate")
    parser.add_argument("--workers", default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--out-dir", default="bench_out",
                        help="output directory (default bench_out)")
    parser.add_argument("--format", choices=("csv", "svg", "both"),
                        default="both", help="outputs to write (default both)")
    return parser


# flags and config keys carry raw values; ExperimentSpec converts them
SPEC_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentSpec))


def spec_from_args(args) -> ExperimentSpec:
    settings = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
        unknown = set(settings) - set(SPEC_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    settings.update((key, value) for key, value in vars(args).items()
                    if key in SPEC_KEYS and value is not None)
    return ExperimentSpec(**settings)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        workers = _count("workers", args.workers)
        os.makedirs(args.out_dir, exist_ok=True)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = run_experiments(spec, workers=workers)
    written = []
    if args.format in ("csv", "both"):
        csv_path = os.path.join(args.out_dir, "results.csv")
        emit_csv(rows, csv_path)
        written.append(csv_path)
    if args.format in ("svg", "both"):
        written.extend(emit_plots(rows, args.out_dir, spec))

    failures = [row for row in rows if row.error is not None]
    print(f"{len(rows)} runs, {len(failures)} failed")
    for row in failures:
        print(f"  {row.method}/{row.family}/{row.dims}d/N={row.n}/"
              f"trial={row.trial}: {row.error}", file=sys.stderr)
    for path in written:
        print(f"wrote {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
