"""Command-line benchmark runner.

Builds an experiment spec from defaults, an optional JSON config file, and
command-line flags (flags win), runs the matrix, and writes CSV and/or SVG
outputs. Exits nonzero when any individual run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import (DEFAULT_SAMPLE_COUNTS, METHODS, ExperimentSpec, FAMILIES,
                    emit_csv, run_experiments)
from .plots import emit_plots


def _csv_list(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


def _int_list(text: str) -> list:
    return [int(item) for item in _csv_list(text)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpais-bench",
        description="Benchmark tree-pyramid adaptive importance sampling "
                    "against MH and PMC baselines.")
    parser.add_argument("--config", help="JSON file with experiment settings "
                        "(same keys as the flags below)")
    parser.add_argument("--methods", type=_csv_list,
                        help=f"comma-separated method ids; available: "
                             f"{', '.join(sorted(METHODS))}")
    parser.add_argument("--families", type=_csv_list,
                        help=f"comma-separated target families: "
                             f"{', '.join(FAMILIES)}")
    parser.add_argument("--dims", type=_int_list,
                        help="comma-separated dimensionalities, e.g. 1,2,3")
    parser.add_argument("--n-grid", type=_int_list, dest="sample_counts",
                        help="comma-separated sample counts, e.g. 16,64,256")
    parser.add_argument("--trials", type=int, help="trials per cell")
    parser.add_argument("--seed", type=int, dest="base_seed",
                        help="base seed for the whole matrix")
    parser.add_argument("--jsd-points", type=int, dest="jsd_points",
                        help="Monte Carlo points per JSD estimate")
    parser.add_argument("--kde-bandwidth", type=float, dest="kde_bandwidth",
                        help="KDE bandwidth for MCMC density estimates")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--out-dir", default="bench_out",
                        help="output directory (default bench_out)")
    parser.add_argument("--format", choices=("csv", "svg", "both"),
                        default="both", help="outputs to write (default both)")
    return parser


SPEC_KEYS = ("methods", "families", "dims", "sample_counts", "trials",
             "base_seed", "jsd_points", "kde_bandwidth")


def spec_from_args(args) -> ExperimentSpec:
    settings = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(SPEC_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(loaded)
    for key in SPEC_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return ExperimentSpec(**settings)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = run_experiments(spec, workers=args.workers)
    os.makedirs(args.out_dir, exist_ok=True)
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
