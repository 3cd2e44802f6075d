"""Benchmark of the tpais library: three workloads, checked outputs, layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {grow,resample,matrix} --seed N \
        --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric with its unit, the environment and the
workload's fingerprint. Times are means per timed pass, and throughput is
the work of all timed passes over their summed time, both in reference
seconds (see speed.py): on a shared host the same pass ran up to 1.7 times
slower from one pass to the next and for minutes at a time. The raw times
are printed too. The exit code is nonzero when any check failed.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_RUNS = 5   # this process plus four fresh interpreters
MIN_ROUNDS = 3
clock = time.perf_counter

# (name, unit, better, gated in BENCHMARK.json)
END_TO_END = (
    ("setup_s", "s", "lower", True),
    ("wall_s", "s", "lower", True),
    ("samples_per_s", "samples/s", "higher", True),
    ("report_s", "s", "lower", True),
    ("target_evals_per_sample", "ratio", "lower", True),
    ("peak_rss_mb", "MiB", "lower", True),
    ("ness", "fraction", "higher", False),
    ("jsd", "nats", "lower", False),
    ("evidence_mse", "(Z-1)^2", "lower", False),
    ("error_rate", "fraction", "lower", False),
)
# Layer metrics listed in BENCHMARK.json: every time here is spent on all
# three workloads, so none reads a constant zero; the rest are printed only.
PER_LAYER_GATED = (
    "tree.expand_calls", "tree.expand_s", "tree.leaves_calls", "tree.leaves_s",
    "tree.leaf_count", "tree.max_level", "sampler.run_tp_ais_s",
    "sampler.self_s", "sampler.target_share", "sampler.leaf_sample_set_s",
    "proposal.density_calls", "proposal.density_pairs", "proposal.density_s",
    "proposal.mixture_weights_calls", "targets.eval_calls",
    "targets.eval_points", "targets.points_per_call", "targets.eval_s",
    "metrics.kde_pairs", "bench.error_rows", "trace.overhead_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grow", "resample", "matrix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time; a warm-up pass and at least "
                             "three timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sample counts, for smoke tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up alone and print it as JSON")
    return parser.parse_args(argv)


def set_up(args):
    """Imports, target construction and a warm-up pass.

    Returns the workloads module, the workload and the seconds taken, raw
    and in reference seconds. The host speed is probed before, during and
    after; the probes' own time is left out.
    """
    probe = speed.Probe()
    probe()
    start = clock()
    import workloads
    sizes = workloads.TINY if args.tiny else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
    warm_up = workloads.measure_pass(
        workloads.WORKLOADS[args.workload](args.seed, workloads.TINY))
    seconds = clock() - start - math.fsum(warm_up.probes)
    probe()
    probe.samples += warm_up.probes
    return workloads, workload, (seconds,
                                 seconds * speed.scale(probe.samples))


def probe_setup(args) -> tuple:
    """Set-up times of a fresh interpreter, so imports are timed again."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return tuple(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def environment() -> str:
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']}-{info['version']}"
    except (TypeError, KeyError):
        pass
    threads = " ".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS)
    return (f"nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))}"
            f" python={platform.python_version()} numpy={np.__version__}"
            f" blas={blas} {threads}")


def run_rounds(workloads, workload, seconds, trace):
    """A warm-up pass, then untraced passes (each followed by a traced one
    under ``trace``) until another round would run past ``seconds``.

    The warm-up pass is checked and gives the reference fingerprint, but its
    times are left out: the first full-size pass pays for growing the heap.
    At least MIN_ROUNDS rounds are timed.
    """
    import layers
    passes, traced, tracers = [], [], []
    start = clock()
    warm_up = workloads.measure_pass(workload)
    timed_from = clock()
    while True:
        gc.collect()
        passes.append(workloads.measure_pass(workload))
        if trace:
            tracer = layers.Tracer()
            gc.collect()
            traced.append(workloads.measure_pass(workload,
                                                 layers.installed(tracer)))
            tracers.append(tracer)
        rounds = len(passes)
        per_round = (clock() - timed_from) / rounds
        if rounds >= MIN_ROUNDS and clock() - start + per_round > seconds:
            return warm_up, passes, traced, tracers


def _finite_mean(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return sum(values) / len(values) if values else math.nan


def timings(passes, setup_times, scale):
    """Time metrics, with times multiplied by ``scale``."""
    sampler_s = math.fsum(p.sampler_s for p in passes) * scale
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(p.wall_s for p in passes) * scale,
        "samples_per_s": (sum(p.samples for p in passes) / sampler_s
                          if sampler_s > 0 else 0.0),
        "report_s": statistics.fmean(p.report_s for p in passes) * scale,
    }


def end_to_end(first, passes, setup_times, error_rate):
    """End-to-end metrics; times in reference seconds.

    ``setup_times`` holds (raw, reference) seconds of each set-up.
    """
    ops = first.ops
    probes = [sample for p in passes for sample in p.probes]
    return {
        **timings(passes, [ref for _, ref in setup_times],
                  speed.scale(probes)),
        "target_evals_per_sample": (first.target_points / first.samples
                                    if first.samples else math.nan),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        "ness": _finite_mean(op.ness for op in ops),
        "jsd": _finite_mean(op.jsd for op in ops),
        "evidence_mse": _finite_mean(op.evidence_mse for op in ops),
        "error_rate": error_rate,
    }


def _row(name, value, unit, note=""):
    shown = "n/a" if isinstance(value, float) and math.isnan(value) else value
    return f"  {name:<32} {shown!s:<24} {unit:<12} {note}".rstrip()


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:   # before numpy is first imported
        os.environ[var] = "1"
    if not (SOURCE / "tpais" / "__init__.py").is_file():
        print("error: src/tpais not found; run from the root of a tpais "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    workloads, workload, parent_setup = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": list(parent_setup)}))
        return 0

    warm_up, passes, traced, tracers = run_rounds(
        workloads, workload, args.seconds, args.trace)
    all_passes = [warm_up] + passes + traced
    problems = [f"{op.label}: {text}" for p in all_passes for op in p.ops
                for text in op.problems]
    mismatches = sum(p.fingerprint != warm_up.fingerprint
                     for p in all_passes[1:])
    if mismatches:
        problems.append(f"{mismatches} passes differ from the first pass's "
                        "fingerprint")
    attempted = sum(len(p.ops) for p in all_passes) + len(all_passes) - 1
    failed = (sum(bool(op.problems) for p in all_passes for op in p.ops)
              + mismatches)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"warm-up pass, {len(passes)} untraced and {len(traced)} traced "
          "passes")
    print(f"env {environment()}")
    shape = " ".join(f"{k}={v}" for k, v in warm_up.counts.items())
    print(f"fingerprint {warm_up.fingerprint} target_points="
          f"{warm_up.target_points} samples={warm_up.samples} {shape}".rstrip())
    if args.trace:
        overhead = (statistics.fmean(p.wall_s for p in traced)
                    - statistics.fmean(p.wall_s for p in passes))
        import layers
        values, children = layers.layer_metrics(tracers, overhead)
        print("per-layer metrics (means over traced passes):")
        for name, (value, unit) in values.items():
            print(_row(name, value, unit))
        parts = " + ".join(f"{name} {sec:.6f}" for name, sec in
                           children.items())
        print(f"sampler.run_tp_ais_s {values['sampler.run_tp_ais_s'][0]:.6f}"
              f" = {parts} + self {values['sampler.self_s'][0]:.6f}")
        reported = {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in PER_LAYER_GATED}
    else:
        setup_times = [parent_setup] + [probe_setup(args)
                                        for _ in range(SETUP_RUNS - 1)]
        values = end_to_end(warm_up, passes, setup_times,
                            failed / attempted)
        walls = [p.wall_s for p in passes]
        probes = [sample for p in passes for sample in p.probes]
        print(f"raw pass wall_s over {len(walls)} untraced passes: median "
              f"{statistics.median(walls):.4f} max {max(walls):.4f}")
        print(f"host speed: reference loop {statistics.fmean(probes):.6f} s "
              f"(mean of {len(probes)} probes), reference "
              f"{speed.REFERENCE_S} s")
        unscaled = timings(passes, [raw for raw, _ in setup_times], 1.0)
        print("unscaled: " + " ".join(f"{name}={value:.6g}"
                                      for name, value in unscaled.items()))
        print("end-to-end metrics (means over untraced passes; setup_s is "
              "a median; times in reference seconds):")
        for name, unit, better, _ in END_TO_END:
            print(_row(name, values[name], unit, f"{better} is better"))
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit, _, gated in END_TO_END if gated}

    for text in sorted(set(problems))[:20]:
        print(f"check failed: {text}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
