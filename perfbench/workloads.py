"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Every library function is looked up on its module at call time
(``sampler.run_tp_ais``, ``metrics.jsd``, ``plots.emit_plots``) so that the
layer tracer in ``layers.py`` can wrap it from outside. A pass runs the
whole workload once and returns raw outputs; checks and fingerprints are
computed afterwards, outside the timed section and outside any tracing.
The host speed probe (``speed.py``) runs before every sampler call, report
step and bench cell; its time is left out of every timed section.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tpais import bench, metrics, plots, sampler, targets
from tpais.metrics import LN2
from tpais.proposal import Kernel, TreeProposal
from tpais.sampler import NodeSelection, SamplerConfig, Weighting
from speed import Probe

clock = time.perf_counter
OUT_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Sizes:
    """Sample counts of each workload; ``TINY`` serves warm-up and smoke tests."""

    grow: tuple
    resample: tuple
    matrix_n: int
    jsd_points: int


FULL = Sizes(grow=(8192, 8192, 2048, 4096), resample=(1024, 2048),
             matrix_n=1024, jsd_points=20000)
TINY = Sizes(grow=(64, 64, 64, 64), resample=(32, 64), matrix_n=64,
             jsd_points=500)

# (dims, weighting, node selection); N comes from Sizes.grow.
GROW_CONFIGS = (
    (1, Weighting.STANDARD, NodeSelection.MAX_EVIDENCE),
    (2, Weighting.STANDARD, NodeSelection.MAX_EVIDENCE),
    (2, Weighting.DETERMINISTIC_MIXTURE, NodeSelection.MAX_EVIDENCE),
    (2, Weighting.STANDARD, NodeSelection.MIXTURE_DRAW),
)
RESAMPLE_DIMS = (1, 2)
# Only method ids whose meaning is settled; DM weighting and mixture-draw
# selection run through SamplerConfig in ``grow`` instead.
MATRIX_METHODS = ("tpais-nr", "tpais-gauss", "mh", "pmc-dm")
MATRIX_FAMILIES = ("gmm5", "egg")
MATRIX_DIMS = (1, 2)


@dataclass
class Op:
    """One checked operation: a sampler call or a bench cell."""

    label: str
    problems: list = field(default_factory=list)
    digest: str = ""
    ness: float = math.nan
    jsd: float = math.nan
    evidence_mse: float = math.nan


@dataclass
class Pass:
    """Timings and checked outputs of one pass over a workload."""

    wall_s: float
    sampler_s: float
    report_s: float
    samples: int
    target_points: int
    ops: list
    fingerprint: str
    counts: dict
    probes: list = field(default_factory=list)


def points_in(x) -> int:
    """Number of points in one point of shape (K,) or a batch (n, K)."""
    return np.shape(x)[0] if np.ndim(x) == 2 else 1


class TargetCounter:
    """Counts target points evaluated through ``TargetDensity.__call__``."""

    def __init__(self):
        self.points = 0

    @contextlib.contextmanager
    def installed(self):
        original = vars(targets.TargetDensity)["__call__"]

        def counted(target, x):
            self.points += points_in(x)
            return original(target, x)

        targets.TargetDensity.__call__ = counted
        try:
            yield self
        finally:
            targets.TargetDensity.__call__ = original


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class TreeCall:
    label: str
    target: object
    config: SamplerConfig
    evidence_seed: int = 0
    jsd_seed: int = 0


class TreeWorkload:
    """Shared runner of ``grow`` and ``resample``: a list of run_tp_ais calls,
    each followed by the workload's report step."""

    def __init__(self, calls):
        self.calls = calls

    def run(self, probe):
        outputs = []
        sampler_s = report_s = probe_s = 0.0
        start = clock()
        for call in self.calls:
            probe_s += probe()
            try:
                t0 = clock()
                result = sampler.run_tp_ais(call.target, call.config)
                sampled = clock() - t0
                probe_s += probe()
                t1 = clock()
                quality = self.report(call, result)
                reported = clock() - t1
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                outputs.append((call, None, f"{type(exc).__name__}: {exc}"))
                continue
            sampler_s += sampled
            report_s += reported
            outputs.append((call, result, quality))
        return clock() - start - probe_s, sampler_s, report_s, outputs

    def check(self, raw, target_points) -> Pass:
        wall_s, sampler_s, report_s, outputs = raw
        ops, samples = [], 0
        counts = {"iterations": 0, "leaves": 0, "max_level": 0}
        for call, result, quality in outputs:
            op = Op(call.label)
            ops.append(op)
            if result is None:
                op.problems.append(quality)
                continue
            samples += len(result.sample_set)
            op.ness, op.jsd, op.evidence_mse = quality
            leaves, max_level = check_tree_result(call.config, result, op)
            iterations = (leaves - 1) // (2 ** call.config.dims - 1)
            counts["iterations"] += iterations
            counts["leaves"] += leaves
            counts["max_level"] = max(counts["max_level"], max_level)
            check_quality(op)
            op.digest = _digest(result.sample_set.samples.tobytes(),
                                result.sample_set.weights.tobytes(),
                                iterations, leaves, max_level,
                                repr(quality))
        fingerprint = _digest(target_points, *(op.digest for op in ops))
        return Pass(wall_s, sampler_s, report_s, samples, target_points, ops,
                    fingerprint, counts)


def check_tree_result(config: SamplerConfig, result, op: Op):
    """Output checks of one run_tp_ais call; returns (leaf count, max level)."""
    samples = result.sample_set.samples
    weights = result.sample_set.weights
    leaves = result.tree.leaves()
    n, dims = len(result.sample_set), config.dims
    if config.resample_leaves:
        if n != len(leaves):
            op.problems.append(f"returned {n} samples for {len(leaves)} leaves")
    elif not config.n_samples <= n <= config.n_samples + 2 ** dims - 1:
        op.problems.append(f"returned {n} samples for N={config.n_samples}")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        op.problems.append("weights not finite and non-negative")
    elif not weights.sum() > 0.0:
        op.problems.append("weights sum to zero")
    bounds = config.bounds
    if config.kernel is Kernel.UNIFORM and not (
            np.all(samples >= bounds.lower) and np.all(samples <= bounds.upper)):
        op.problems.append("a sample lies outside the domain")
    volume = math.fsum((2.0 * leaf.radius) ** dims for leaf in leaves)
    if abs(volume - bounds.volume) > 1e-12 * bounds.volume:
        op.problems.append(f"leaf volumes sum to {volume!r}, "
                           f"domain volume is {bounds.volume!r}")
    return len(leaves), max(leaf.level for leaf in leaves)


def check_quality(op: Op) -> None:
    """``ness`` must lie in [0, 1] and ``jsd`` in [0, ln 2] where reported."""
    if not 0.0 <= op.ness <= 1.0:
        op.problems.append(f"ness {op.ness!r} outside [0, 1]")
    if not math.isnan(op.jsd) and not 0.0 <= op.jsd <= LN2:
        op.problems.append(f"jsd {op.jsd!r} outside [0, ln 2]")


def _rng(*parts):
    return np.random.default_rng(bench.derive_seed(*parts))


class Grow(TreeWorkload):
    """run_tp_ais without leaf resampling; reports N-ESS of the final leaves.

    It reports no evidence and no JSD: the mean of the adaptively collected
    weights is not an evidence estimate, and a fresh redraw or a JSD would
    spend most of the pass in the mixture density instead of the sampler.
    """

    def __init__(self, seed: int, sizes: Sizes):
        calls = []
        for i, ((dims, weighting, selection), n) in enumerate(
                zip(GROW_CONFIGS, sizes.grow)):
            target = targets.make_gmm5_target(
                _rng(seed, "grow", "target", i), dims)
            config = SamplerConfig(
                dims=dims, n_samples=n, bounds=target.bounds,
                weighting=weighting, node_selection=selection,
                seed=bench.derive_seed(seed, "grow", "run", i))
            calls.append(TreeCall(f"grow/{dims}d/N={n}/{weighting.value}/"
                                  f"{selection.value}", target, config))
        super().__init__(calls)

    def report(self, call, result):
        config = call.config
        reported = sampler.leaf_sample_set(result.tree, config.kernel,
                                           config.weighting)
        return metrics.ness_is(reported.weights), math.nan, math.nan


class Resample(TreeWorkload):
    """run_tp_ais with leaf resampling; reports from the final tree."""

    def __init__(self, seed: int, sizes: Sizes):
        calls = []
        for i, (dims, n) in enumerate(zip(RESAMPLE_DIMS, sizes.resample)):
            target = targets.make_gmm5_target(
                _rng(seed, "resample", "target", i), dims)
            config = SamplerConfig(
                dims=dims, n_samples=n, bounds=target.bounds,
                resample_leaves=True,
                seed=bench.derive_seed(seed, "resample", "run", i))
            calls.append(TreeCall(
                f"resample/{dims}d/N={n}", target, config,
                bench.derive_seed(seed, "resample", "evidence", i),
                bench.derive_seed(seed, "resample", "jsd", i)))
        super().__init__(calls)
        self.jsd_points = sizes.jsd_points

    def report(self, call, result):
        kernel, tree = call.config.kernel, result.tree
        reported = sampler.leaf_sample_set(tree, kernel, call.config.weighting)
        evidence = sampler.evidence_from_tree(
            call.target, tree, kernel, np.random.default_rng(call.evidence_seed))
        divergence = metrics.jsd(
            call.target, TreeProposal(tree, kernel).density, call.target.bounds,
            self.jsd_points, np.random.default_rng(call.jsd_seed))
        return (metrics.ness_is(reported.weights), divergence,
                (evidence - 1.0) ** 2)


class Matrix:
    """The ``tpais-bench`` path in-process: run_experiments, then emit_csv
    and emit_plots into a temporary directory."""

    def __init__(self, seed: int, sizes: Sizes):
        self.spec = bench.ExperimentSpec(
            methods=MATRIX_METHODS, families=MATRIX_FAMILIES, dims=MATRIX_DIMS,
            sample_counts=(sizes.matrix_n,), trials=1, base_seed=seed,
            jsd_points=sizes.jsd_points)

    def run(self, probe):
        probe_s = 0.0
        run_single = bench.run_single

        def probed(*args, **kwargs):
            nonlocal probe_s
            probe_s += probe()
            return run_single(*args, **kwargs)

        start = clock()
        bench.run_single = probed
        try:
            rows = bench.run_experiments(self.spec, workers=1)
        finally:
            bench.run_single = run_single
        cells_done = clock() - probe_s
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as out:
            csv_path = os.path.join(out, "results.csv")
            bench.emit_csv(rows, csv_path)
            svgs = plots.emit_plots(rows, out, self.spec)
            end = clock()
            with open(csv_path, encoding="utf-8") as fh:
                csv_lines = fh.read().splitlines()
            svg_count = sum(os.path.getsize(path) > 0 for path in svgs)
        return (end - probe_s - start, cells_done - start, rows, csv_lines,
                svg_count)

    def check(self, raw, target_points) -> Pass:
        wall_s, cells_s, rows, csv_lines, svg_count = raw
        sampler_s = math.fsum(row.wall_time_seconds for row in rows
                              if math.isfinite(row.wall_time_seconds))
        ops = []
        for row, line in zip(rows, csv_lines[1:]):
            op = Op(f"matrix/{row.method}/{row.family}/{row.dims}d/N={row.n}",
                    ness=row.ness, jsd=row.jsd, evidence_mse=row.evidence_mse)
            ops.append(op)
            if row.error is not None:
                op.problems.append(f"error row: {row.error}")
                continue
            check_quality(op)
            if row.method != "mh" and not row.evidence_mse >= 0.0:
                op.problems.append(f"evidence_mse {row.evidence_mse!r}")
            # every CSV column except the trailing wall_time_seconds
            op.digest = _digest(line.rsplit(",", 1)[0])
        spec = self.spec
        expected_rows = (len(spec.methods) * len(spec.families)
                         * len(spec.dims) * len(spec.sample_counts))
        expected_svgs = (len(plots.PLOT_METRICS) * len(spec.families)
                         * len(spec.dims))
        if len(rows) != expected_rows or len(csv_lines) != expected_rows + 1:
            ops.append(Op("matrix/rows", [f"{len(rows)} rows and "
                                          f"{len(csv_lines)} CSV lines for "
                                          f"{expected_rows} cells"]))
        if svg_count != expected_svgs:
            ops.append(Op("matrix/plots", [f"{svg_count} plots, expected "
                                           f"{expected_svgs}"]))
        fingerprint = _digest(target_points, *(op.digest for op in ops))
        samples = sum(row.n for row in rows)
        return Pass(wall_s, sampler_s, cells_s - sampler_s, samples,
                    target_points, ops, fingerprint, {})


WORKLOADS = {"grow": Grow, "resample": Resample, "matrix": Matrix}


def measure_pass(workload, tracing=contextlib.nullcontext()) -> Pass:
    """Run one pass with target points counted and the host speed probed,
    then check its outputs."""
    counter, probe = TargetCounter(), Probe()
    with counter.installed(), tracing:
        raw = workload.run(probe)
    checked = workload.check(raw, counter.points)
    checked.probes = probe.samples
    return checked
