"""Outside-in layer tracing.

``installed(tracer)`` replaces the public functions of each layer with
timing wrappers and restores the originals on exit. A name is wrapped in
the module where its caller looks it up: ``tpais.bench`` binds
``run_tp_ais``, ``jsd`` and the baselines by import, and ``KDEModel``
calls ``tpais.metrics.kde_density``, so those module attributes are the
ones replaced. Each wrapper records calls and inclusive seconds; time spent
directly under ``run_tp_ais`` is also kept per child, so the sampler's own
time (selection, leaf draws, per-leaf writes) is the remainder.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

from tpais import bench, metrics, plots, proposal, sampler, targets, tree
from workloads import points_in

clock = time.perf_counter
_leaves = tree.TreePyramid.leaves  # untraced, for counting outside spans
SAMPLER = "sampler.run_tp_ais"


def _density_pairs(counts, args, result):
    self, x = args[:2]
    counts["proposal.density_pairs"] += points_in(x) * len(_leaves(self.tree))


def _target_points(counts, args, result):
    counts["targets.eval_points"] += points_in(args[1])


def _kde_pairs(counts, args, result):
    model, x = args[:2]
    counts["metrics.kde_pairs"] += points_in(x) * model.points.shape[0]


def _tree_shape(counts, args, result):
    leaves = _leaves(result.tree)
    counts["tree.leaf_count"] += len(leaves)
    counts["tree.max_level"] = max(counts["tree.max_level"],
                                   max(leaf.level for leaf in leaves))


def _error_rows(counts, args, result):
    counts["bench.error_rows"] += result.error is not None


# (span name, owner looked up by the caller, attribute, count hook)
HOOKS = (
    ("tree.expand", tree.TreePyramid, "expand", None),
    ("tree.leaves", tree.TreePyramid, "leaves", None),
    ("proposal.density", proposal.TreeProposal, "density", _density_pairs),
    ("proposal.mixture_weights", sampler, "mixture_weights", None),
    ("targets.eval", targets.TargetDensity, "__call__", _target_points),
    (SAMPLER, sampler, "run_tp_ais", _tree_shape),
    (SAMPLER, bench, "run_tp_ais", _tree_shape),
    ("sampler.leaf_sample_set", sampler, "leaf_sample_set", None),
    ("sampler.leaf_sample_set", bench, "leaf_sample_set", None),
    ("sampler.evidence_from_tree", sampler, "evidence_from_tree", None),
    ("sampler.evidence_from_tree", bench, "evidence_from_tree", None),
    ("metrics.jsd", metrics, "jsd", None),
    ("metrics.jsd", bench, "jsd", None),
    ("metrics.kde_density", metrics, "kde_density", _kde_pairs),
    ("metrics.ess_mcmc", bench, "ess_mcmc", None),
    ("baselines.run_mh", bench, "run_mh", None),
    ("baselines.run_pmc", bench, "run_pmc", None),
    ("bench.run_single", bench, "run_single", _error_rows),
    ("plots.emit_plots", plots, "emit_plots", None),
)


class Tracer:
    """Span totals of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = Counter()
        self.sampler_children = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._stack.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.durations[name].append(elapsed)
                if self._stack and self._stack[-1] == SAMPLER:
                    self.sampler_children[name] += elapsed
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every hook for the duration of the block."""
    saved = []
    try:
        for name, owner, attr, count in HOOKS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def layer_metrics(tracers, overhead_s: float):
    """Per-layer metrics from one or more traced passes.

    Times are means over the passes, so that the sampler's children plus
    ``sampler.self_s`` still add up to ``sampler.run_tp_ais_s``; counts
    are those of the first pass (they repeat exactly). Returns
    ``(metrics, sampler_children)`` with each metric a ``(value, unit)``.
    """
    first = tracers[0]

    def seconds(name):
        return _mean(t.seconds[name] for t in tracers)

    children = {name: _mean(t.sampler_children[name] for t in tracers)
                for name in sorted({n for t in tracers
                                    for n in t.sampler_children})}
    run_s = seconds(SAMPLER)
    cells = [d for t in tracers for d in t.durations["bench.run_single"]]
    eval_calls = first.calls["targets.eval"]
    out = {
        "tree.expand_calls": (first.calls["tree.expand"], "count"),
        "tree.expand_s": (seconds("tree.expand"), "s"),
        "tree.leaves_calls": (first.calls["tree.leaves"], "count"),
        "tree.leaves_s": (seconds("tree.leaves"), "s"),
        "tree.leaf_count": (first.counts["tree.leaf_count"], "count"),
        "tree.max_level": (first.counts["tree.max_level"], "count"),
        "sampler.run_tp_ais_s": (run_s, "s"),
        "sampler.self_s": (run_s - sum(children.values()), "s"),
        "sampler.target_share": (
            children.get("targets.eval", 0.0) / run_s if run_s else 0.0,
            "fraction"),
        "sampler.leaf_sample_set_s": (seconds("sampler.leaf_sample_set"), "s"),
        "sampler.evidence_from_tree_s": (
            seconds("sampler.evidence_from_tree"), "s"),
        "proposal.density_calls": (first.calls["proposal.density"], "count"),
        "proposal.density_pairs": (first.counts["proposal.density_pairs"],
                                   "count"),
        "proposal.density_s": (seconds("proposal.density"), "s"),
        "proposal.mixture_weights_calls": (
            first.calls["proposal.mixture_weights"], "count"),
        "proposal.mixture_weights_s": (
            seconds("proposal.mixture_weights"), "s"),
        "targets.eval_calls": (eval_calls, "count"),
        "targets.eval_points": (first.counts["targets.eval_points"], "count"),
        "targets.points_per_call": (
            first.counts["targets.eval_points"] / eval_calls
            if eval_calls else 0.0, "points/call"),
        "targets.eval_s": (seconds("targets.eval"), "s"),
        "metrics.jsd_s": (seconds("metrics.jsd"), "s"),
        "metrics.kde_density_s": (seconds("metrics.kde_density"), "s"),
        "metrics.kde_pairs": (first.counts["metrics.kde_pairs"], "count"),
        "metrics.ess_mcmc_s": (seconds("metrics.ess_mcmc"), "s"),
        "baselines.run_mh_s": (seconds("baselines.run_mh"), "s"),
        "baselines.run_pmc_s": (seconds("baselines.run_pmc"), "s"),
        "bench.run_single_s": (statistics.median(cells) if cells else 0.0,
                               "s"),
        "bench.run_single_max_s": (max(cells, default=0.0), "s"),
        "bench.error_rows": (first.counts["bench.error_rows"], "count"),
        "plots.emit_plots_s": (seconds("plots.emit_plots"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return out, children
