"""Benchmark harness: run sampler/baseline matrices and collect metrics.

Every run is keyed by (method, family, dims, N, trial). Seeds are derived
by hashing the experiment base seed with the run coordinates, so results
are reproducible run to run and independent of execution order; the same
trial always sees the same target across methods and sample counts.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .baselines import MHConfig, PMCConfig, run_mh, run_pmc
from .metrics import LN2, ess_mcmc, evidence_estimate, jsd, kde_fit, ness_is
from .proposal import Kernel, TreeProposal
from .sampler import (NodeSelection, SamplerConfig, evidence_from_tree,
                      leaf_sample_set, run_tp_ais)
from .targets import (GaussianMixture, make_egg_target, make_gmm5_target,
                      make_normal_target)

DEFAULT_SAMPLE_COUNTS = (16, 32, 64, 128, 256, 512, 1024)
CSV_COLUMNS = ("method", "family", "dims", "N", "trial", "seed", "ness",
               "jsd", "evidence_mse", "wall_time_seconds")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of a benchmark matrix."""

    methods: tuple = ("tpais", "mh", "pmc-dm")
    families: tuple = ("normal", "gmm5", "egg")
    dims: tuple = (1, 2, 3)
    sample_counts: tuple = DEFAULT_SAMPLE_COUNTS
    trials: int = 20
    base_seed: int = 0
    jsd_points: int = 20000
    kde_bandwidth: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "sample_counts",
                           tuple(int(n) for n in self.sample_counts))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "jsd_points", int(self.jsd_points))
        object.__setattr__(self, "kde_bandwidth", float(self.kde_bandwidth))
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}; "
                             f"available: {sorted(METHODS)}")
        unknown = [f for f in self.families if f not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown families: {unknown}; "
                             f"available: {sorted(FAMILIES)}")
        if self.trials < 1 or self.jsd_points < 1:
            raise ValueError("trials and jsd_points must be >= 1")
        if any(n < 1 for n in self.sample_counts) or any(
                d < 1 for d in self.dims):
            raise ValueError("sample counts and dims must be >= 1")
        if not 0.0 < self.kde_bandwidth < math.inf:
            raise ValueError("kde_bandwidth must be positive and finite")


@dataclass
class ResultRow:
    """One benchmark run; ``error`` is set when the run failed."""

    method: str
    family: str
    dims: int
    n: int
    trial: int
    seed: int
    ness: float = math.nan
    jsd: float = math.nan
    evidence_mse: float = math.nan
    wall_time_seconds: float = math.nan
    error: str = field(default=None)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of labels (order-sensitive)."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _make_family_target(family: str, dims: int, rng: np.random.Generator):
    if family == "normal":
        return make_normal_target(rng, dims)
    if family == "gmm5":
        return make_gmm5_target(rng, dims)
    if family == "egg":
        return make_egg_target(dims)
    raise ValueError(f"unknown family {family!r}")


FAMILIES = ("normal", "gmm5", "egg")


# --- method adapters --------------------------------------------------------
#
# Each method maps to (sample, report): ``sample`` does the timed sampling
# work, ``report`` turns its state into (ness, evidence, proposal_density).
# ``proposal_density`` is the adapted density used for JSD against the
# target: the leaf mixture for tree samplers, the final population mixture
# for PMC, and a KDE of the chain for MH. Tree samplers report N-ESS from
# the final per-leaf sample set and evidence from a fresh redraw of the
# leaves (see ``evidence_from_tree``), which keeps the estimate unbiased.


def _tpais_method(kernel, selection, resample):
    def sample(target, dims, n, seed, spec):
        config = SamplerConfig(dims=dims, n_samples=n, bounds=target.bounds,
                               kernel=kernel, node_selection=selection,
                               resample_leaves=resample, seed=seed)
        return run_tp_ais(target, config)

    def report(state, target, spec):
        reported = leaf_sample_set(state.tree, kernel)
        evidence_rng = np.random.default_rng(
            derive_seed(state.config.seed, "evidence"))
        evidence = evidence_from_tree(target, state.tree, kernel, evidence_rng)
        proposal = TreeProposal(state.tree, kernel)
        return ness_is(reported.weights), evidence, proposal.density

    return sample, report


def _mh_sample(target, dims, n, seed, spec):
    config = MHConfig(dims=dims, n_samples=n, bounds=target.bounds, seed=seed)
    return run_mh(target, config)


def _mh_report(state, target, spec):
    chain, _rate = state
    ness = ess_mcmc(chain) / chain.shape[0]
    density = kde_fit(chain, spec.kde_bandwidth).density
    return ness, math.nan, density


PMC_KERNEL_STD = 0.2
PMC_MAX_POPULATION = 64


def _pmc_method(dm_weights):
    def sample(target, dims, n, seed, spec):
        pop = min(PMC_MAX_POPULATION, n)
        config = PMCConfig(dims=dims, population_size=pop,
                           iterations=math.ceil(n / pop),
                           bounds=target.bounds, kernel_std=PMC_KERNEL_STD,
                           dm_weights=dm_weights, seed=seed)
        return run_pmc(target, config)

    def report(state, target, spec):
        sample_set, locations = state
        pop = locations.shape[0]
        mixture = GaussianMixture(locations,
                                  np.full_like(locations, PMC_KERNEL_STD ** 2),
                                  np.full(pop, 1.0 / pop))
        return (ness_is(sample_set.weights),
                evidence_estimate(sample_set.weights), mixture.density)

    return sample, report


METHODS = {
    "tpais": _tpais_method(Kernel.UNIFORM, NodeSelection.MAX_EVIDENCE,
                           resample=True),
    "tpais-nr": _tpais_method(Kernel.UNIFORM, NodeSelection.MAX_EVIDENCE,
                              resample=False),
    "tpais-mix": _tpais_method(Kernel.UNIFORM, NodeSelection.MIXTURE_DRAW,
                               resample=False),
    "tpais-gauss": _tpais_method(Kernel.GAUSSIAN, NodeSelection.MAX_EVIDENCE,
                                 resample=False),
    "mh": (_mh_sample, _mh_report),
    "pmc": _pmc_method(dm_weights=False),
    "pmc-dm": _pmc_method(dm_weights=True),
}


def run_single(spec: ExperimentSpec, method: str, family: str, dims: int,
               n: int, trial: int, clock=time.perf_counter) -> ResultRow:
    """Execute one benchmark run; failures become error rows, not raises."""
    run_seed = derive_seed(spec.base_seed, "run", method, family, dims, n, trial)
    row = ResultRow(method, family, dims, n, trial, run_seed)
    try:
        target_rng = np.random.default_rng(
            derive_seed(spec.base_seed, "target", family, dims, trial))
        target = _make_family_target(family, dims, target_rng)
        sample, report = METHODS[method]
        start = clock()
        state = sample(target, dims, n, run_seed, spec)
        row.wall_time_seconds = clock() - start
        ness, evidence, density = report(state, target, spec)
        metrics_rng = np.random.default_rng(
            derive_seed(spec.base_seed, "metrics", family, dims, n, trial))
        divergence = jsd(target, density, target.bounds, spec.jsd_points,
                         metrics_rng)
        row.ness = ness
        row.jsd = min(max(divergence, 0.0), LN2)
        row.evidence_mse = ((evidence - 1.0) ** 2
                            if not math.isnan(evidence) else math.nan)
    except Exception as exc:  # noqa: BLE001 - error rows must not abort runs
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def _task_list(spec: ExperimentSpec):
    return [(method, family, dims, n, trial)
            for family in spec.families
            for dims in spec.dims
            for n in spec.sample_counts
            for trial in range(spec.trials)
            for method in spec.methods]


def _run_task(args):
    spec, task = args
    return run_single(spec, *task)


def run_experiments(spec: ExperimentSpec, clock=time.perf_counter,
                    workers: int = 1) -> list:
    """Run the full matrix and return rows in deterministic order.

    ``workers > 1`` distributes runs across processes; the injected clock
    only applies to the sequential path.
    """
    tasks = _task_list(spec)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_task, [(spec, t) for t in tasks],
                                 chunksize=4))
    else:
        rows = [run_single(spec, *task, clock=clock) for task in tasks]
    rows.sort(key=lambda r: (r.method, r.family, r.dims, r.n, r.trial))
    return rows


def _fmt(value) -> str:
    return repr(float(value))


def emit_csv(rows, path) -> None:
    """Write rows as CSV with a fixed column order and repr-exact floats."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join([
            row.method, row.family, str(row.dims), str(row.n), str(row.trial),
            str(row.seed), _fmt(row.ness), _fmt(row.jsd),
            _fmt(row.evidence_mse), _fmt(row.wall_time_seconds),
        ]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
