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
from dataclasses import astuple, dataclass, field

import numpy as np

from .baselines import MHConfig, PMCConfig, run_mh, run_pmc
from .metrics import (LN2, KDEModel, ess_mcmc, evidence_estimate,
                      evidence_mse, jsd, ness_is)
from .proposal import Kernel, TreeProposal
from .sampler import (NodeSelection, SamplerConfig, evidence_from_tree,
                      leaf_sample_set, run_tp_ais)
from .targets import (GaussianMixture, make_egg_target, make_gmm5_target,
                      make_normal_target)
from .tree import _count

DEFAULT_SAMPLE_COUNTS = (16, 32, 64, 128, 256, 512, 1024)
CSV_COLUMNS = ("method", "family", "dims", "N", "trial", "seed", "ness",
               "jsd", "evidence_mse", "wall_time_seconds")


def _items(key: str, value) -> tuple:
    """A list or tuple, or a comma-separated string as on the command line,
    as a tuple; a ``ValueError`` naming ``key`` for anything else."""
    if isinstance(value, str):
        value = [item.strip() for item in value.split(",") if item.strip()]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list or a comma-separated "
                         f"string, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of a benchmark matrix; the one parser of settings."""

    methods: tuple = ("tpais", "mh", "pmc-dm")
    families: tuple = ("normal", "gmm5", "egg")
    dims: tuple = (1, 2, 3)
    sample_counts: tuple = DEFAULT_SAMPLE_COUNTS
    trials: int = 20
    base_seed: int = 0
    jsd_points: int = 20000

    def __post_init__(self):
        for key in ("methods", "families", "dims", "sample_counts"):
            items = _items(key, getattr(self, key))
            if not items:
                raise ValueError(f"{key} must not be empty")
            if key in ("dims", "sample_counts"):
                items = tuple(_count(key, n) for n in items)
            repeated = [x for i, x in enumerate(items) if x in items[:i]]
            if repeated:
                raise ValueError(f"{key} lists {repeated[0]!r} more than once")
            object.__setattr__(self, key, items)
        for key, low in ("trials", 1), ("jsd_points", 1), ("base_seed", None):
            object.__setattr__(self, key, _count(key, getattr(self, key), low))
        for key, table in (("methods", METHODS), ("families", FAMILIES)):
            available = sorted(table)
            unknown = [n for n in getattr(self, key) if n not in available]
            if unknown:
                raise ValueError(f"unknown {key}: {unknown}; "
                                 f"available: {available}")


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

    def __eq__(self, other):
        """Field by field, with a NaN equal to a NaN: two runs that
        computed no value compare equal, whichever NaN objects they hold."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a == b or (isinstance(a, float) and isinstance(b, float)
                              and math.isnan(a) and math.isnan(b))
                   for a, b in zip(astuple(self), astuple(other)))


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of labels (order-sensitive)."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# family name -> target(rng, dims); the rng draws the target's parameters
FAMILIES = {
    "normal": make_normal_target,
    "gmm5": make_gmm5_target,
    "egg": lambda rng, dims: make_egg_target(dims),
}


# --- method adapters --------------------------------------------------------
#
# Each method maps to (sample, report): ``sample(target, dims, n, seed)``
# does the timed sampling work, ``report(state, target)`` turns its state
# into (ness, evidence, proposal_density).
# ``proposal_density`` is the adapted density used for JSD against the
# target: the leaf mixture for tree samplers, the final population mixture
# for PMC, and a KDE of the chain for MH. Tree samplers report N-ESS from
# the final per-leaf sample set and evidence from a fresh redraw of the
# leaves (see ``evidence_from_tree``), which keeps the estimate unbiased.


def _tpais_method(kernel, selection, resample):
    def sample(target, dims, n, seed):
        config = SamplerConfig(dims=dims, n_samples=n, bounds=target.bounds,
                               kernel=kernel, node_selection=selection,
                               resample_leaves=resample, seed=seed)
        return run_tp_ais(target, config)

    def report(state, target):
        reported = leaf_sample_set(state.tree, kernel)
        evidence_rng = np.random.default_rng(
            derive_seed(state.config.seed, "evidence"))
        evidence = evidence_from_tree(target, state.tree, kernel, evidence_rng)
        proposal = TreeProposal(state.tree, kernel)
        return ness_is(reported.weights), evidence, proposal.density

    return sample, report


# the baselines' settings, the same in every run; MH's step is the
# ``MHConfig`` default
KDE_BANDWIDTH = 0.05
PMC_KERNEL_STD = 0.2
PMC_MAX_POPULATION = 64


def _mh_sample(target, dims, n, seed):
    config = MHConfig(dims=dims, n_samples=n, bounds=target.bounds, seed=seed)
    return run_mh(target, config)


def _mh_report(state, target):
    chain, _rate = state
    ness = ess_mcmc(chain) / chain.shape[0]
    density = KDEModel(chain, KDE_BANDWIDTH).density
    return ness, math.nan, density


def _pmc_method(dm_weights):
    def sample(target, dims, n, seed):
        pop = min(PMC_MAX_POPULATION, n)
        config = PMCConfig(dims=dims, population_size=pop,
                           iterations=math.ceil(n / pop),
                           bounds=target.bounds, kernel_std=PMC_KERNEL_STD,
                           dm_weights=dm_weights, seed=seed)
        return run_pmc(target, config)

    def report(state, target):
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
        target = FAMILIES[family](target_rng, dims)
        sample, report = METHODS[method]
        start = clock()
        state = sample(target, dims, n, run_seed)
        row.wall_time_seconds = clock() - start
        ness, evidence, density = report(state, target)
        metrics_rng = np.random.default_rng(
            derive_seed(spec.base_seed, "metrics", family, dims, n, trial))
        divergence = jsd(target, density, target.bounds, spec.jsd_points,
                         metrics_rng)
        row.ness = ness
        row.jsd = min(divergence, LN2)
        row.evidence_mse = evidence_mse(evidence)
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
        # chunks of up to 4 runs, but at least one chunk per worker
        chunksize = max(1, min(4, len(tasks) // workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_task, [(spec, t) for t in tasks],
                                 chunksize=chunksize))
    else:
        rows = [run_single(spec, *task, clock=clock) for task in tasks]
    rows.sort(key=lambda r: (r.method, r.family, r.dims, r.n, r.trial))
    return rows


def emit_csv(rows, path) -> None:
    """Write rows as CSV: the first ``len(CSV_COLUMNS)`` fields of each
    ``ResultRow`` in order, floats repr-exact."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            repr(float(v)) if isinstance(v, float) else str(v)
            for v in astuple(row)[:len(CSV_COLUMNS)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
