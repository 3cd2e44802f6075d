"""Baseline samplers: random-walk Metropolis-Hastings and population Monte Carlo."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .proposal import gaussian_kernel_sum
from .sampler import WeightedSampleSet
from .tree import (DomainBounds, _count, _domain, _eval_target, _member,
                   _scale)


@dataclass
class MHConfig:
    """Random-walk MH settings, validated as :class:`SamplerConfig` is.

    ``dims``, ``n_samples`` and ``seed`` (which may be 0) are whole
    numbers, ``proposal_std`` is positive and finite, and ``bounds``
    defaults to ``[-1, 1]**dims``; each bad setting raises a ``ValueError``
    naming its key.
    """

    dims: int
    n_samples: int
    bounds: DomainBounds = None
    proposal_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        self.dims = _count("dims", self.dims)
        self.bounds = _domain(self.dims, self.bounds)
        self.n_samples = _count("n_samples", self.n_samples)
        self.proposal_std = _scale("proposal_std", self.proposal_std)
        self.seed = _count("seed", self.seed, least=0)


def run_mh(target, config: MHConfig):
    """Random-walk Metropolis-Hastings restricted to the domain.

    Proposals falling outside the bounds are rejected outright (the target
    is treated as zero there), which leaves the chain reversible for the
    domain-restricted density. The chain starts at the first of up to 1000
    uniform draws over the domain with positive target density; if no draw
    has one, a ``RuntimeError`` is raised.

    Returns
    -------
    (chain, acceptance_rate)
        ``chain`` has shape (n_samples, K); its first state is the start.
    """
    rng = np.random.default_rng(config.seed)
    for _ in range(1000):
        current = rng.uniform(config.bounds.lower, config.bounds.upper)
        f_current = float(_eval_target(target, current[None, :])[0])
        if f_current > 0.0:
            break
    else:
        raise RuntimeError("could not find a starting point with positive "
                           "target density")

    chain = np.empty((config.n_samples, config.dims))
    chain[0] = current
    accepted = 0
    for t in range(1, config.n_samples):
        prop = current + rng.normal(0.0, config.proposal_std, size=config.dims)
        if config.bounds.contains(prop):
            f_prop = float(_eval_target(target, prop[None, :])[0])
            if rng.uniform() * f_current < f_prop:
                current, f_current = prop, f_prop
                accepted += 1
        chain[t] = current
    return chain, accepted / max(config.n_samples - 1, 1)


@dataclass
class PMCConfig:
    """Population Monte Carlo settings.

    A population of isotropic Gaussian proposals is iterated: draw one
    sample per proposal, importance-weight the draws, then multinomially
    resample the proposal locations from those weights.

    Settings are validated as :class:`SamplerConfig`'s are: ``dims``,
    ``population_size`` and ``iterations`` are whole numbers >= 1, ``seed``
    is one >= 0, ``kernel_std`` is positive and finite, ``dm_weights`` is a
    bool, and ``bounds`` defaults to ``[-1, 1]**dims``; each bad setting
    raises a ``ValueError`` naming its key.
    """

    dims: int
    population_size: int
    iterations: int
    bounds: DomainBounds = None
    kernel_std: float = 0.2
    dm_weights: bool = False
    seed: int = 0

    def __post_init__(self):
        self.dims = _count("dims", self.dims)
        self.bounds = _domain(self.dims, self.bounds)
        self.population_size = _count("population_size", self.population_size)
        self.iterations = _count("iterations", self.iterations)
        self.kernel_std = _scale("kernel_std", self.kernel_std)
        self.dm_weights = _member("dm_weights", self.dm_weights, bool)
        self.seed = _count("seed", self.seed, least=0)


def run_pmc(target, config: PMCConfig):
    """Run population Monte Carlo.

    Standard weighting divides each sample's target density by its own
    proposal's density; deterministic-mixture weighting divides by the
    population mixture density instead.

    Returns
    -------
    (sample_set, locations)
        All draws across iterations as a :class:`WeightedSampleSet`, plus
        the final proposal locations of shape (population_size, K).

    Raises
    ------
    RuntimeError
        On population collapse (an iteration where every weight is zero).
    """
    rng = np.random.default_rng(config.seed)
    pop = config.population_size
    locs = rng.uniform(config.bounds.lower, config.bounds.upper,
                       size=(pop, config.dims))
    norm = (config.kernel_std * math.sqrt(2.0 * math.pi)) ** config.dims
    all_samples = []
    all_weights = []
    for _ in range(config.iterations):
        samples = locs + rng.normal(0.0, config.kernel_std,
                                    size=(pop, config.dims))
        values = _eval_target(target, samples)
        if config.dm_weights:
            q = gaussian_kernel_sum(samples, locs, config.kernel_std,
                                    1.0 / (norm * pop))
        else:
            z2 = np.sum(((samples - locs) / config.kernel_std) ** 2, axis=1)
            q = np.exp(-0.5 * z2) / norm
        weights = values / q
        total = weights.sum()
        if total <= 0.0:
            raise RuntimeError("population collapse: every importance weight "
                               "is zero")
        all_samples.append(samples)
        all_weights.append(weights)
        locs = samples[rng.choice(pop, size=pop, p=weights / total)]
    return (WeightedSampleSet(np.concatenate(all_samples),
                              np.concatenate(all_weights)), locs)
