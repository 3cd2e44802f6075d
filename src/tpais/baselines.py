"""Baseline samplers: random-walk Metropolis-Hastings and population Monte Carlo."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .proposal import gaussian_kernel_sum
from .sampler import WeightedSampleSet, _eval_target
from .tree import DomainBounds


@dataclass
class MHConfig:
    """Random-walk MH settings.

    ``initial_point=None`` draws uniform points over the domain until one
    has positive target density (bounded retries).
    """

    dims: int
    n_samples: int
    bounds: DomainBounds = None
    proposal_std: float = 0.1
    burn_in: int = 0
    initial_point: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        if self.bounds is None:
            self.bounds = DomainBounds.centered(self.dims)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.proposal_std <= 0.0:
            raise ValueError("proposal_std must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")


def run_mh(target, config: MHConfig):
    """Random-walk Metropolis-Hastings restricted to the domain.

    Proposals falling outside the bounds are rejected outright (the target
    is treated as zero there), which leaves the chain reversible for the
    domain-restricted density.

    Returns
    -------
    (chain, acceptance_rate)
        ``chain`` has shape (n_samples, K) and excludes burn-in states.
    """
    rng = np.random.default_rng(config.seed)
    bounds = config.bounds
    if config.initial_point is not None:
        current = np.asarray(config.initial_point, dtype=float)
        if np.any(current < bounds.lower) or np.any(current > bounds.upper):
            raise ValueError("initial point lies outside the domain")
        f_current = float(_eval_target(target, current[None, :])[0])
        if f_current <= 0.0:
            raise ValueError("initial point has zero target density")
    else:
        for _ in range(1000):
            current = rng.uniform(bounds.lower, bounds.upper)
            f_current = float(_eval_target(target, current[None, :])[0])
            if f_current > 0.0:
                break
        else:
            raise RuntimeError("could not find a starting point with "
                               "positive target density")

    total = config.burn_in + config.n_samples
    chain = np.empty((total, config.dims))
    chain[0] = current
    accepted = 0
    for t in range(1, total):
        prop = current + rng.normal(0.0, config.proposal_std, size=config.dims)
        if np.all(prop >= bounds.lower) and np.all(prop <= bounds.upper):
            f_prop = float(_eval_target(target, prop[None, :])[0])
            if rng.uniform() * f_current < f_prop:
                current = prop
                f_current = f_prop
                accepted += 1
        chain[t] = current
    rate = accepted / max(total - 1, 1)
    return chain[config.burn_in:], rate


@dataclass
class PMCConfig:
    """Population Monte Carlo settings.

    A population of isotropic Gaussian proposals is iterated: draw one
    sample per proposal, importance-weight the draws, then multinomially
    resample the proposal locations from those weights.
    """

    dims: int
    population_size: int
    iterations: int
    bounds: DomainBounds = None
    kernel_std: float = 0.2
    dm_weights: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.bounds is None:
            self.bounds = DomainBounds.centered(self.dims)
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.kernel_std <= 0.0:
            raise ValueError("kernel_std must be positive")


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
                                    lambda k: (k / norm).mean(axis=1))
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
