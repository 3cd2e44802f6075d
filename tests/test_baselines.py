"""Baseline sampler tests: Metropolis-Hastings and population Monte Carlo."""

import math

import numpy as np
import pytest

from conftest import NOT_BOUNDS
from tpais.baselines import MHConfig, PMCConfig, run_mh, run_pmc
from tpais.bench import derive_seed
from tpais.metrics import ess_mcmc, ness_is
from tpais.targets import GaussianMixture, make_gmm5_target
from tpais.tree import DomainBounds


def flat_target(x):
    return np.full(np.atleast_2d(x).shape[0], 0.5)


def test_mh_chain_shape_and_bounds():
    target = make_gmm5_target(np.random.default_rng(3), 2)
    chain, rate = run_mh(target, MHConfig(dims=2, n_samples=2000, seed=1,
                                          proposal_std=0.5))
    assert chain.shape == (2000, 2)
    assert np.all(chain >= -1.0) and np.all(chain <= 1.0)
    assert 0.0 <= rate <= 1.0


def test_mh_tiny_steps_always_accepted():
    cfg = MHConfig(dims=1, n_samples=2000, proposal_std=1e-6, seed=2,
                   initial_point=np.array([0.0]))
    chain, rate = run_mh(flat_target, cfg)
    assert rate == 1.0
    assert np.all(np.abs(chain) < 1e-3)  # the chain barely moves


def test_mh_burn_in_is_a_prefix_cut():
    target = make_gmm5_target(np.random.default_rng(4), 1)
    full, _ = run_mh(target, MHConfig(dims=1, n_samples=600, seed=9))
    cut, _ = run_mh(target, MHConfig(dims=1, n_samples=500, burn_in=100,
                                     seed=9))
    np.testing.assert_array_equal(cut, full[100:])


def test_mh_chain_mean_within_ess_bound():
    model = GaussianMixture([[0.3]], [[0.05 ** 2]], [1.0])
    chain, _ = run_mh(model.density, MHConfig(dims=1, n_samples=10_000,
                                              seed=42))
    ess = ess_mcmc(chain)
    assert abs(chain.mean() - 0.3) < 3.0 * 0.05 / math.sqrt(ess)


def test_mh_initial_point_validation():
    target = lambda x: np.where(np.abs(np.atleast_2d(x)[:, 0]) < 0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        run_mh(target, MHConfig(dims=1, n_samples=10,
                                initial_point=np.array([0.5])))
    with pytest.raises(ValueError):
        run_mh(flat_target, MHConfig(dims=1, n_samples=10,
                                     initial_point=np.array([2.0])))
    zero = lambda x: np.zeros(np.atleast_2d(x).shape[0])
    with pytest.raises(RuntimeError):
        run_mh(zero, MHConfig(dims=1, n_samples=10, seed=3))
    # the point is parsed with the config: dims finite coordinates in bounds
    for bad in ([0.0], [[0.0, 0.0]], [0.0, math.nan], [2.0, 0.0]):
        with pytest.raises(ValueError, match="initial_point"):
            MHConfig(dims=2, n_samples=10, initial_point=np.array(bad))
    config = MHConfig(dims=2, n_samples=10, initial_point=[0, 0.5])
    assert config.initial_point.dtype == float
    np.testing.assert_array_equal(config.initial_point, [0.0, 0.5])


def test_mh_auto_start_finds_needle():
    model = GaussianMixture([[0.7]], [[0.001]], [1.0])
    chain, _ = run_mh(model.density, MHConfig(dims=1, n_samples=500, seed=8))
    assert chain.shape == (500, 1)


def test_mh_detailed_balance_flows():
    # bin the domain into 5 states; stationarity makes bin-to-bin flows
    # symmetric, so each pair's net count stays within sampling noise
    model = GaussianMixture([[-0.4], [0.5]], [[0.04], [0.02]], [0.5, 0.5])
    chain, _ = run_mh(model.density, MHConfig(dims=1, n_samples=1_000_000,
                                              proposal_std=0.5, seed=7))
    bins = np.clip(((chain[:, 0] + 1.0) / 0.4).astype(int), 0, 4)
    counts = np.zeros((5, 5))
    np.add.at(counts, (bins[:-1], bins[1:]), 1.0)
    for i in range(5):
        for j in range(i + 1, 5):
            total = counts[i, j] + counts[j, i]
            if total > 0:
                z = abs(counts[i, j] - counts[j, i]) / math.sqrt(total)
                assert z < 5.0


def test_mh_config_validation():
    with pytest.raises(ValueError):
        MHConfig(dims=1, n_samples=0)
    with pytest.raises(ValueError):
        MHConfig(dims=1, n_samples=10, proposal_std=0.0)
    with pytest.raises(ValueError):
        MHConfig(dims=1, n_samples=10, burn_in=-1)
    # counts are whole numbers, booleans are not counts, and a scale is
    # positive and finite: the rules SamplerConfig keeps
    for key, bad in (("n_samples", True), ("n_samples", 2.5),
                     ("n_samples", math.nan), ("n_samples", math.inf),
                     ("burn_in", 0.5), ("burn_in", True), ("dims", True),
                     ("proposal_std", math.nan), ("proposal_std", math.inf),
                     ("proposal_std", True)):
        with pytest.raises(ValueError, match=key):
            MHConfig(**{"dims": 1, "n_samples": 10, key: bad})
    with pytest.raises(ValueError, match="bounds"):
        MHConfig(dims=2, n_samples=10, bounds=DomainBounds.centered(1))
    for bad in NOT_BOUNDS:
        with pytest.raises(ValueError, match="bounds must be a DomainBounds"):
            MHConfig(dims=2, n_samples=10, bounds=bad)
    config = MHConfig(dims=2.0, n_samples=np.int64(8), burn_in="3",
                      proposal_std=np.float32(0.5))
    assert (config.dims, config.n_samples, config.burn_in) == (2, 8, 3)
    assert config.proposal_std == 0.5 and config.bounds.dims == 2
    assert type(config.dims) is type(config.n_samples) is int
    assert type(config.burn_in) is int and type(config.proposal_std) is float


def test_pmc_shapes_and_weights():
    target = make_gmm5_target(np.random.default_rng(11), 2)
    sample_set, locs = run_pmc(target, PMCConfig(dims=2, population_size=50,
                                                 iterations=4, seed=5))
    assert len(sample_set) == 200
    assert locs.shape == (50, 2)
    assert np.all(np.isfinite(sample_set.weights))
    assert np.all(sample_set.weights >= 0.0)


def test_pmc_single_member_dm_equals_standard():
    # with one proposal the mixture is that proposal, so both weightings agree
    target = make_gmm5_target(np.random.default_rng(13), 1)
    a, _ = run_pmc(target, PMCConfig(dims=1, population_size=1, iterations=6,
                                     seed=21, dm_weights=False))
    b, _ = run_pmc(target, PMCConfig(dims=1, population_size=1, iterations=6,
                                     seed=21, dm_weights=True))
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12)


def test_pmc_dm_improves_ness():
    # deterministic-mixture weighting should dominate standard weighting
    dm_vals, std_vals = [], []
    for s in range(20):
        target = make_gmm5_target(
            np.random.default_rng(derive_seed(603, "t", s)), 1)
        for dm, acc in ((True, dm_vals), (False, std_vals)):
            cfg = PMCConfig(dims=1, population_size=100, iterations=10,
                            dm_weights=dm, seed=derive_seed(603, "r", s))
            sample_set, _ = run_pmc(target, cfg)
            acc.append(ness_is(sample_set.weights))
    assert np.median(dm_vals) > np.median(std_vals)


def test_pmc_population_collapse():
    zero = lambda x: np.zeros(np.atleast_2d(x).shape[0])
    with pytest.raises(RuntimeError, match="collapse"):
        run_pmc(zero, PMCConfig(dims=1, population_size=10, iterations=2,
                                seed=1))


def test_pmc_determinism_and_config_validation():
    target = make_gmm5_target(np.random.default_rng(2), 1)
    cfg = PMCConfig(dims=1, population_size=20, iterations=3, seed=77)
    a, la = run_pmc(target, cfg)
    b, lb = run_pmc(target, cfg)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(la, lb)
    with pytest.raises(ValueError):
        PMCConfig(dims=1, population_size=0, iterations=1)
    with pytest.raises(ValueError):
        PMCConfig(dims=1, population_size=1, iterations=0)
    with pytest.raises(ValueError):
        PMCConfig(dims=1, population_size=1, iterations=1, kernel_std=-0.1)
    for key, bad in (("population_size", True), ("population_size", 2.5),
                     ("population_size", math.nan), ("iterations", 2.5),
                     ("iterations", math.inf), ("iterations", True),
                     ("dims", True), ("kernel_std", math.nan),
                     ("kernel_std", math.inf), ("kernel_std", True)):
        with pytest.raises(ValueError, match=key):
            PMCConfig(**{"dims": 1, "population_size": 4, "iterations": 2,
                         key: bad})
    with pytest.raises(ValueError, match="bounds"):
        PMCConfig(dims=1, population_size=4, iterations=2,
                  bounds=DomainBounds.centered(2))
    for bad in NOT_BOUNDS:
        with pytest.raises(ValueError, match="bounds must be a DomainBounds"):
            PMCConfig(dims=2, population_size=4, iterations=2, bounds=bad)
    config = PMCConfig(dims=2.0, population_size=np.int64(4),
                       iterations="3", kernel_std=np.float32(0.25))
    assert config.population_size == 4 and config.iterations == 3
    assert config.dims == config.bounds.dims == 2
    assert config.kernel_std == 0.25
    assert type(config.dims) is type(config.population_size) is int
    assert type(config.iterations) is int and type(config.kernel_std) is float


def test_pmc_custom_bounds():
    bounds = DomainBounds(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
    model = GaussianMixture([[1.0, 1.0]], [[0.04, 0.04]], [1.0])
    cfg = PMCConfig(dims=2, population_size=30, iterations=3, bounds=bounds,
                    seed=4)
    sample_set, locs = run_pmc(model.density, cfg)
    assert len(sample_set) == 90
