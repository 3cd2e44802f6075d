"""Metric tests: ESS variants, divergences, KDE, evidence."""

import math

import numpy as np
import pytest

from conftest import grow_random_tree
from tpais import proposal
from tpais.baselines import PMCConfig, run_pmc
from tpais.metrics import (LN2, KDEModel, ess_is, ess_mcmc, evidence_estimate,
                           evidence_mse, expectation_estimate, jsd,
                           kde_density, kde_fit, kl_mc, ness_is,
                           normalized_weights)
from tpais.proposal import Kernel, TreeProposal
from tpais.targets import GaussianMixture, make_gmm5_target
from tpais.tree import DomainBounds

BOUNDS_1D = DomainBounds.centered(1)


def test_normalized_weights():
    np.testing.assert_allclose(normalized_weights([2.0, 1.0, 1.0]),
                               [0.5, 0.25, 0.25])
    for bad in ([], [0.0, 0.0], [1.0, -1.0], [1.0, np.inf]):
        with pytest.raises(ValueError):
            normalized_weights(bad)


def test_ess_is_oracles():
    assert abs(ess_is(np.full(10, 3.7)) - 10.0) < 1e-12
    assert abs(ess_is([1.0, 0.0, 0.0, 0.0]) - 1.0) < 1e-12
    assert abs(ess_is([2.0, 1.0, 1.0]) - 8.0 / 3.0) < 1e-12
    assert abs(ness_is([2.0, 1.0, 1.0]) - 8.0 / 9.0) < 1e-12


def test_ess_is_bounds_fuzz():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        w = rng.uniform(0.0, 1.0, size=n)
        w[int(rng.integers(n))] = 1.0  # keep at least one positive entry
        val = ess_is(w)
        assert 1.0 - 1e-12 <= val <= n + 1e-9
        assert 0.0 <= ness_is(w) <= 1.0 + 1e-12


def test_ess_mcmc_iid_chain():
    rng = np.random.default_rng(12)
    chain = rng.standard_normal(10_000)
    assert abs(ess_mcmc(chain) / 10_000 - 1.0) < 0.10


def test_ess_mcmc_ar1_closed_form():
    # AR(1) with coefficient 0.5 has asymptotic ESS/N = (1-phi)/(1+phi) = 1/3
    rng = np.random.default_rng(34)
    n = 100_000
    noise = rng.standard_normal(n)
    chain = np.empty(n)
    chain[0] = noise[0]
    for i in range(1, n):
        chain[i] = 0.5 * chain[i - 1] + noise[i]
    ratio = ess_mcmc(chain) / n
    assert abs(ratio - 1.0 / 3.0) < 0.15 / 3.0


def test_ess_mcmc_alternating_chain_clamped():
    chain = np.tile([1.0, -1.0], 500)
    assert ess_mcmc(chain) == 1000.0


def test_ess_mcmc_validation_and_multivariate():
    with pytest.raises(ValueError):
        ess_mcmc(np.ones(100))  # constant chain
    with pytest.raises(ValueError):
        ess_mcmc(np.array([1.0]))
    rng = np.random.default_rng(9)
    iid = rng.standard_normal(5000)
    slow = np.cumsum(rng.standard_normal(5000)) * 0.05
    pair = np.column_stack([iid, slow])
    assert ess_mcmc(pair) <= min(ess_mcmc(iid), ess_mcmc(slow)) + 1e-9


def test_kl_identical_is_zero():
    model = GaussianMixture([[0.0]], [[0.04]], [1.0])
    rng = np.random.default_rng(1)
    assert kl_mc(model.density, model.density, BOUNDS_1D, 5000, rng) == 0.0


def test_kl_uniform_equal_densities():
    half = lambda x: np.full(np.atleast_2d(x).shape[0], 0.5)
    rng = np.random.default_rng(2)
    assert kl_mc(half, half, BOUNDS_1D, 100, rng) == 0.0


def test_kl_support_violation_infinite():
    p = lambda x: np.full(np.atleast_2d(x).shape[0], 0.5)
    q = lambda x: np.where(np.atleast_2d(x)[:, 0] < 0.0, 1.0, 0.0)
    rng = np.random.default_rng(3)
    assert kl_mc(p, q, BOUNDS_1D, 1000, rng) == math.inf


def test_kl_matches_quadrature_oracle():
    p = GaussianMixture([[0.0]], [[0.04]], [1.0])
    q = GaussianMixture([[0.2]], [[0.04]], [1.0])
    grid = np.linspace(-1.0, 1.0, 100_001)
    pv = p.density(grid[:, None])
    qv = q.density(grid[:, None])
    oracle = np.trapezoid(pv * np.log(pv / qv), grid)
    est = kl_mc(p.density, q.density, BOUNDS_1D, 1_000_000,
                np.random.default_rng(55))
    assert abs(est - oracle) < 0.02 * oracle


def test_jsd_identical_zero_and_symmetric():
    model = GaussianMixture([[0.1]], [[0.04]], [1.0])
    other = GaussianMixture([[-0.2]], [[0.09]], [1.0])
    assert jsd(model.density, model.density, BOUNDS_1D, 2000,
               np.random.default_rng(4)) == 0.0
    ab = jsd(model.density, other.density, BOUNDS_1D, 2000,
             np.random.default_rng(8))
    ba = jsd(other.density, model.density, BOUNDS_1D, 2000,
             np.random.default_rng(8))
    assert ab == ba


def test_jsd_disjoint_uniforms():
    p = lambda x: np.where(np.atleast_2d(x)[:, 0] < 0.0, 1.0, 0.0)
    q = lambda x: np.where(np.atleast_2d(x)[:, 0] >= 0.0, 1.0, 0.0)
    val = jsd(p, q, BOUNDS_1D, 10_000, np.random.default_rng(5))
    # the integrand is constant on disjoint supports, so this is exact
    assert abs(val - LN2) < 1e-12


def test_jsd_matches_quadrature_oracle():
    p = GaussianMixture([[0.0]], [[0.04]], [1.0])
    q = GaussianMixture([[0.2]], [[0.04]], [1.0])
    grid = np.linspace(-1.0, 1.0, 100_001)
    pv = p.density(grid[:, None])
    qv = q.density(grid[:, None])
    mid = 0.5 * (pv + qv)
    oracle = np.trapezoid(0.5 * pv * np.log(pv / mid)
                          + 0.5 * qv * np.log(qv / mid), grid)
    est = jsd(p.density, q.density, BOUNDS_1D, 1_000_000,
              np.random.default_rng(56))
    assert abs(est - oracle) < 0.02 * oracle


def test_jsd_never_negative_fuzz():
    rng = np.random.default_rng(90)
    for seed in range(10):
        gen = np.random.default_rng(seed)
        p = GaussianMixture(gen.uniform(-1, 1, (2, 1)),
                            gen.uniform(0.01, 0.2, (2, 1)), [0.5, 0.5])
        q = GaussianMixture(gen.uniform(-1, 1, (2, 1)),
                            gen.uniform(0.01, 0.2, (2, 1)), [0.5, 0.5])
        val = jsd(p.density, q.density, BOUNDS_1D, 2000, rng)
        assert 0.0 <= val <= LN2 + 1e-12


@pytest.mark.parametrize("divergence", [jsd, kl_mc])
def test_divergences_enforce_density_contract(divergence):
    model = make_gmm5_target(np.random.default_rng(4), 1).model
    negative = lambda x: -model.density(x)
    with_nan = lambda x: np.where(x[:, 0] > 0.5, np.nan, model.density(x))
    column = lambda x: model.density(x)[:, None]
    for p, q, message in ((model.density, negative, "negative"),
                          (model.density, with_nan, "non-finite"),
                          (with_nan, model.density, "non-finite"),
                          (model.density, column, r"shape \(2000, 1\)"),
                          (column, model.density, r"shape \(2000, 1\)")):
        with pytest.raises(ValueError, match=message):
            divergence(p, q, BOUNDS_1D, 2000, np.random.default_rng(6))


def test_kde_single_point_peak():
    model = kde_fit(np.array([[0.0]]), bandwidth=1.0)
    assert abs(model.density(np.array([0.0]))
               - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15
    narrow = kde_fit(np.array([[0.3]]), bandwidth=0.05)
    peak = narrow.density(np.array([0.3]))
    assert abs(peak - 1.0 / (0.05 * math.sqrt(2.0 * math.pi))) < 1e-10


def test_kde_normalization():
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1, 1, size=(100, 1))
    model = kde_fit(pts, bandwidth=0.05)
    grid = np.linspace(-1.5, 1.5, 300_001)
    assert abs(np.trapezoid(model.density(grid[:, None]), grid) - 1.0) < 1e-6


def test_kde_symmetry_and_translation():
    model = kde_fit(np.array([[-0.4], [0.4]]), bandwidth=0.2)
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(model.density(xs[:, None]),
                               model.density(-xs[:, None]), rtol=1e-12)
    shifted = kde_fit(np.array([[-0.1], [0.7]]), bandwidth=0.2)
    np.testing.assert_allclose(model.density(np.array([0.05])),
                               shifted.density(np.array([0.35])), rtol=1e-12)


def test_kde_batch_chunking_consistent(monkeypatch):
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((500, 2))
    model = kde_fit(pts, bandwidth=0.3)
    query = rng.standard_normal((1000, 2))
    batch = model.density(query)
    singles = np.array([model.density(q) for q in query])
    np.testing.assert_allclose(batch, singles, rtol=1e-12)
    assert kde_density(model, query[0]) == model(query[0])

    # every user of the shared kernel sum, in one block and then in many:
    # 3500 pairs give blocks of 7 query rows (1000 % 7 != 0), 54 PMC
    # samples (64 % 54 != 0) and 3500 // L mixture points
    target = make_gmm5_target(np.random.default_rng(24), 2)
    pmc = PMCConfig(dims=2, population_size=64, iterations=3, dm_weights=True,
                    seed=25)
    tree = grow_random_tree(2, 60, np.random.default_rng(26))
    mixture = TreeProposal(tree, Kernel.GAUSSIAN)
    one_block = (model(query), run_pmc(target, pmc)[0].weights,
                 mixture(query))
    monkeypatch.setattr(proposal, "_BLOCK_PAIRS", 3500)
    assert 1000 % (3500 // len(tree.leaves())) != 0
    np.testing.assert_array_equal(model(query), one_block[0])
    np.testing.assert_array_equal(run_pmc(target, pmc)[0].weights,
                                  one_block[1])
    # k @ comp groups its sums by block row count, so only nearly equal
    np.testing.assert_allclose(mixture(query), one_block[2], rtol=1e-12)


def test_kde_validation():
    with pytest.raises(ValueError):
        KDEModel(np.zeros((2, 1)), 0.0)
    with pytest.raises(ValueError):
        KDEModel(np.zeros((2, 1)), math.nan)
    model = kde_fit(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        model.density(np.zeros(2))
    for empty in (np.empty((0, 1)), np.empty((0, 2)), []):
        with pytest.raises(ValueError, match="non-empty"):
            kde_fit(empty)


def test_evidence_estimate_and_mse():
    assert evidence_estimate(np.ones(8)) == 1.0
    assert evidence_estimate([0.5, 1.5]) == 1.0
    assert evidence_mse([1.0, 1.0]) == 0.0
    assert abs(evidence_mse([1.2, 0.8]) - 0.04) < 1e-15
    with pytest.raises(ValueError):
        evidence_estimate([])


def test_expectation_estimate():
    samples = np.array([[0.0], [1.0], [2.0]])
    weights = np.array([2.0, 1.0, 1.0])
    est = expectation_estimate(lambda x: x[:, 0], samples, weights)
    assert abs(est - 0.75) < 1e-15
    ones = expectation_estimate(lambda x: np.ones(len(x)), samples, weights)
    assert ones == 1.0
    with pytest.raises(ValueError):
        expectation_estimate(lambda x: x[:, 0], samples, np.zeros(3))

