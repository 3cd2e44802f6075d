"""Metric tests: ESS variants, divergences, KDE, evidence."""

import math
import warnings

import numpy as np
import pytest

from conftest import grow_random_tree
from tpais import proposal
from tpais.baselines import PMCConfig, run_pmc
from tpais.metrics import (LN2, KDEModel, ess_is, ess_mcmc, evidence_estimate,
                           evidence_mse, expectation_estimate, jsd,
                           kde_density, ness_is, normalized_weights)
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


def test_weights_whose_sum_overflows():
    # finite weights summing past the float range are scaled by a power of
    # two first, with no overflow warning; a finite sum keeps its bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ess_is([1e308, 1e308]) == 2.0
        assert ness_is([1e308, 1.0, 1e308]) == pytest.approx(2.0 / 3.0)
        assert expectation_estimate(lambda x: x[:, 0], [[0.1], [0.2]],
                                    [1e308, 1e308]) == pytest.approx(0.15)
    w = np.random.default_rng(0).uniform(0.0, 1e307, size=17)
    np.testing.assert_array_equal(normalized_weights(w), w / w.sum())


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


@pytest.mark.parametrize("chain", [[1.0, 2.0, 1e308, -1e308],
                                   [1e308, 1e308, 1.0, 2.0]])
def test_ess_mcmc_large_finite_chain(chain):
    # the autocorrelation does not depend on scale, so a chain near the
    # float range must give the ESS of the same chain scaled down
    chain = np.array(chain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ess_mcmc(chain) == ess_mcmc(chain * 2.0 ** -1000)


def test_ess_mcmc_validation_and_multivariate():
    with pytest.raises(ValueError):
        ess_mcmc(np.ones(100))  # constant chain
    with pytest.raises(ValueError):
        ess_mcmc(np.array([1.0]))
    # a broken chain must not report the full ESS n
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ess_mcmc(np.array([1.0, bad, 2.0, 0.5]))
    rng = np.random.default_rng(9)
    iid = rng.standard_normal(5000)
    slow = np.cumsum(rng.standard_normal(5000)) * 0.05
    pair = np.column_stack([iid, slow])
    assert ess_mcmc(pair) <= min(ess_mcmc(iid), ess_mcmc(slow)) + 1e-9


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


@pytest.mark.parametrize("divergence", [jsd])
def test_divergence_point_count_is_an_integer(divergence):
    # the counts ExperimentSpec(jsd_points=...) accepts, by the same parser
    model = GaussianMixture([[0.1]], [[0.04]], [1.0])
    for n in (0, -3, 2.5, True, np.True_, None):
        with pytest.raises(ValueError,
                           match="n must be a whole number >= 1"):
            divergence(model.density, model.density, BOUNDS_1D, n,
                       np.random.default_rng(6))
    other = GaussianMixture([[-0.2]], [[0.09]], [1.0])
    for n in (np.int64(1), 4.0, "8"):
        assert divergence(model.density, model.density, BOUNDS_1D, n,
                          np.random.default_rng(6)) == 0.0
        assert (divergence(model.density, other.density, BOUNDS_1D, n,
                           np.random.default_rng(6))
                == divergence(model.density, other.density, BOUNDS_1D,
                              int(n), np.random.default_rng(6)))


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


def test_jsd_near_equal_densities_not_negative():
    # p = q up to a relative 1e-10 or less: the per-point integrand cancels
    # in floating point and its mean can fall below 0, which the
    # estimate's floor at 0 takes out
    def p(x):
        return np.full(x.shape[0], 0.5)

    for eps in (1e-16, 1e-15, 1e-13, 1e-10):
        def q(x, eps=eps):
            return 0.5 * (1.0 + eps) * (1.0 + eps * np.sin(7.0 * x[:, 0]))

        values = [jsd(p, q, BOUNDS_1D, 200, np.random.default_rng(seed))
                  for seed in range(3000)]
        assert min(values) >= 0.0


@pytest.mark.parametrize("divergence", [jsd])
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
    model = KDEModel(np.array([[0.0]]), bandwidth=1.0)
    assert abs(model.density(np.array([0.0]))
               - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15
    narrow = KDEModel(np.array([[0.3]]), bandwidth=0.05)
    peak = narrow.density(np.array([0.3]))
    assert abs(peak - 1.0 / (0.05 * math.sqrt(2.0 * math.pi))) < 1e-10


def test_kde_normalization():
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1, 1, size=(100, 1))
    model = KDEModel(pts, bandwidth=0.05)
    grid = np.linspace(-1.5, 1.5, 300_001)
    assert abs(np.trapezoid(model.density(grid[:, None]), grid) - 1.0) < 1e-6


def test_kde_symmetry_and_translation():
    model = KDEModel(np.array([[-0.4], [0.4]]), bandwidth=0.2)
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(model.density(xs[:, None]),
                               model.density(-xs[:, None]), rtol=1e-12)
    shifted = KDEModel(np.array([[-0.1], [0.7]]), bandwidth=0.2)
    np.testing.assert_allclose(model.density(np.array([0.05])),
                               shifted.density(np.array([0.35])), rtol=1e-12)


def test_kde_batch_chunking_consistent(monkeypatch):
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((500, 2))
    model = KDEModel(pts, bandwidth=0.3)
    query = rng.standard_normal((1000, 2))
    batch = model.density(query)
    singles = np.array([model.density(q) for q in query])
    np.testing.assert_array_equal(batch, singles)
    assert kde_density(model, query[0]) == model.density(query[0])

    # every user of the shared kernel sum, in default tiles and then in
    # small ones: 3500 pairs give tiles of 7 query points (1000 % 7 != 0),
    # 54 PMC samples (64 % 54 != 0) and 3500 // L mixture points
    target = make_gmm5_target(np.random.default_rng(24), 2)
    pmc = PMCConfig(dims=2, population_size=64, iterations=3, dm_weights=True,
                    seed=25)
    tree = grow_random_tree(2, 60, np.random.default_rng(26))
    mixture = TreeProposal(tree, Kernel.GAUSSIAN)
    default_tiles = (model.density(query), run_pmc(target, pmc)[0].weights,
                     mixture.density(query))
    monkeypatch.setattr(proposal, "_TILE_FLOATS", 3500)
    assert 1000 % (3500 // len(tree.leaves())) != 0
    np.testing.assert_array_equal(model.density(query), default_tiles[0])
    np.testing.assert_array_equal(run_pmc(target, pmc)[0].weights,
                                  default_tiles[1])
    np.testing.assert_array_equal(mixture.density(query), default_tiles[2])


def test_kde_reads_a_1d_array_as_one_dimensional_points():
    # as ess_mcmc reads a 1-d chain: n states of one coordinate each
    values = np.array([0.1, 0.2, 0.3])
    model = KDEModel(values, bandwidth=0.1)
    assert model.dims == 1 and model.points.shape == (3, 1)
    assert ess_mcmc(values) == ess_mcmc(values[:, None])
    np.testing.assert_array_equal(
        model.density(np.array([[0.0], [0.2]])),
        KDEModel(values[:, None], bandwidth=0.1).density(
            np.array([[0.0], [0.2]])))
    assert KDEModel(0.5).points.shape == (1, 1)


def test_kde_validation():
    # the bandwidth is a scale: a positive finite number, not a boolean
    for bad in (0.0, -0.1, math.inf, math.nan, "-1", True, False, np.True_,
                "wide", None):
        with pytest.raises(ValueError, match="bandwidth"):
            KDEModel(np.zeros((2, 1)), bad)
    for given in ("0.1", np.float32(0.25), 2):
        model = KDEModel(np.zeros((2, 1)), given)
        assert model.bandwidth == float(given)
        assert type(model.bandwidth) is float
    model = KDEModel(np.zeros((2, 3)))
    assert model.bandwidth == 0.05
    with pytest.raises(ValueError):
        model.density(np.zeros(2))
    for empty in (np.empty((0, 1)), np.empty((0, 2)), []):
        with pytest.raises(ValueError, match="non-empty"):
            KDEModel(empty)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            KDEModel([[0.0], [bad], [0.3]], 0.05)


def test_evidence_estimate_and_mse():
    assert evidence_estimate(np.ones(8)) == 1.0
    assert evidence_estimate([0.5, 1.5]) == 1.0
    assert evidence_mse([1.0, 1.0]) == 0.0
    assert abs(evidence_mse([1.2, 0.8]) - 0.04) < 1e-15
    with pytest.raises(ValueError):
        evidence_estimate([])
    with pytest.raises(ValueError, match="non-empty"):
        evidence_mse([])


def test_expectation_estimate():
    samples = np.array([[0.0], [1.0], [2.0]])
    weights = np.array([2.0, 1.0, 1.0])
    est = expectation_estimate(lambda x: x[:, 0], samples, weights)
    assert abs(est - 0.75) < 1e-15
    ones = expectation_estimate(lambda x: np.ones(len(x)), samples, weights)
    assert ones == 1.0
    with pytest.raises(ValueError):
        expectation_estimate(lambda x: x[:, 0], samples, np.zeros(3))



def test_expectation_estimate_rejects_values_of_another_shape():
    # samples of shape (n,) read as one point with n coordinates, so fn
    # gives one value, which would broadcast against the n weights
    weights = np.ones(3)
    with pytest.raises(ValueError, match=r"shape \(3,\).*got shape \(1,\)"):
        expectation_estimate(lambda x: x[:, 0], np.array([0.1, 0.5, 0.9]),
                             weights)
    with pytest.raises(ValueError, match=r"got shape \(3, 1\)"):
        expectation_estimate(lambda x: x, np.array([[0.1], [0.5], [0.9]]),
                             weights)
    column = np.array([[0.1], [0.5], [0.9]])
    assert expectation_estimate(lambda x: x[:, 0], column,
                                weights) == pytest.approx(0.5, rel=1e-15)
