"""Target family tests: mixture math, generator distributions, egg grid."""

import math
import tracemalloc

import numpy as np
import pytest

from tpais import proposal
from tpais.targets import (EGG_MODE_COORDS, GaussianMixture, make_egg_target,
                           make_gmm5_target, make_normal_target)
from tpais.tree import DomainBounds


def test_standard_normal_density():
    model = GaussianMixture([[0.0]], [[1.0]], [1.0])
    assert abs(model.density(np.array([0.0]))
               - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15


def test_symmetric_two_component_density():
    model = GaussianMixture([[-1.0], [1.0]], [[1.0], [1.0]], [0.5, 0.5])
    expected = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert abs(model.density(np.array([0.0])) - expected) < 1e-15


def test_isotropic_2d_peak_value():
    model = GaussianMixture([[0.2, -0.1]], [[0.01, 0.01]], [1.0])
    peak = model.density(np.array([0.2, -0.1]))
    assert abs(peak - 1.0 / (2.0 * math.pi * 0.01)) < 1e-10


def test_density_batch_matches_single():
    rng = np.random.default_rng(1)
    model = make_gmm5_target(rng, 2).model
    pts = rng.uniform(-1, 1, size=(40, 2))
    batch = model.density(pts)
    singles = np.array([model.density(p) for p in pts])
    np.testing.assert_allclose(batch, singles, rtol=1e-14)


def test_density_blocks_match_one_block(monkeypatch):
    # 3D egg: 64 components of 3 coordinates, so a cap of 3500 floats gives
    # blocks of 18 rows (1000 % 18 != 0); each block's comp @ weights may
    # round differently
    model = make_egg_target(3).model
    pts = np.random.default_rng(2).uniform(-1, 1, size=(1000, 3))
    one_block = model.density(pts)
    monkeypatch.setattr(proposal, "_BLOCK_PAIRS", 3500)
    np.testing.assert_allclose(model.density(pts), one_block, rtol=1e-12)
    assert model.density(pts[7]) == pytest.approx(one_block[7], rel=1e-12)


def test_density_block_memory_is_bounded():
    # 7D egg: 16384 components of 7 coordinates. A block of (rows, m, K)
    # differences holds at most 2**22 floats (32 MiB), whatever the number
    # of points, so the peak stays near that.
    model = make_egg_target(7).model
    pts = np.random.default_rng(4).uniform(-1, 1, size=(768, 7))
    tracemalloc.start()
    try:
        model.density(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_density_rejects_wrong_width():
    model = make_gmm5_target(np.random.default_rng(3), 2).model
    for bad in (np.zeros(3), np.zeros((4, 1)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            model.density(bad)


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture([[0.0]], [[1.0]], [0.9])  # weights must sum to 1
    with pytest.raises(ValueError):
        GaussianMixture([[0.0]], [[0.0]], [1.0])  # variance must be positive
    with pytest.raises(ValueError):
        GaussianMixture([[0.0]], [[1.0, 1.0]], [1.0])  # shape mismatch


def test_normal_target_parameter_ranges():
    for seed in range(50):
        target = make_normal_target(np.random.default_rng(seed), 2)
        model = target.model
        assert model.n_components == 1
        assert np.all(model.means > -1.0) and np.all(model.means < 1.0)
        std = np.sqrt(model.variances)
        assert np.all(std >= 0.01) and np.all(std <= 0.05)
        assert target.bounds.dims == 2


def test_normal_target_mean_distribution():
    # mean coordinates should be uniform on (-1, 1): KS test at alpha 1e-3
    n = 2000
    means = np.array([
        make_normal_target(np.random.default_rng(seed), 1).model.means[0, 0]
        for seed in range(n)
    ])
    cdf = (np.sort(means) + 1.0) / 2.0
    dist = np.max(np.abs(cdf - (np.arange(1, n + 1) / n)))
    assert dist < 1.9495 / math.sqrt(n)  # KS critical value, alpha = 1e-3


def test_normal_target_reproducible():
    a = make_normal_target(np.random.default_rng(99), 3)
    b = make_normal_target(np.random.default_rng(99), 3)
    np.testing.assert_array_equal(a.model.means, b.model.means)
    np.testing.assert_array_equal(a.model.variances, b.model.variances)


def test_target_call_reads_its_model():
    # the mixture in ``model`` is the target: replacing it changes the calls
    target = make_gmm5_target(np.random.default_rng(8), 2)
    pts = np.random.default_rng(9).uniform(-1, 1, size=(50, 2))
    np.testing.assert_array_equal(target(pts), target.model.density(pts))
    other = GaussianMixture([[0.3, -0.2]], [[0.02, 0.04]], [1.0])
    target.model = other
    np.testing.assert_array_equal(target(pts), other.density(pts))
    assert target(pts[0]) == other.density(pts[0])


def test_gmm5_target_shape():
    target = make_gmm5_target(np.random.default_rng(7), 3)
    model = target.model
    assert model.n_components == 5
    np.testing.assert_allclose(model.weights, 0.2)
    assert np.all(model.variances >= 0.01) and np.all(model.variances <= 0.05)


def test_gmm5_density_normalized():
    target = make_gmm5_target(np.random.default_rng(15), 1)
    grid = np.linspace(-5.0, 5.0, 200_001)
    mass = np.trapezoid(target(grid[:, None]), grid)
    assert abs(mass - 1.0) < 1e-6


def test_family_quadrature_over_padded_box():
    # densities integrate to 1 over a +-5 sigma padded box
    for seed in range(5):
        model = make_gmm5_target(np.random.default_rng(seed), 1).model
        lo = float(np.min(model.means - 5.0 * np.sqrt(model.variances)))
        hi = float(np.max(model.means + 5.0 * np.sqrt(model.variances)))
        grid = np.linspace(lo, hi, 200_001)
        assert abs(np.trapezoid(model.density(grid[:, None]), grid) - 1.0) < 1e-6
    model = make_gmm5_target(np.random.default_rng(12), 2).model
    lo = np.min(model.means - 5.0 * np.sqrt(model.variances), axis=0)
    hi = np.max(model.means + 5.0 * np.sqrt(model.variances), axis=0)
    ax0 = np.linspace(lo[0], hi[0], 1001)
    ax1 = np.linspace(lo[1], hi[1], 1001)
    xx, yy = np.meshgrid(ax0, ax1, indexing="ij")
    z = model.density(np.column_stack([xx.ravel(), yy.ravel()]))
    mass = np.trapezoid(np.trapezoid(z.reshape(xx.shape), ax1, axis=1), ax0)
    assert abs(mass - 1.0) < 1e-3


def test_egg_component_grid():
    one = make_egg_target(1).model
    assert one.n_components == 4
    np.testing.assert_array_equal(np.sort(one.means[:, 0]), EGG_MODE_COORDS)
    two = make_egg_target(2).model
    assert two.n_components == 16
    np.testing.assert_allclose(two.weights, 1.0 / 16.0)
    np.testing.assert_allclose(two.variances, 0.01)


def test_egg_symmetry_and_dim_cap():
    egg = make_egg_target(2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(64, 2))
    np.testing.assert_allclose(egg(pts), egg(-pts), rtol=1e-12)
    with pytest.raises(ValueError):
        make_egg_target(8)


def test_egg_modes_found_by_grid_search():
    egg = make_egg_target(1)
    grid = np.linspace(-1.0, 1.0, 20_001)
    vals = egg(grid[:, None])
    interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
    maxima = grid[1:-1][interior]
    assert len(maxima) == 4
    assert np.max(np.abs(maxima - np.asarray(EGG_MODE_COORDS))) < 1e-3


def test_sample_moments():
    model = GaussianMixture([[0.0]], [[1.0]], [1.0])
    rng = np.random.default_rng(70)
    draws = model.sample(100_000, rng)
    assert abs(draws.mean()) < 3.0 / math.sqrt(draws.size)


def test_sample_component_selection():
    # zero-weight component never drawn
    model = GaussianMixture([[0.0], [100.0]], [[1.0], [1.0]], [1.0, 0.0])
    draws = model.sample(5000, np.random.default_rng(71))
    assert np.all(draws < 50.0)
    # symmetric mixture: frequencies pass a chi-square check at alpha 1e-3
    model = GaussianMixture([[-10.0], [10.0]], [[1.0], [1.0]], [0.5, 0.5])
    draws = model.sample(100_000, np.random.default_rng(72))
    n_hi = int(np.sum(draws[:, 0] > 0.0))
    chi2 = (n_hi - 50_000) ** 2 / 50_000 + (draws.size - n_hi - 50_000) ** 2 / 50_000
    assert chi2 < 10.83  # 1 dof, alpha = 1e-3


def test_box_mass_matches_quadrature():
    model = GaussianMixture([[0.3]], [[0.04]], [1.0])
    bounds = DomainBounds.centered(1)
    grid = np.linspace(-1.0, 1.0, 200_001)
    quad = np.trapezoid(model.density(grid[:, None]), grid)
    assert abs(model.box_mass(bounds) - quad) < 1e-9


def test_target_callable_interface():
    target = make_normal_target(np.random.default_rng(2), 1)
    x = np.array([[0.1]])
    assert target(x) == target.model.density(x)
    assert target.name == "normal"
