"""Sampler tests: budgets, selection rules, weighting schemes, evidence."""

import math
import re

import numpy as np
import pytest

from tpais.bench import derive_seed
from tpais.proposal import Kernel, TreeProposal
from tpais.sampler import (NodeSelection, SamplerConfig, Weighting,
                           WeightedSampleSet, evidence_from_tree,
                           leaf_sample_set, run_tp_ais)
from tpais.targets import GaussianMixture, make_gmm5_target
from tpais.tree import DepthLimitError, DomainBounds, TreePyramid


def uniform_target(x):
    x = np.atleast_2d(x)
    return np.full(x.shape[0], 0.5 ** x.shape[1])


def test_single_sample_run():
    res = run_tp_ais(uniform_target, SamplerConfig(dims=1, n_samples=1, seed=3))
    assert len(res.sample_set) == 1
    assert res.tree.leaves() == [res.tree.root]
    # target 0.5 over [-1, 1] against the root's uniform component 0.5
    assert res.sample_set.weights[0] == 1.0


def test_uniform_target_weights_by_level():
    res = run_tp_ais(uniform_target, SamplerConfig(dims=1, n_samples=4, seed=9))
    np.testing.assert_allclose(res.sample_set.weights,
                               [1.0, 0.5, 0.5, 0.25, 0.25])
    assert len(res.tree.leaves()) == 3


def test_max_evidence_tie_breaks_by_insertion():
    # a flat target ties every leaf score; the earliest-inserted leaf (the
    # "+" child of the root) must be expanded next
    res = run_tp_ais(uniform_target, SamplerConfig(dims=1, n_samples=4, seed=9))
    plus, minus = res.tree.root.children
    assert plus.center[0] == 0.5
    assert not plus.is_leaf
    assert minus.is_leaf


def test_budget_overshoot_bound():
    for dims, n in ((1, 10), (2, 6), (3, 9)):
        res = run_tp_ais(uniform_target,
                         SamplerConfig(dims=dims, n_samples=n, seed=1))
        assert n <= len(res.sample_set) <= n + 2 ** dims - 1
        # gross draws follow 1 + m * 2**K
        m = (len(res.sample_set) - 1) // 2 ** dims
        assert len(res.sample_set) == 1 + m * 2 ** dims
        assert len(res.tree.leaves()) == 1 + m * (2 ** dims - 1)


def test_resampling_returns_leaf_samples():
    cfg = SamplerConfig(dims=1, n_samples=8, seed=5, resample_leaves=True)
    res = run_tp_ais(uniform_target, cfg)
    leaves = res.tree.leaves()
    assert len(res.sample_set) == len(leaves) == 8
    stored = np.array([leaf.sample for leaf in leaves])
    np.testing.assert_array_equal(res.sample_set.samples, stored)


def test_one_sample_per_leaf_without_resampling():
    target = make_gmm5_target(np.random.default_rng(21), 1)
    res = run_tp_ais(target, SamplerConfig(dims=1, n_samples=64, seed=2))
    returned = {float(x) for x in res.sample_set.samples[:, 0]}
    leaf_samples = {float(leaf.sample[0]) for leaf in res.tree.leaves()}
    # every final leaf sample appears in the returned set (ancestors add more)
    assert leaf_samples <= returned


def test_determinism():
    target = make_gmm5_target(np.random.default_rng(4), 2)
    cfg = SamplerConfig(dims=2, n_samples=40, seed=123)
    a = run_tp_ais(target, cfg)
    b = run_tp_ais(target, cfg)
    np.testing.assert_array_equal(a.sample_set.samples, b.sample_set.samples)
    np.testing.assert_array_equal(a.sample_set.weights, b.sample_set.weights)


def test_anytime_prefix_property():
    # a longer run extends a shorter same-seed run without rewriting it
    target = make_gmm5_target(np.random.default_rng(8), 1)
    short = run_tp_ais(target, SamplerConfig(dims=1, n_samples=16, seed=6))
    long = run_tp_ais(target, SamplerConfig(dims=1, n_samples=64, seed=6))
    k = len(short.sample_set)
    np.testing.assert_array_equal(long.sample_set.samples[:k],
                                  short.sample_set.samples)
    np.testing.assert_array_equal(long.sample_set.weights[:k],
                                  short.sample_set.weights)


def test_max_evidence_scale_invariance():
    target = make_gmm5_target(np.random.default_rng(31), 1)
    scaled = lambda x: 37.0 * target(x)
    cfg = SamplerConfig(dims=1, n_samples=48, seed=14)
    a = run_tp_ais(target, cfg)
    b = run_tp_ais(scaled, cfg)
    ca = [(leaf.center[0], leaf.radius) for leaf in a.tree.leaves()]
    cb = [(leaf.center[0], leaf.radius) for leaf in b.tree.leaves()]
    assert ca == cb
    np.testing.assert_allclose(b.sample_set.weights,
                               37.0 * a.sample_set.weights, rtol=1e-12)


def right_only(x):
    x = np.atleast_2d(x)
    return np.where(x[:, 0] >= 0.0, 1.0, 0.0)


def test_mixture_draw_skips_zero_weight_leaves():
    # seed 0's first root draw lands in the positive half
    cfg = SamplerConfig(dims=1, n_samples=32, seed=0,
                        node_selection=NodeSelection.MIXTURE_DRAW)
    res = run_tp_ais(right_only, cfg)
    plus, minus = res.tree.root.children
    assert minus.is_leaf  # zero-mass side never gets drawn for expansion
    assert not plus.is_leaf


def test_mixture_draw_degenerate_state_raises():
    # seed 2's first root draw lands where the target is zero, leaving no
    # positive leaf weight to draw a split from
    cfg = SamplerConfig(dims=1, n_samples=32, seed=2,
                        node_selection=NodeSelection.MIXTURE_DRAW)
    with pytest.raises(ValueError, match="degenerate"):
        run_tp_ais(right_only, cfg)


def test_dm_matches_standard_after_normalizing():
    target = make_gmm5_target(np.random.default_rng(44), 1)
    std = run_tp_ais(target, SamplerConfig(dims=1, n_samples=60, seed=17))
    dm = run_tp_ais(target, SamplerConfig(
        dims=1, n_samples=60, seed=17,
        weighting=Weighting.DETERMINISTIC_MIXTURE))
    # same seed, weighting-independent selection: identical trees
    ca = [(leaf.center[0], leaf.radius) for leaf in std.tree.leaves()]
    cb = [(leaf.center[0], leaf.radius) for leaf in dm.tree.leaves()]
    assert ca == cb
    ws = leaf_sample_set(std.tree, Kernel.UNIFORM, Weighting.STANDARD).weights
    wd = leaf_sample_set(dm.tree, Kernel.UNIFORM,
                         Weighting.DETERMINISTIC_MIXTURE).weights
    np.testing.assert_allclose(ws / ws.sum(), wd / wd.sum(),
                               rtol=0, atol=1e-12)


def test_gaussian_kernel_run():
    target = make_gmm5_target(np.random.default_rng(50), 2)
    cfg = SamplerConfig(dims=2, n_samples=30, seed=8, kernel=Kernel.GAUSSIAN)
    res = run_tp_ais(target, cfg)
    assert len(res.sample_set) >= 30
    assert np.all(res.sample_set.weights >= 0.0)
    assert np.all(np.isfinite(res.sample_set.weights))


def test_target_validation():
    cfg = SamplerConfig(dims=1, n_samples=4, seed=0)
    with pytest.raises(ValueError):
        run_tp_ais(lambda x: -np.ones(np.atleast_2d(x).shape[0]), cfg)
    with pytest.raises(ValueError):
        run_tp_ais(lambda x: np.full(np.atleast_2d(x).shape[0], np.nan), cfg)


@pytest.mark.parametrize("bad_target, shape", [
    (lambda x: np.ones((np.atleast_2d(x).shape[0], 1)), "(1, 1)"),
    (lambda x: np.float64(0.5), "()"),
    (lambda x: np.ones(np.atleast_2d(x).shape[0] + 1), "(2,)"),
])
def test_target_shape_contract(bad_target, shape):
    # one value per point, shape (n,): a column, a scalar or the wrong
    # length is rejected by name before any weight is formed
    cfg = SamplerConfig(dims=1, n_samples=4, seed=0)
    message = f"must return shape (1,) for 1 points, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_tp_ais(bad_target, cfg)


def test_target_contract_in_evidence_redraw():
    res = run_tp_ais(uniform_target, SamplerConfig(dims=2, n_samples=8, seed=1))
    column = lambda x: uniform_target(x)[:, None]
    with pytest.raises(ValueError, match=re.escape("got shape (7, 1)")):
        evidence_from_tree(column, res.tree, Kernel.UNIFORM,
                           np.random.default_rng(0))


def test_max_evidence_flat_target_splits_in_insertion_order():
    # a flat target ties every score within a level, so the greedy rule
    # splits the largest cells first and, among them, the earliest
    # inserted: the split nodes are a prefix of the breadth-first order
    for dims, splits in ((1, 6), (2, 7)):
        n = 1 + splits * 2 ** dims
        res = run_tp_ais(uniform_target,
                         SamplerConfig(dims=dims, n_samples=n, seed=4))
        order, queue = [], [res.tree.root]
        while queue:
            node = queue.pop(0)
            order.append(node)
            queue.extend(node.children)
        assert [not node.is_leaf for node in order] == (
            [True] * splits + [False] * (len(order) - splits))


def test_depth_cap_surfaces():
    cfg = SamplerConfig(dims=1, n_samples=16, seed=0, max_depth=3)
    with pytest.raises(DepthLimitError):
        run_tp_ais(uniform_target, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(dims=1, n_samples=0)
    with pytest.raises(ValueError):
        SamplerConfig(dims=2, n_samples=4, bounds=DomainBounds.centered(1))


def test_weight_helpers():
    # standard weights divide by the draw's own component density, DM
    # weights by the mixture density; on a single-leaf tree they agree
    tree = TreePyramid(DomainBounds.centered(1))
    prop = TreeProposal(tree, Kernel.UNIFORM)
    _, own = prop.draw(np.array([tree.root.index]), np.random.default_rng(0))
    assert 0.4 / own[0] == 0.8
    assert 0.4 / prop.density(np.array([0.3])) == 0.8
    # outside the domain the mixture density is zero, which the sampler
    # rejects instead of dividing by it
    assert prop.density(np.array([5.0])) == 0.0
    for weighting in Weighting:
        res = run_tp_ais(uniform_target, SamplerConfig(
            dims=1, n_samples=1, seed=3, weighting=weighting))
        assert res.sample_set.weights[0] == 1.0


def test_dm_weight_gaussian_two_leaves():
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(tree.root)
    prop = TreeProposal(tree, Kernel.GAUSSIAN)
    x = np.array([0.1])
    comps = [math.exp(-0.5 * ((0.1 - c) / 0.5) ** 2)
             / (0.5 * math.sqrt(2 * math.pi)) for c in (0.5, -0.5)]
    expected = 0.7 / (sum(comps) / 2.0)
    assert abs(0.7 / prop.density(x) - expected) < 1e-12


def test_leaf_sample_set_requires_samples():
    tree = TreePyramid(DomainBounds.centered(1))
    with pytest.raises(ValueError):
        leaf_sample_set(tree, Kernel.UNIFORM)


def test_evidence_from_tree_root_exact():
    res = run_tp_ais(uniform_target, SamplerConfig(dims=1, n_samples=1, seed=2))
    val = evidence_from_tree(uniform_target, res.tree, Kernel.UNIFORM,
                             np.random.default_rng(0))
    assert val == 1.0


def test_leaf_volume_evidence_consistency():
    # one stored sample per leaf, weighted by cell volume, approximates the
    # evidence of a normalized smooth target once the tree is deep enough
    smooth = GaussianMixture([[-0.3], [0.4]], [[0.04], [0.09]], [0.5, 0.5])
    errs = []
    for s in range(20):
        cfg = SamplerConfig(dims=1, n_samples=4096,
                            seed=derive_seed(602, "r", s))
        res = run_tp_ais(smooth.density, cfg)
        est = sum(leaf.target_value * leaf.volume
                  for leaf in res.tree.leaves())
        errs.append(abs(est - 1.0))
    assert np.median(errs) <= 0.05


def test_weighted_sample_set_validation():
    with pytest.raises(ValueError):
        WeightedSampleSet(np.zeros((3, 1)), np.zeros(2))
    ss = WeightedSampleSet(np.zeros((3, 2)), np.ones(3))
    assert len(ss) == 3
