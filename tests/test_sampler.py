"""Sampler tests: budgets, selection rules, weighting schemes, evidence."""

import heapq
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NOT_BOUNDS, component_density, serialize_tree
from tpais import sampler
from tpais.baselines import MHConfig, PMCConfig
from tpais.bench import derive_seed
from tpais.proposal import Kernel, TreeProposal
from tpais.sampler import (NodeSelection, SamplerConfig, Weighting,
                           WeightedSampleSet, evidence_from_tree,
                           leaf_sample_set, mixture_weights, run_tp_ais)
from tpais.targets import GaussianMixture, make_gmm5_target
from tpais.tree import DepthLimitError, DomainBounds, Node, TreePyramid


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
    assert res.tree.first_child[plus.index] >= 0
    assert res.tree.first_child[minus.index] < 0


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
    leaves = res.tree.leaf_indices()
    assert len(res.sample_set) == len(leaves) == 8
    np.testing.assert_array_equal(res.sample_set.samples,
                                  res.tree.sample[leaves])


def test_one_sample_per_leaf_without_resampling():
    target = make_gmm5_target(np.random.default_rng(21), 1)
    res = run_tp_ais(target, SamplerConfig(dims=1, n_samples=64, seed=2))
    returned = {float(x) for x in res.sample_set.samples[:, 0]}
    leaf_samples = set(res.tree.sample[res.tree.leaf_indices(), 0].tolist())
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


def test_max_evidence_heap_keys_are_numpys_radius_power(monkeypatch):
    # on a cube of side 0.16 a Python float's 0.08 ** 3 is one ulp above
    # NumPy's array power, which the resampled argmax and mixture_weights
    # take; the heap keys must be the same bits as theirs
    assert 0.08 ** 3 != (np.array([0.08]) ** 3)[0]
    pushed, push = [], heapq.heappush

    def spy(heap, item):
        pushed.append(item)
        push(heap, item)

    monkeypatch.setattr(sampler.heapq, "heappush", spy)
    bounds = DomainBounds(np.zeros(3), np.full(3, 0.16))
    model = GaussianMixture(np.array([[0.05, 0.1, 0.07]]),
                            np.full((1, 3), 0.03 ** 2), np.array([1.0]))
    res = run_tp_ais(model.density, SamplerConfig(dims=3, n_samples=300,
                                                  bounds=bounds, seed=15))
    assert res.tree.level_radii[0] == 0.08 and res.tree.level.max() >= 3
    # every row is pushed once, but the last split's children
    keys, rows = (np.array(column) for column in zip(*pushed))
    assert rows.tolist() == list(range(len(res.tree) - 8))
    np.testing.assert_array_equal(
        keys, -(res.tree.target_value.take(rows) * res.tree.radii(rows) ** 3))


def right_only(x):
    x = np.atleast_2d(x)
    return np.where(x[:, 0] >= 0.0, 1.0, 0.0)


def test_mixture_draw_skips_zero_weight_leaves():
    # seed 0's first root draw lands in the positive half
    cfg = SamplerConfig(dims=1, n_samples=32, seed=0,
                        node_selection=NodeSelection.MIXTURE_DRAW)
    res = run_tp_ais(right_only, cfg)
    plus, minus = res.tree.root.children
    # the zero-mass side never gets drawn for expansion
    assert res.tree.first_child[minus.index] < 0
    assert res.tree.first_child[plus.index] >= 0


def test_mixture_draw_degenerate_state_raises():
    # seed 2's first root draw lands where the target is zero, leaving no
    # positive leaf weight to draw a split from
    cfg = SamplerConfig(dims=1, n_samples=32, seed=2,
                        node_selection=NodeSelection.MIXTURE_DRAW)
    with pytest.raises(ValueError, match="degenerate"):
        run_tp_ais(right_only, cfg)


@pytest.mark.parametrize("resample", [False, True],
                         ids=["heap", "listing"])
def test_mixture_draw_third_split_follows_the_leaf_rates(resample):
    # a flat target in 1D: the leaf of radius r has weight 2r, so rate
    # 2r**2. After splitting one child of the root, the third split picks
    # the unsplit sibling (rate 1/2) with probability 2/3 and each
    # grandchild (rate 1/8) with 1/6. Without resampling this pins the
    # race clock: keys E / rate that ignore it favour the grandchildren.
    flat = lambda x: np.ones(len(x))
    counts = np.zeros(3)
    for seed in range(4000):
        tree = run_tp_ais(flat, SamplerConfig(
            dims=1, n_samples=4 if resample else 7, seed=seed,
            resample_leaves=resample,
            node_selection=NodeSelection.MIXTURE_DRAW)).tree
        assert len(tree) == 7
        chosen = int(np.flatnonzero(tree.first_child == 5)[0])
        counts[0 if chosen in (1, 2) else 1 + (chosen - 3)] += 1
    expected = 4000 * np.array([2 / 3, 1 / 6, 1 / 6])
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < 13.82  # chi-square critical value, 2 dof, alpha 1e-3


@pytest.mark.parametrize("tiny", [1e-25, 1e-310])
def test_mixture_draw_follows_the_leaf_rates_after_a_tiny_root(tiny):
    # flat on [0, 1] and ``tiny`` on [-1, 0): in half the runs the root's
    # draw is tiny, so the first pop moves the race clock far past every
    # later arrival (to about 3e5 or 3e290 in the race's time unit). The
    # second split takes [0, 1] (row 1); from then on the run is the flat
    # test above one split later: the fourth split picks the unsplit
    # grandchild with probability 2/3 and each of its sibling's children
    # with 1/6. A clock that rounds the later arrivals away ties them, and
    # the lower row wins every tie. A subnormal rate must arrive as well.
    target = lambda x: np.where(x[:, 0] >= 0.0, 1.0, tiny)
    counts = np.zeros(3)
    for seed in range(4000):
        tree = run_tp_ais(target, SamplerConfig(
            dims=1, n_samples=9, seed=seed,
            node_selection=NodeSelection.MIXTURE_DRAW)).tree
        assert len(tree) == 9 and tree.first_child[1] == 3
        chosen = int(np.flatnonzero(tree.first_child == 7)[0])
        counts[0 if chosen in (3, 4) else 1 + (chosen - 5)] += 1
    expected = 4000 * np.array([2 / 3, 1 / 6, 1 / 6])
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < 13.82  # chi-square critical value, 2 dof, alpha 1e-3


@pytest.mark.parametrize("resample", [False, True],
                         ids=["mix", "mix-resample"])
def test_mixture_draw_on_a_zero_target_raises(resample):
    cfg = SamplerConfig(dims=2, n_samples=32, resample_leaves=resample,
                        node_selection=NodeSelection.MIXTURE_DRAW)
    with pytest.raises(ValueError, match="degenerate"):
        run_tp_ais(lambda x: np.zeros(len(x)), cfg)


@pytest.mark.parametrize("selection, resample", [
    (NodeSelection.MIXTURE_DRAW, False), (NodeSelection.MIXTURE_DRAW, True),
    (NodeSelection.MAX_EVIDENCE, False), (NodeSelection.MAX_EVIDENCE, True),
], ids=["mix", "mix-resample", "heap", "argmax-resample"])
def test_run_calls_mixture_weights_through_its_module(monkeypatch, selection,
                                                      resample):
    # a caller may replace tpais.sampler.mixture_weights (the benchmark's
    # layer trace does): mixture-draw splits call it through the module,
    # once per split, on the rows drawn since the last split (the root,
    # then each split's children) or, with resampling, on the leaves the
    # loop listed; greedy splits never call it
    calls = []

    def listed(tree, rows):
        if not isinstance(rows, slice):
            np.testing.assert_array_equal(rows, tree.leaf_indices())
        calls.append(np.arange(len(tree))[rows])
        return mixture_weights(tree, rows)

    monkeypatch.setattr(sampler, "mixture_weights", listed)
    target = make_gmm5_target(np.random.default_rng(3), 2)
    result = run_tp_ais(target, SamplerConfig(
        dims=2, n_samples=64, node_selection=selection,
        resample_leaves=resample, seed=4))
    splits = (len(result.tree) - 1) // 4
    if selection is NodeSelection.MAX_EVIDENCE:
        assert calls == []
    elif resample:
        # the leaves listed before split s: the root and 3 more per split
        assert [len(rows) for rows in calls] == [1 + 3 * s
                                                 for s in range(splits)]
    else:
        assert [rows.tolist() for rows in calls] == (
            [[0]] + [list(range(1 + 4 * s, 5 + 4 * s))
                     for s in range(splits - 1)])


def test_mixture_draw_lists_no_leaves_without_resampling(monkeypatch):
    calls = []
    original = TreePyramid.leaf_indices

    def counted(tree):
        calls.append(len(tree))
        return original(tree)

    monkeypatch.setattr(TreePyramid, "leaf_indices", counted)
    target = make_gmm5_target(np.random.default_rng(3), 2)
    result = run_tp_ais(target, SamplerConfig(
        dims=2, n_samples=256, seed=4,
        node_selection=NodeSelection.MIXTURE_DRAW))
    assert len(result.tree) == 257 and calls == []


class CountingTarget:
    """The gmm5 target, recording the number of points of each call; from
    call ``negative_from`` on (counting from 0) it returns -1 at every
    point."""

    def __init__(self, dims, negative_from=math.inf):
        self.model = make_gmm5_target(np.random.default_rng(3), dims)
        self.points, self.negative_from = [], negative_from

    def __call__(self, x):
        self.points.append(len(x))
        if len(self.points) > self.negative_from:
            return -np.ones(len(x))
        return self.model(x)


@pytest.mark.parametrize("dims, kernel, selection", [
    (1, Kernel.UNIFORM, NodeSelection.MAX_EVIDENCE),
    (2, Kernel.UNIFORM, NodeSelection.MIXTURE_DRAW),
    (2, Kernel.GAUSSIAN, NodeSelection.MIXTURE_DRAW),
    (3, Kernel.GAUSSIAN, NodeSelection.MAX_EVIDENCE),
], ids=["1d-max", "2d-mix", "2d-gauss-mix", "3d-gauss-max"])
def test_resampled_split_makes_one_target_call(dims, kernel, selection):
    # each listing evaluates the leaves once; the children a split makes
    # are first evaluated by the next listing, and only the last split's
    # children (after the loop) are evaluated as they are made
    target = CountingTarget(dims)
    result = run_tp_ais(target, SamplerConfig(
        dims=dims, n_samples=48, kernel=kernel, node_selection=selection,
        resample_leaves=True, seed=6))
    splits = (len(result.tree) - 1) // 2 ** dims
    listings = [1 + (2 ** dims - 1) * s for s in range(splits)]
    assert splits > 1 and target.points == listings + [2 ** dims]
    assert np.isfinite(result.sample_set.weights).all()


@pytest.mark.parametrize("selection", list(NodeSelection))
def test_split_without_resampling_makes_one_target_call(selection):
    # the root, then the children of each split as they are made
    target = CountingTarget(2)
    result = run_tp_ais(target, SamplerConfig(
        dims=2, n_samples=48, node_selection=selection, seed=6))
    splits = (len(result.tree) - 1) // 4
    assert target.points == [1] + [4] * splits


def test_resampled_run_without_splits_evaluates_the_root():
    target = CountingTarget(2)
    result = run_tp_ais(target, SamplerConfig(
        dims=2, n_samples=1, resample_leaves=True, seed=6))
    assert target.points == [1] and len(result.sample_set) == 1
    assert np.isfinite(result.sample_set.weights).all()
    assert result.sample_set.weights[0] > 0.0


@pytest.mark.parametrize("n_samples, negative_from", [(1, 0), (48, 0),
                                                      (48, 5), (48, 16)])
def test_resampled_run_rejects_a_negative_target(n_samples, negative_from):
    # 48 samples in 2D take 16 splits, so call 17 evaluates the last
    # split's children after the loop
    target = CountingTarget(2, negative_from)
    with pytest.raises(ValueError, match="negative"):
        run_tp_ais(target, SamplerConfig(
            dims=2, n_samples=n_samples, resample_leaves=True, seed=6))
    assert len(target.points) == negative_from + 1


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


def _runs_by_weighting(dims, kernel, selection, resample):
    target = make_gmm5_target(np.random.default_rng(derive_seed(61, dims)),
                              dims)
    return {weighting: run_tp_ais(target, SamplerConfig(
        dims=dims, n_samples=40, kernel=kernel, weighting=weighting,
        node_selection=selection, resample_leaves=resample, seed=12))
        for weighting in Weighting}


ONE_RULE_CASES = pytest.mark.parametrize(
    "dims, kernel, selection", [
        (dims, kernel, selection) for dims in (1, 2) for kernel in Kernel
        for selection in NodeSelection])


@ONE_RULE_CASES
@pytest.mark.parametrize("resample", [False, True])
def test_weighting_does_not_change_the_tree(dims, kernel, selection,
                                            resample):
    runs = _runs_by_weighting(dims, kernel, selection, resample)
    assert (serialize_tree(runs[Weighting.STANDARD].tree)
            == serialize_tree(runs[Weighting.DETERMINISTIC_MIXTURE].tree))


@ONE_RULE_CASES
def test_dm_weighs_every_draw_against_every_node(dims, kernel, selection):
    runs = _runs_by_weighting(dims, kernel, selection, False)
    dm = runs[Weighting.DETERMINISTIC_MIXTURE]
    tree, x = dm.tree, dm.sample_set.samples
    assert np.array_equal(x, runs[Weighting.STANDARD].sample_set.samples)
    q = np.mean([component_density(Node(tree, row), x, kernel)
                 for row in range(len(tree))], axis=0)
    np.testing.assert_allclose(dm.sample_set.weights,
                               tree.target_value[:len(tree)] / q, rtol=1e-12)


@ONE_RULE_CASES
def test_dm_with_resampling_is_the_leaf_sample_set(dims, kernel, selection):
    # with resampling the returned set is the leaf sample set, under
    # either weighting
    runs = _runs_by_weighting(dims, kernel, selection, True)
    for weighting, run in runs.items():
        leaf_set = leaf_sample_set(run.tree, kernel, weighting)
        assert np.array_equal(run.sample_set.samples, leaf_set.samples)
        assert np.array_equal(run.sample_set.weights, leaf_set.weights)


@settings(max_examples=30, deadline=None)
@given(dims=st.integers(1, 2), kernel=st.sampled_from(Kernel),
       selection=st.sampled_from(NodeSelection), resample=st.booleans(),
       n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_standard_leaf_set_is_the_stored_columns(dims, kernel, selection,
                                                 resample, n, seed):
    target = make_gmm5_target(np.random.default_rng(seed), dims)
    tree = run_tp_ais(target, SamplerConfig(
        dims=dims, n_samples=n, kernel=kernel, node_selection=selection,
        resample_leaves=resample, seed=seed)).tree
    leaves = tree.leaf_indices()
    leaf_set = leaf_sample_set(tree, kernel, Weighting.STANDARD)
    assert np.array_equal(leaf_set.samples, tree.sample[leaves])
    assert np.array_equal(leaf_set.weights, tree.weight[leaves])


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("selection", list(NodeSelection))
@pytest.mark.parametrize("resample", [False, True])
def test_every_row_holds_its_own_draw(dims, kernel, selection, resample):
    # a resampled run writes the point of a split leaf, and of each leaf
    # of the last listing, apart from its value and weight: every row's
    # three columns must still come from one draw of its own component
    for seed in range(6):
        target = make_gmm5_target(np.random.default_rng(seed), dims)
        tree = run_tp_ais(target, SamplerConfig(
            dims=dims, n_samples=60, kernel=kernel, node_selection=selection,
            resample_leaves=resample, seed=seed)).tree
        rows = np.arange(len(tree))
        x, values = tree.sample[rows], tree.target_value[rows]
        assert not np.isnan(tree.weight[rows]).any()
        np.testing.assert_allclose(target(x), values, rtol=1e-12)
        center, radius = tree.center[rows], tree.radii(rows)[:, None]
        if kernel is Kernel.UNIFORM:
            assert ((x >= center - radius) & (x <= center + radius)).all()
            own = 1.0 / (2.0 * radius[:, 0]) ** dims
        else:
            z = (x - center) / radius
            own = (np.exp(-0.5 * np.sum(z * z, axis=1))
                   / (radius[:, 0] * math.sqrt(2.0 * math.pi)) ** dims)
        np.testing.assert_allclose(tree.weight[rows], values / own,
                                   rtol=1e-12)


def _spike(x):
    return np.abs(x[:, 0] - 0.3) ** -0.95


@pytest.mark.parametrize("n, seed, resample", [(300, 0, False),
                                               (100, 4, True)])
def test_leaf_sample_set_reads_the_stored_weights_of_deep_trees(n, seed,
                                                                resample):
    # the spike drives leaves past level 50, where a uniform draw can
    # round onto its cell's upper face; its standard weight is still the
    # one its own component gave it when it was drawn
    tree = run_tp_ais(_spike, SamplerConfig(
        dims=1, n_samples=n, resample_leaves=resample, seed=seed)).tree
    leaves = tree.leaf_indices()
    assert tree.level[leaves].max() > 50
    leaf_set = leaf_sample_set(tree, Kernel.UNIFORM)
    assert np.array_equal(leaf_set.samples, tree.sample[leaves])
    assert np.array_equal(leaf_set.weights, tree.weight[leaves])


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
        split = res.tree.first_child[[node.index for node in order]] >= 0
        assert split.tolist() == (
            [True] * splits + [False] * (len(order) - splits))


def test_depth_cap_surfaces(monkeypatch):
    monkeypatch.setattr("tpais.tree.MAX_DEPTH", 3)
    cfg = SamplerConfig(dims=1, n_samples=16, seed=0)
    with pytest.raises(DepthLimitError):
        run_tp_ais(uniform_target, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(dims=1, n_samples=0)
    with pytest.raises(ValueError):
        SamplerConfig(dims=2, n_samples=4, bounds=DomainBounds.centered(1))
    for bad in NOT_BOUNDS:
        with pytest.raises(ValueError, match="bounds must be a DomainBounds"):
            SamplerConfig(dims=2, n_samples=4, bounds=bad)
    # counts are whole numbers, and booleans are not counts
    for bad in (True, np.True_, 2.5, math.nan, math.inf, None):
        with pytest.raises(ValueError, match="n_samples must be a whole"):
            SamplerConfig(dims=1, n_samples=bad)
    with pytest.raises(ValueError, match="dims must be a whole"):
        SamplerConfig(dims=True, n_samples=4, bounds=DomainBounds.centered(1))
    config = SamplerConfig(dims=2.0, n_samples=np.int64(8))
    assert (config.dims, config.n_samples) == (2, 8)
    assert type(config.dims) is type(config.n_samples) is int
    config = SamplerConfig(dims=1, n_samples=4, resample_leaves=np.True_)
    assert config.resample_leaves is True


def _sampled_tree():
    return run_tp_ais(uniform_target,
                      SamplerConfig(dims=1, n_samples=4, seed=0)).tree


@pytest.mark.parametrize("key, build, good, bad", [
    ("kernel", lambda v: SamplerConfig(dims=1, n_samples=4, kernel=v),
     list(Kernel), ["uniform", Weighting.STANDARD, None, 0]),
    ("weighting", lambda v: SamplerConfig(dims=1, n_samples=4, weighting=v),
     list(Weighting), ["dm", Kernel.UNIFORM, None]),
    ("node_selection",
     lambda v: SamplerConfig(dims=1, n_samples=4, node_selection=v),
     list(NodeSelection), ["max_evidence", "mixture_draw", None]),
    ("resample_leaves",
     lambda v: SamplerConfig(dims=1, n_samples=4, resample_leaves=v),
     [True, False, np.True_], ["no", "False", 0, 1, None]),
    ("dm_weights", lambda v: PMCConfig(dims=1, population_size=4,
                                       iterations=1, dm_weights=v),
     [True, False, np.False_], ["no", 1, None]),
    ("kernel", lambda v: TreeProposal(TreePyramid(DomainBounds.centered(1)),
                                      v),
     list(Kernel), ["uniform", "gaussian", None]),
    ("weighting", lambda v: leaf_sample_set(_sampled_tree(), Kernel.UNIFORM,
                                            v),
     list(Weighting), ["dm", "standard", None]),
], ids=["SamplerConfig.kernel", "SamplerConfig.weighting",
        "SamplerConfig.node_selection", "SamplerConfig.resample_leaves",
        "PMCConfig.dm_weights", "TreeProposal.kernel",
        "leaf_sample_set.weighting"])
def test_enum_and_flag_settings_take_only_their_values(key, build, good, bad):
    # any other value used to run as the other case: kernel="uniform" ran
    # the Gaussian kernel, and resample_leaves="no" resampled
    for value in bad:
        with pytest.raises(ValueError, match=f"^{key} must be a"):
            build(value)
    for value in good:
        build(value)


@pytest.mark.parametrize("make", [
    lambda seed: SamplerConfig(dims=1, n_samples=4, seed=seed),
    lambda seed: MHConfig(dims=1, n_samples=4, seed=seed),
    lambda seed: PMCConfig(dims=1, population_size=4, iterations=1,
                           seed=seed),
], ids=["tpais", "mh", "pmc"])
def test_every_sampler_config_parses_its_seed(make):
    # None would draw fresh OS entropy, True would run as seed 1, and a
    # fraction or a negative seed would fail inside NumPy's SeedSequence
    for bad in (None, True, 2.5, -1):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            make(bad)
    for value, seed in ((0, 0), (np.uint64(7), 7), ("12", 12), (3.0, 3)):
        config = make(value)
        assert config.seed == seed and type(config.seed) is int


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
    tree.expand(0)
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
        est = sum(res.tree.target_value[leaf.index] * leaf.volume
                  for leaf in res.tree.leaves())
        errs.append(abs(est - 1.0))
    assert np.median(errs) <= 0.05


def test_weighted_sample_set_validation():
    with pytest.raises(ValueError):
        WeightedSampleSet(np.zeros((3, 1)), np.zeros(2))
    ss = WeightedSampleSet(np.zeros((3, 2)), np.ones(3))
    assert len(ss) == 3
