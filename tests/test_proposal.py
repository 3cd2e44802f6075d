"""Proposal mixture tests: component densities, normalization, the
sampler's mixture-draw helpers, and the pruned Gaussian kernel sum."""

import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (component_density, cumsum_mixture_draw,
                      dyadic_midpoint_grid, grow_random_tree)
from tpais import proposal
from tpais.bench import derive_seed
from tpais.proposal import Kernel, TreeProposal, gaussian_kernel_sum
from tpais.sampler import (SamplerConfig, _SumTree, mixture_weights,
                           run_tp_ais)
from tpais.targets import make_gmm5_target
from tpais.tree import DomainBounds, Node, TreePyramid


class _FixedAlpha:
    """Random source stub returning a fixed uniform draw."""

    def __init__(self, alpha):
        self.alpha = alpha

    def uniform(self):
        return self.alpha


def _three_leaf_tree():
    # leaves: [-1, -0.5), [-0.5, 0) with radius 0.25, and [0, 1] with 0.5
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(tree.expand(0) + 1)  # the root, then its "-" child
    return tree


def test_uniform_component_values():
    tree = TreePyramid(DomainBounds.centered(1))
    assert component_density(tree.root, np.array([0.3]), Kernel.UNIFORM) == 0.5
    assert component_density(tree.root, np.array([0.0]), Kernel.UNIFORM) == 0.5


def test_uniform_component_outside_cell():
    tree = TreePyramid(DomainBounds.centered(2, half_width=0.5))
    assert component_density(tree.root, np.array([0.6, 0.0]),
                             Kernel.UNIFORM) == 0.0


def test_uniform_component_half_open_faces():
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(0)
    plus, minus = tree.root.children
    x = np.array([0.0])
    assert component_density(minus, x, Kernel.UNIFORM) == 0.0
    assert component_density(plus, x, Kernel.UNIFORM) == 1.0
    # the domain's top face stays closed
    assert component_density(plus, np.array([1.0]), Kernel.UNIFORM) == 1.0


def test_gaussian_component_at_mean():
    tree = TreePyramid(DomainBounds.centered(1))
    val = component_density(tree.root, np.array([0.0]), Kernel.GAUSSIAN)
    assert abs(val - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15


def test_gaussian_component_scales_with_radius():
    tree = TreePyramid(DomainBounds.centered(2))
    tree.expand(0)
    child = tree.root.children[0]  # radius 0.5
    val = component_density(child, child.center, Kernel.GAUSSIAN)
    assert abs(val - 1.0 / (2.0 * math.pi * 0.25)) < 1e-12


def test_single_leaf_density():
    tree = TreePyramid(DomainBounds.centered(1))
    prop = TreeProposal(tree, Kernel.UNIFORM)
    assert prop.density(np.array([0.0])) == 0.5


def test_two_leaf_density_constant():
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(0)
    prop = TreeProposal(tree, Kernel.UNIFORM)
    xs = np.linspace(-1.0, 0.999, 31)[:, None]
    np.testing.assert_allclose(prop.density(xs), 0.5, rtol=0, atol=1e-15)


def test_three_leaf_density_values():
    prop = TreeProposal(_three_leaf_tree(), Kernel.UNIFORM)
    assert abs(prop.density(np.array([-0.3])) - 2.0 / 3.0) < 1e-15
    assert abs(prop.density(np.array([0.3])) - 1.0 / 3.0) < 1e-15


def test_density_matches_component_mean():
    rng = np.random.default_rng(42)
    for kernel in (Kernel.UNIFORM, Kernel.GAUSSIAN):
        for dims in (1, 2, 3):
            tree = grow_random_tree(dims, int(rng.integers(1, 9)), rng)
            pts = rng.uniform(-1.0, 1.0, size=(200, dims))
            prop = TreeProposal(tree, kernel)
            every = [Node(tree, row) for row in range(len(tree))]
            for every_node, nodes in (False, tree.leaves()), (True, every):
                brute = np.mean([component_density(node, pts, kernel)
                                 for node in nodes], axis=0)
                np.testing.assert_allclose(
                    prop.density(pts, every_node=every_node), brute,
                    rtol=1e-12, atol=1e-300)


def test_uniform_locality():
    # exactly one component is nonzero at any interior point
    rng = np.random.default_rng(13)
    tree = grow_random_tree(2, 9, rng)
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=2)
        live = [leaf for leaf in tree.leaves()
                if component_density(leaf, x, Kernel.UNIFORM) > 0.0]
        assert len(live) == 1
        expected = 1.0 / (len(tree.leaves()) * live[0].volume)
        prop = TreeProposal(tree, Kernel.UNIFORM)
        assert abs(prop.density(x) - expected) < 1e-15


def test_uniform_normalization_quadrature():
    rng = np.random.default_rng(3)
    grid = dyadic_midpoint_grid(1 << 13)
    for _ in range(5):
        tree = grow_random_tree(1, int(rng.integers(1, 13)), rng)
        prop = TreeProposal(tree, Kernel.UNIFORM)
        for every_node in (False, True):
            q = prop.density(grid[:, None], every_node=every_node)
            assert abs(np.trapezoid(q, grid) - 1.0) < 1e-9


def test_density_rejects_bad_shapes():
    prop = TreeProposal(TreePyramid(DomainBounds.centered(2)), Kernel.UNIFORM)
    with pytest.raises(ValueError):
        prop.density(np.zeros(3))
    with pytest.raises(ValueError):
        prop.density(np.zeros((4, 3)))



def _leaf_draws(leaf, kernel, n, rng):
    """``n`` draws from one leaf's component, one per repeat of its row."""
    rows = np.full(n, leaf.index)
    return TreeProposal(leaf.tree, kernel).draw(rows, rng)[0]


def _random_trees(rng):
    """Random trees in 1-3D on [-1, 1]**K, plus one on a non-dyadic domain
    (lower 0.8217701239287258, width 1.4219548974429648)."""
    trees = [grow_random_tree(dims, int(rng.integers(1, 12)), rng)
             for dims in (1, 2, 3)]
    lower = np.full(2, 0.8217701239287258)
    odd = TreePyramid(DomainBounds(lower, lower + 1.4219548974429648))
    for _ in range(15):
        leaves = odd.leaf_indices()
        odd.expand(leaves[int(rng.integers(len(leaves)))])
    return trees + [odd]


@pytest.mark.parametrize("kernel", list(Kernel))
def test_stored_weight_is_target_over_component_density(kernel):
    # each stored standard weight is the row's target value over the
    # density of the component that drew it. A uniform draw can round onto
    # its cell's upper face, outside the half-open cell, where the oracle
    # reads zero; such rows are skipped, but never a leaf whose draw
    # ``locate`` finds in it
    for dims, resample, half_width in ((1, False, 1.0), (2, False, 1.051767),
                                       (2, True, 1.0), (3, False, 1.051767)):
        target = make_gmm5_target(
            np.random.default_rng(derive_seed(71, dims)), dims)
        tree = run_tp_ais(target, SamplerConfig(
            dims=dims, n_samples=120, kernel=kernel, resample_leaves=resample,
            bounds=DomainBounds.centered(dims, half_width),
            seed=derive_seed(72, dims, resample))).tree
        own = np.array([component_density(Node(tree, row), tree.sample[row],
                                          kernel) for row in range(len(tree))])
        drawn = own > 0.0
        leaves = tree.leaf_indices()
        located = leaves[tree.locate(tree.sample[leaves]) == leaves]
        assert drawn[located].all() and located.size > 0
        np.testing.assert_allclose(
            tree.weight[:len(tree)][drawn],
            tree.target_value[:len(tree)][drawn] / own[drawn],
            rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_draw_own_is_component_density(kernel):
    rng = np.random.default_rng(32)
    for tree in _random_trees(rng):
        prop = TreeProposal(tree, kernel)
        leaves = tree.leaves()
        rows = np.array([leaf.index for leaf in leaves])
        points, own = prop.draw(rows, rng)
        expected = [component_density(leaf, x, kernel)
                    for leaf, x in zip(leaves, points)]
        np.testing.assert_allclose(own, expected, rtol=1e-12, atol=0.0)
        if kernel is Kernel.UNIFORM:
            assert np.array_equal(tree.locate(points), rows)
        # the new children of a split, passed as a slice, draw the same way
        tree.expand(leaves[-1].index)
        children = leaves[-1].children
        first = children[0].index
        points, own = prop.draw(slice(first, first + len(children)), rng)
        expected = [component_density(child, x, kernel)
                    for child, x in zip(children, points)]
        np.testing.assert_allclose(own, expected, rtol=1e-12, atol=0.0)


def test_draw_slice_and_rows_agree():
    tree = grow_random_tree(2, 5, np.random.default_rng(33))
    prop = TreeProposal(tree, Kernel.GAUSSIAN)
    a = prop.draw(slice(5, 9), np.random.default_rng(34))
    b = prop.draw(np.arange(5, 9), np.random.default_rng(34))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_sample_leaf_uniform_support_and_mean():
    rng = np.random.default_rng(77)
    tree = TreePyramid(DomainBounds(np.array([1.5, 1.5]), np.array([2.5, 2.5])))
    draws = _leaf_draws(tree.root, Kernel.UNIFORM, 100_000, rng)
    assert np.all(draws >= 1.5) and np.all(draws < 2.5)
    tol = 3.0 * (1.0 / math.sqrt(12.0)) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - 2.0) < tol)


def test_sample_leaf_gaussian_moments():
    rng = np.random.default_rng(78)
    tree = TreePyramid(DomainBounds.centered(1))
    draws = _leaf_draws(tree.root, Kernel.GAUSSIAN, 100_000, rng)[:, 0]
    assert abs(draws.std() - 1.0) < 0.02


def test_mixture_weights_values():
    # unnormalized w * r**K: both leaves have radius 0.5 in 1D
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(0)
    a, b = tree.root.children
    leaves = tree.leaf_indices()
    tree.weight[[a.index, b.index]] = 1.0, 1.0
    np.testing.assert_array_equal(mixture_weights(tree, leaves), [0.5, 0.5])
    tree.weight[[a.index, b.index]] = 3.0, 1.0
    np.testing.assert_array_equal(mixture_weights(tree, leaves), [1.5, 0.5])
    # only the rows passed are weighed, in the order given, also as a slice
    np.testing.assert_array_equal(mixture_weights(tree, leaves[::-1]),
                                  [0.5, 1.5])
    np.testing.assert_array_equal(mixture_weights(tree, slice(1, 3)),
                                  [1.5, 0.5])


def test_mixture_weights_radius_power():
    # equal weights but radii 0.5 vs 0.25 in 2D: r**2 gives 0.25 vs 0.0625;
    # the other leaves have no weight and contribute zero
    tree = TreePyramid(DomainBounds.centered(2))
    tree.expand(0)
    big = tree.root.children[1]
    tree.expand(tree.root.children[0].index)
    small = tree.root.children[0].children[3]
    assert (big.radius, small.radius) == (0.5, 0.25)
    tree.weight[[big.index, small.index]] = 1.0
    leaves = tree.leaves()
    pair = [leaves.index(big), leaves.index(small)]
    weights = mixture_weights(tree, tree.leaf_indices())
    np.testing.assert_array_equal(weights[pair], [0.25, 0.0625])
    assert np.all(np.delete(weights, pair) == 0.0)


def test_mixture_weights_on_random_trees():
    rng = np.random.default_rng(19)
    for _ in range(20):
        tree = grow_random_tree(int(rng.integers(1, 4)),
                                int(rng.integers(1, 8)), rng)
        for leaf in tree.leaves():
            tree.weight[leaf.index] = float(rng.uniform(0.0, 5.0))
        expected = [tree.weight[leaf.index] * leaf.radius ** tree.dims
                    for leaf in tree.leaves()]
        np.testing.assert_array_equal(
            mixture_weights(tree, tree.leaf_indices()), expected)


def test_mixture_weights_unset_contribute_zero():
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(0)
    a, b = tree.root.children
    tree.weight[a.index] = 2.0
    np.testing.assert_array_equal(mixture_weights(tree, tree.leaf_indices()),
                                  [1.0, 0.0])


def test_mixture_weights_degenerate():
    # weights that are all zero, unset or not, are returned; drawing from
    # them raises
    tree = TreePyramid(DomainBounds.centered(1))
    for weight in (math.nan, 0.0):
        tree.weight[0] = weight
        weights = mixture_weights(tree, tree.leaf_indices())
        assert weights.tolist() == [0.0]
        with pytest.raises(ValueError, match="degenerate"):
            _SumTree(weights).draw(np.random.default_rng(0))


@pytest.mark.parametrize("bad", [-1.0, math.inf])
def test_mixture_weights_reject_bad_values(bad):
    tree = TreePyramid(DomainBounds.centered(1))
    tree.weight[0] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        mixture_weights(tree, slice(0, 1))


def _grown_sums(values):
    """A ``_SumTree`` of zero slots, sized for ``values``, then given them
    one slot at a time, as a run without resampling sets them."""
    sums = _SumTree(np.zeros(len(values)))
    for slot, value in enumerate(values):
        sums.set(slot, [float(value)])
    return sums


_BOTH_PATHS = pytest.mark.parametrize("build", [
    lambda values: _SumTree(np.asarray(values, dtype=float)), _grown_sums,
], ids=["rebuilt", "grown"])


@_BOTH_PATHS
def test_sum_tree_draw_fixed_alpha(build):
    assert build([1.0]).draw(_FixedAlpha(0.99)) == 0
    assert build([0.5, 0.5]).draw(_FixedAlpha(0.0)) == 0
    assert build([0.5, 0.5]).draw(_FixedAlpha(0.3)) == 0
    assert build([0.2, 0.3, 0.5]).draw(_FixedAlpha(0.6)) == 2
    # a draw at the total lands on the last positive slot, not a padding
    # or trailing zero slot
    assert build([0.2, 0.3, 0.5]).draw(_FixedAlpha(1.0)) == 2
    assert build([0.2, 0.3, 0.5, 0.0, 0.0]).draw(_FixedAlpha(1.0)) == 2
    # zero-weight leading slots are skipped, also by a draw of exactly 0
    assert build([0.0, 1.0]).draw(_FixedAlpha(1e-12)) == 1
    assert build([0.0, 1.0]).draw(_FixedAlpha(0.0)) == 1
    assert build([0.0, 0.0, 0.0, 2.0, 0.0]).draw(_FixedAlpha(0.0)) == 3


def test_sum_tree_draw_skips_the_zero_the_cumsum_clamp_picks():
    # normalized, these seven weights sum to 1 - 2**-52; the largest draw
    # below 1 passes every cumulative weight, and the clamp returns the
    # trailing zero
    weights = [0.1] * 7 + [0.0]
    alpha = _FixedAlpha(math.nextafter(1.0, 0.0))
    assert cumsum_mixture_draw(weights, alpha) == 7
    assert _SumTree(np.array(weights)).draw(alpha) == 6
    assert _grown_sums(weights).draw(alpha) == 6


@_BOTH_PATHS
def test_sum_tree_frequencies_match_the_categorical(build):
    weights = np.array([0.1, 0.0, 0.2, 0.3, 0.0, 0.4])
    sums = build(weights)
    rng = np.random.default_rng(5)
    n = 100_000
    counts = np.bincount([sums.draw(rng) for _ in range(n)],
                         minlength=len(weights))
    assert counts.sum() == n and counts[weights == 0.0].sum() == 0
    positive = weights > 0.0
    expected = n * weights[positive]
    chi2 = np.sum((counts[positive] - expected) ** 2 / expected)
    assert chi2 < 16.27  # chi-square critical value, 3 dof, alpha 1e-3


def test_sum_tree_never_draws_a_zeroed_slot():
    # as in a run: the drawn slot is zeroed and four new ones set, one of
    # them zero; the tree is sized once for all 29 rows, padded to 32
    rng = np.random.default_rng(11)
    sums = _SumTree(np.zeros(29))
    sums.set(0, [1.0])
    live, end = {0}, 1
    for _ in range(7):
        chosen = sums.draw(rng)
        assert chosen in live
        sums.set(chosen, [0.0])
        values = rng.uniform(0.5, 1.0, 4)
        values[1] = 0.0
        sums.set(end, values.tolist())
        live = (live - {chosen}) | {end, end + 2, end + 3}
        end += 4
        assert {sums.draw(rng) for _ in range(2000)} <= live
    assert len(sums.levels[0]) == 32


@_BOTH_PATHS
def test_sum_tree_all_zero_is_degenerate(build):
    with pytest.raises(ValueError, match="degenerate"):
        build([0.0, 0.0, 0.0]).draw(np.random.default_rng(0))
    # slots set and then zeroed sum to exactly 0.0: a sum shifted by
    # differences would keep 0.1 + 0.2 - 0.1 - 0.2 = 5.6e-17
    sums = build([0.1, 0.2])
    sums.set(0, [0.0])
    sums.set(1, [0.0])
    assert sums.levels[-1][0] == 0.0
    with pytest.raises(ValueError, match="degenerate"):
        sums.draw(np.random.default_rng(0))


def test_sum_tree_agrees_with_the_cumsum_rule():
    # the same uniform draw picks the same slot, up to rounding at the
    # cumulative boundaries, which these seeds never hit
    for seed in range(300):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 1.0, int(rng.integers(1, 40)))
        weights[rng.uniform(size=weights.size) < 0.3] = 0.0
        if not weights.any():
            continue
        for sums in (_SumTree(weights), _grown_sums(weights)):
            expected = cumsum_mixture_draw(weights,
                                           np.random.default_rng(seed))
            assert sums.draw(np.random.default_rng(seed)) == expected


def sequential_kernel_sum(points, centers, scale, weights):
    """Dense reference: every center's weighted kernel at every point,
    ``z**2`` summed in dimension order, each point's terms more than
    ``_CUT`` below its largest log-term ``log w_j - z_j**2 / 2`` dropped
    (under one weight the log-kernels ``-z_j**2 / 2`` rank them), and the
    rest added in center order, one center at a time."""
    m = centers.shape[0]
    log_kernels = []
    for c, s in zip(centers, np.broadcast_to(scale, (m,))):
        z2 = ((c[0] - points[:, 0]) / s) ** 2
        for d in range(1, centers.shape[1]):
            z2 += ((c[d] - points[:, d]) / s) ** 2
        log_kernels.append(-0.5 * z2)
    log_terms = np.array(log_kernels)
    if np.ndim(weights) > 0:
        log_terms = log_terms + np.log(weights)[:, None]
    kept = ~(log_terms < log_terms.max(axis=0) - proposal._CUT)
    acc = np.zeros(points.shape[0])
    for h, w, keep in zip(log_kernels, np.broadcast_to(weights, (m,)), kept):
        acc = acc + np.where(keep, w * np.exp(h), 0.0)
    return acc


def kernel_sum_case(seed, dims, n, m, per_center):
    """Points and centers in [-1, 1]**dims, scales from 1e-3 to 1 (so that
    many kernels underflow to exactly 0.0), and positive weights."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (n, dims))
    centers = rng.uniform(-1.0, 1.0, (m, dims))
    if per_center:
        scale = 10.0 ** rng.uniform(-3.0, 0.0, m)
        weights = rng.uniform(0.1, 10.0, m)
    else:
        scale, weights = 10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(0.1, 10.0)
    return points, centers, scale, weights


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dims=st.integers(1, 3),
       n=st.integers(1, 300), m=st.integers(1, 80), per_center=st.booleans(),
       tile=st.integers(1, 70), floats=st.integers(1, 5000),
       group=st.integers(1, 20))
def test_kernel_sum_is_the_sequential_sum_in_any_tiling(
        seed, dims, n, m, per_center, tile, floats, group):
    points, centers, scale, weights = kernel_sum_case(seed, dims, n, m,
                                                      per_center)
    batch = gaussian_kernel_sum(points, centers, scale, weights)
    # bit for bit the dense sum in center order under the same cut
    np.testing.assert_array_equal(
        batch, sequential_kernel_sum(points, centers, scale, weights))
    # and close to a dense exp-and-matmul sum in any order
    z2 = (((points[:, None, :] - centers) / np.reshape(scale, (-1, 1))) ** 2
          ).sum(axis=2)
    np.testing.assert_allclose(
        batch, np.exp(-0.5 * z2) @ np.broadcast_to(weights, (m,)),
        rtol=1e-13, atol=0.0)
    with mock.patch.object(proposal, "_TILE_POINTS", tile), \
            mock.patch.object(proposal, "_TILE_FLOATS", floats), \
            mock.patch.object(proposal, "_BOX_GROUP", group):
        np.testing.assert_array_equal(
            gaussian_kernel_sum(points, centers, scale, weights), batch)
        reverse = gaussian_kernel_sum(points[::-1], centers, scale, weights)
        np.testing.assert_array_equal(reverse[::-1], batch)
        for i in {0, n // 2, n - 1}:
            alone = gaussian_kernel_sum(points[i:i + 1], centers, scale,
                                        weights)
            np.testing.assert_array_equal(alone, batch[i:i + 1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dims=st.integers(1, 3),
       n=st.integers(1, 300), m=st.integers(1, 80))
def test_kernel_sum_is_positive_where_the_dense_sum_is(seed, dims, n, m):
    # points up to 60 of the widest scales from every center, where the
    # dense sum is tiny or exactly 0.0; weights over twelve decades
    rng = np.random.default_rng(seed)
    points = rng.uniform(-5.0, 5.0, (n, dims))
    centers = rng.uniform(-1.0, 1.0, (m, dims))
    scale = 10.0 ** rng.uniform(-2.0, -1.0, m)
    weights = 10.0 ** rng.uniform(-6.0, 6.0, m)
    batch = gaussian_kernel_sum(points, centers, scale, weights)
    z2 = (((points[:, None, :] - centers) / scale[:, None]) ** 2).sum(axis=2)
    dense = np.exp(-0.5 * z2) @ weights
    assert np.all(batch[dense > 0.0] > 0.0)
    # each dropped term is below e**-_CUT of the point's largest
    bound = m * math.exp(-proposal._CUT) + 1e-13
    np.testing.assert_array_less(np.abs(batch - dense), bound * dense
                                 + np.finfo(float).tiny)


def test_kernel_sum_cut_keeps_terms_inside_and_drops_those_beyond():
    # at x = 0, 4096 equal terms at z**2 = 2 * _CUT, each e**-40 of the
    # largest, then a unit term: too small to show alone, 1.7e-14 together
    points = np.linspace(0.0, 1.0, 200)[:, None]  # several tiles
    for factor, kept in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
        edge = math.sqrt(2.0 * proposal._CUT * factor)
        centers = np.vstack([np.full((4096, 1), edge), [[0.0]]])
        sums = gaussian_kernel_sum(points, centers, 1.0, 1.0)
        np.testing.assert_array_equal(
            sums, sequential_kernel_sum(points, centers, 1.0, 1.0))
        np.testing.assert_array_equal(
            sums[:1], gaussian_kernel_sum(points[:1], centers, 1.0, 1.0))
        assert (sums[0] > 1.0) == kept and sums[0] < 1.0 + 2e-14
    # the box test skips a center whose kernel is exactly 0.0 all over a
    # tile's box, even where it would be every point's largest term
    assert math.exp(-0.5 * proposal._ZERO_Z2) == 0.0
    scale = 1e-3
    beyond = 1.0 + math.sqrt(proposal._ZERO_Z2) * scale * (1.0 + 1e-12)
    (kept,) = proposal._kept_centers(points, 200, np.array([[beyond]]),
                                     scale, None)
    assert kept.size == 0
    assert gaussian_kernel_sum(points, np.array([[beyond]]), scale,
                               1.0).max() == 0.0


@pytest.fixture(scope="module")
def gaussian_tree():
    """A 2D Gaussian-kernel tree, deep around the modes of its target."""
    return run_tp_ais(make_gmm5_target(np.random.default_rng(41), 2),
                      SamplerConfig(dims=2, n_samples=600,
                                    kernel=Kernel.GAUSSIAN, seed=42)).tree


@settings(max_examples=20, deadline=None)
@given(tile=st.integers(1, 70), floats=st.integers(1, 1 << 22),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gaussian_mixture_density_is_the_same_alone_or_in_any_batch(
        gaussian_tree, tile, floats, seed):
    mixture = TreeProposal(gaussian_tree, Kernel.GAUSSIAN)
    rng = np.random.default_rng(seed)
    query = rng.uniform(-1.0, 1.0, (257, 2))
    batch = mixture.density(query)
    every = mixture.density(query, every_node=True)
    with mock.patch.object(proposal, "_TILE_POINTS", tile), \
            mock.patch.object(proposal, "_TILE_FLOATS", floats):
        np.testing.assert_array_equal(mixture.density(query), batch)
        np.testing.assert_array_equal(mixture.density(query[::-1])[::-1],
                                      batch)
        np.testing.assert_array_equal(
            mixture.density(query, every_node=True), every)
        for i in rng.choice(len(query), 4, replace=False):
            assert mixture.density(query[i]) == batch[i]


def test_all_node_kernel_sum_memory_is_bounded():
    # The Gaussian all-node density of a run's N samples is an N x N sum.
    # At N=32768 one block would hold 8 GiB; a tile holds at most 64
    # points against the centers it keeps, at most 16 MiB per array, and
    # a group's box test at most 2**22 tile-center pairs. The peaks are
    # about 4 MiB in 1D and 17 MiB in 2D, where the tiles keep more.
    for dims, mib in ((1, 48), (2, 32)):
        result = run_tp_ais(
            make_gmm5_target(np.random.default_rng(43), dims),
            SamplerConfig(dims=dims, n_samples=32768, kernel=Kernel.GAUSSIAN,
                          seed=44))
        mixture = TreeProposal(result.tree, Kernel.GAUSSIAN)
        samples = result.sample_set.samples
        tracemalloc.start()
        try:
            density = mixture.density(samples, every_node=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert density.shape == (len(result.tree),) and np.all(density > 0)
        assert peak < mib * 2 ** 20


def one_point_at_a_time(points, centers, scale, weights):
    return np.concatenate([gaussian_kernel_sum(x[None], centers, scale,
                                               weights) for x in points])


def in_callers(call, workers):
    """Run call(k) for k < workers, each in a caller thread of its own, all
    at once and switching often."""
    callers = [threading.Thread(target=call, args=(k,))
               for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)


# 2 to 79 tiles of 64 points, summed by a pool of 2 or 3 caller threads
# (NaN points in a pruned 1D batch: test_nan_points_leave_the_tiles_pruned)
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("dims, n, kde, nans", [
    (2, 65, True, 3), (2, 129, True, 3), (1, 5000, True, 3),
    (1, 2200, False, 0), (2, 800, False, 3), (3, 700, True, 3),
    (3, 3000, False, 3)])
def test_pooled_kernel_sum_is_the_one_thread_sum_bit_for_bit(
        dims, n, kde, nans, workers):
    rng = np.random.default_rng(derive_seed("pooled", dims, n, kde))
    points = rng.uniform(-1.0, 1.0, (n, dims))
    points[rng.choice(n, nans, replace=False), rng.integers(dims)] = np.nan
    m = 1100
    centers = rng.uniform(-1.0, 1.0, (m, dims))
    if kde:  # one bandwidth whose reach spans the domain
        scale, weights = 0.05, 1.0 / m
    else:  # narrow leaves of uneven size, as in a deep tree
        scale = 10.0 ** rng.uniform(-3.0, -1.5, m)
        weights = rng.uniform(0.1, 10.0, m)
    kept = list(proposal._kept_centers(
        points.take(proposal._sorted_rows(points, 64), axis=0), 64, centers,
        scale, None if kde else np.log(weights)))
    # every case prunes, and a tile with a NaN point keeps every center
    assert sum(k.size for k in kept) < 0.97 * len(kept) * m
    assert max(k.size for k in kept) == m or not nans
    pooled = [None] * workers

    def call(k):
        pooled[k] = gaussian_kernel_sum(points, centers, scale, weights)

    in_callers(call, workers)
    one_thread = one_point_at_a_time(points, centers, scale, weights)
    for tiled in pooled:
        assert np.isnan(tiled).sum() == nans
        np.testing.assert_array_equal(tiled, one_thread)


def test_kernel_sum_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"a kernel sum started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    # the bench's 2D KDE: 1024 chain points, bandwidth 0.05
    rng = np.random.default_rng(derive_seed("no threads"))
    points = rng.uniform(-1.0, 1.0, (2000, 2))
    centers = rng.normal(0.0, 0.4, (1024, 2))
    density = gaussian_kernel_sum(points, centers, 0.05, 1.0 / 1024)
    some = rng.choice(len(points), 50, replace=False)
    np.testing.assert_array_equal(
        density[some],
        one_point_at_a_time(points[some], centers, 0.05, 1.0 / 1024))


def test_box_tests_run_one_group_at_a_time(monkeypatch):
    # three groups of tiles: a group's two box tests (its box, then its
    # tiles) run when the sum reaches its first tile, not before
    rng = np.random.default_rng(derive_seed("box groups"))
    points = np.sort(rng.uniform(-1.0, 1.0, 3 * proposal._BOX_GROUP * 64))
    centers = rng.uniform(-1.0, 1.0, (200, 1))
    box_skip, calls = proposal._box_skip, []

    def counted(lo, *args):
        calls.append(len(lo))
        return box_skip(lo, *args)

    monkeypatch.setattr(proposal, "_box_skip", counted)
    tiles = proposal._kept_centers(points[:, None], 64, centers, 0.05, None)
    assert next(tiles).size and calls == [1, proposal._BOX_GROUP]
    assert len(list(tiles)) == 3 * proposal._BOX_GROUP - 1
    assert calls == [1, proposal._BOX_GROUP] * 3


def test_nan_points_leave_the_tiles_pruned(monkeypatch):
    # the grid spans the finite coordinates, so the NaN rows sort last and
    # cost one tile that keeps every center (a NaN box reaches all)
    rng = np.random.default_rng(derive_seed("nan tiles"))
    points = rng.uniform(-1.0, 1.0, (2200, 1))
    centers = rng.uniform(-1.0, 1.0, (150, 1))
    scale = 10.0 ** rng.uniform(-3.0, -1.5, 150)
    weights = rng.uniform(0.1, 10.0, 150)
    kept_centers, kept = proposal._kept_centers, []

    def counted(*args):
        tiles = list(kept_centers(*args))
        kept.append([rows.size for rows in tiles])
        return tiles

    monkeypatch.setattr(proposal, "_kept_centers", counted)
    clean = gaussian_kernel_sum(points, centers, scale, weights)
    with_nan = gaussian_kernel_sum(
        np.vstack([points, np.full((3, 1), np.nan)]), centers, scale, weights)
    (clean_kept, nan_kept) = kept
    assert len(nan_kept) == len(clean_kept) == 35
    assert nan_kept[:-1] == clean_kept[:-1] and nan_kept[-1] == 150
    np.testing.assert_array_equal(with_nan[:2200], clean)
    assert np.isnan(with_nan[2200:]).all()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pooled_kernel_sum_keeps_the_callers_error_settings(workers):
    # a point and a center at +inf: inf - inf in the last tile's terms
    points = np.linspace(-1.0, 1.0, 200)[:, None]
    points[7] = np.inf
    centers = np.array([[0.0], [np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="invalid value"):
            gaussian_kernel_sum(points, centers, 0.1, 1.0)
        with np.errstate(invalid="ignore"):
            quiet = gaussian_kernel_sum(points, centers, 0.1, 1.0)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        gaussian_kernel_sum(points, centers, 0.1, 1.0)
    assert np.isnan(quiet[7]) and np.all(np.delete(quiet, 7) > 0.0)
    np.testing.assert_array_equal(
        np.delete(quiet, 7),
        one_point_at_a_time(np.delete(points, 7, axis=0), centers[:1],
                            0.1, 1.0))
    # callers at once, each under settings of its own that it switches
    # between its sums: a sum raises or stays quiet as its caller says
    outcomes = [[] for _ in range(workers)]

    def call(k):
        for invalid in ["raise", "ignore"][k % 2:] + ["raise"] * (k % 2):
            with np.errstate(invalid=invalid):
                try:
                    outcomes[k].append(
                        gaussian_kernel_sum(points, centers, 0.1, 1.0))
                except FloatingPointError as error:
                    outcomes[k].append(error)

    in_callers(call, workers)
    for k, (first, second) in enumerate(outcomes):
        raised, summed = (first, second) if k % 2 == 0 else (second, first)
        assert isinstance(raised, FloatingPointError)
        np.testing.assert_array_equal(summed, quiet)


def test_concurrent_pooled_sums_with_more_threads_than_cpus():
    rng = np.random.default_rng(derive_seed("concurrent sums"))
    points = rng.uniform(-1.0, 1.0, (700, 2))
    centers = rng.uniform(-1.0, 1.0, (80, 2))
    scale = 10.0 ** rng.uniform(-2.0, -0.5, 80)
    expected = [gaussian_kernel_sum(points[i::3], centers, scale, 1.0)
                for i in range(3)]
    results = [None] * 24

    def call(first):  # each caller makes every sixth of 24 sums
        for i in range(first, 24, 6):
            results[i] = gaussian_kernel_sum(points[i % 3::3], centers,
                                             scale, 1.0)

    # 6 callers at once: the sum holds no shared state
    in_callers(call, 6)
    for i, result in enumerate(results):
        np.testing.assert_array_equal(result, expected[i % 3])
