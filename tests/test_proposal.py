"""Proposal mixture tests: component densities, normalization, mixture draws."""

import math

import numpy as np
import pytest

from conftest import dyadic_midpoint_grid, grow_random_tree
from tpais.proposal import (Kernel, TreeProposal, component_density,
                            mixture_weights, sample_mixture)
from tpais.tree import DomainBounds, TreePyramid


class _FixedAlpha:
    """Random source stub returning a fixed uniform draw."""

    def __init__(self, alpha):
        self.alpha = alpha

    def uniform(self):
        return self.alpha


def _three_leaf_tree():
    # leaves: [-1, -0.5), [-0.5, 0) with radius 0.25, and [0, 1] with 0.5
    tree = TreePyramid(DomainBounds.centered(1))
    plus, minus = tree.expand(tree.root)
    tree.expand(minus)
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
    plus, minus = tree.expand(tree.root)
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
    child = tree.expand(tree.root)[0]  # radius 0.5
    val = component_density(child, child.center, Kernel.GAUSSIAN)
    assert abs(val - 1.0 / (2.0 * math.pi * 0.25)) < 1e-12


def test_single_leaf_density():
    tree = TreePyramid(DomainBounds.centered(1))
    prop = TreeProposal(tree, Kernel.UNIFORM)
    assert prop.density(np.array([0.0])) == 0.5


def test_two_leaf_density_constant():
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(tree.root)
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
            brute = np.mean([component_density(leaf, pts, kernel)
                             for leaf in tree.leaves()], axis=0)
            np.testing.assert_allclose(prop.density(pts), brute,
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
        q = TreeProposal(tree, Kernel.UNIFORM).density(grid[:, None])
        assert abs(np.trapezoid(q, grid) - 1.0) < 1e-9


def test_density_rejects_bad_shapes():
    prop = TreeProposal(TreePyramid(DomainBounds.centered(2)), Kernel.UNIFORM)
    with pytest.raises(ValueError):
        prop.density(np.zeros(3))
    with pytest.raises(ValueError):
        prop.density(np.zeros((4, 3)))


def test_callable_alias():
    prop = TreeProposal(TreePyramid(DomainBounds.centered(1)), Kernel.UNIFORM)
    assert prop(np.array([0.2])) == prop.density(np.array([0.2]))


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
        leaves = odd.leaves()
        odd.expand(leaves[int(rng.integers(len(leaves)))])
    return trees + [odd]


@pytest.mark.parametrize("kernel", list(Kernel))
def test_own_density_matches_component_density(kernel):
    # each leaf's own component, evaluated at its own draw and at points
    # scattered over the domain (mostly outside the leaf), bit for bit
    rng = np.random.default_rng(31)
    for tree in _random_trees(rng):
        prop = TreeProposal(tree, kernel)
        leaves = tree.leaves()
        rows = np.array([leaf.index for leaf in leaves])
        points, _ = prop.draw(rows, rng)
        lo, hi = tree.bounds.lower, tree.bounds.upper
        for pts in (points, rng.uniform(lo, hi, size=points.shape)):
            expected = [component_density(leaf, x, kernel)
                        for leaf, x in zip(leaves, pts)]
            assert prop.own_density(rows, pts).tolist() == expected


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
        children = tree.expand(leaves[-1])
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
    tree = TreePyramid(DomainBounds.centered(1))
    a, b = tree.expand(tree.root)
    a.weight, b.weight = 1.0, 1.0
    np.testing.assert_allclose(mixture_weights(tree), [0.5, 0.5])
    a.weight, b.weight = 3.0, 1.0
    np.testing.assert_allclose(mixture_weights(tree), [0.75, 0.25])


def test_mixture_weights_radius_power():
    # equal weights but radii 0.5 vs 0.25 in 2D: r**2 gives 0.25 vs 0.0625;
    # the other leaves have no weight and contribute zero
    tree = TreePyramid(DomainBounds.centered(2))
    big = tree.expand(tree.root)[1]
    small = tree.expand(tree.root.children[0])[3]
    assert (big.radius, small.radius) == (0.5, 0.25)
    big.weight = small.weight = 1.0
    leaves = tree.leaves()
    pair = [leaves.index(big), leaves.index(small)]
    weights = mixture_weights(tree)
    np.testing.assert_allclose(weights[pair], [0.8, 0.2])
    assert np.all(np.delete(weights, pair) == 0.0)


def test_mixture_weights_normalized_on_random_trees():
    rng = np.random.default_rng(19)
    for _ in range(20):
        tree = grow_random_tree(int(rng.integers(1, 4)),
                                int(rng.integers(1, 8)), rng)
        for leaf in tree.leaves():
            leaf.weight = float(rng.uniform(0.0, 5.0))
        weights = mixture_weights(tree)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.all(weights >= 0.0)


def test_mixture_weights_unset_contribute_zero():
    tree = TreePyramid(DomainBounds.centered(1))
    a, b = tree.expand(tree.root)
    a.weight = 2.0
    np.testing.assert_allclose(mixture_weights(tree), [1.0, 0.0])


def test_mixture_weights_degenerate():
    tree = TreePyramid(DomainBounds.centered(1))
    with pytest.raises(ValueError, match="degenerate"):
        mixture_weights(tree)
    tree.root.weight = 0.0
    with pytest.raises(ValueError, match="degenerate"):
        mixture_weights(tree)


def test_sample_mixture_inverse_cdf():
    assert sample_mixture(np.array([1.0]), _FixedAlpha(0.99)) == 0
    assert sample_mixture(np.array([0.5, 0.5]), _FixedAlpha(0.3)) == 0
    assert sample_mixture(np.array([0.5, 0.5]), _FixedAlpha(0.5)) == 0
    assert sample_mixture(np.array([0.2, 0.3, 0.5]), _FixedAlpha(0.6)) == 2
    assert sample_mixture(np.array([0.2, 0.3, 0.5]), _FixedAlpha(1.0)) == 2
    # any positive draw skips zero-weight leading entries
    assert sample_mixture(np.array([0.0, 1.0]), _FixedAlpha(1e-12)) == 1


def test_sample_mixture_frequencies():
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(5)
    counts = np.zeros(4)
    n = 100_000
    for _ in range(n):
        counts[sample_mixture(weights, rng)] += 1
    chi2 = np.sum((counts - n * weights) ** 2 / (n * weights))
    assert chi2 < 16.27  # chi-square critical value, 3 dof, alpha 1e-3
