"""Shared helpers for the test suite."""

import math

import numpy as np

from tpais.proposal import Kernel
from tpais.targets import GaussianMixture
from tpais.tree import DomainBounds, Node, TreePyramid, _as_batch

# verdict lines collected by the acceptance tests, printed after the run
ACCEPTANCE_LINES = []

# 2D bounds spelled as something other than a DomainBounds: a tuple, a
# list, an array and a string, which every sampler config rejects
NOT_BOUNDS = ((-1.0, 1.0), [[-1.0, -1.0], [1.0, 1.0]],
              np.array([[-1.0, -1.0], [1.0, 1.0]]), "[-1, 1]")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def grow_random_tree(dims, n_expansions, rng, half_width=1.0):
    """Tree over [-half_width, half_width]**dims grown by uniformly random
    leaf expansions."""
    tree = TreePyramid(DomainBounds.centered(dims, half_width))
    for _ in range(n_expansions):
        leaves = tree.leaf_indices()
        tree.expand(leaves[int(rng.integers(len(leaves)))])
    return tree


def dyadic_midpoint_grid(intervals):
    """Trapezoid grid over [-1, 1] whose interior points sit at interval
    midpoints of the dyadic lattice with spacing 2/intervals.

    Every cell boundary of a tree grown over [-1, 1] (a dyadic rational)
    then falls exactly halfway between two adjacent grid points, where the
    trapezoid rule's jump errors cancel identically, so piecewise-constant
    mixture densities integrate exactly up to rounding.
    """
    h = 2.0 / intervals
    inner = -1.0 + (np.arange(intervals) + 0.5) * h
    return np.concatenate(([-1.0], inner, [1.0]))


def component_density(node: Node, x, kernel: Kernel):
    """Density of a single leaf component at ``x``.

    ``x`` may be one point of shape (K,) or a batch of shape (n, K); the
    return value is a scalar or an (n,) array accordingly. The uniform
    component is ``1 / volume`` inside the node's half-open cell and zero
    elsewhere; the Gaussian component is an isotropic normal with mean
    ``center`` and standard deviation ``radius`` in every dimension.
    """
    pts, single = _as_batch(x, node.tree.dims)
    if kernel is Kernel.UNIFORM:
        out = node.contains(pts) / node.volume
    else:
        z = (pts - node.center) / node.radius
        norm = (node.radius * math.sqrt(2.0 * math.pi)) ** node.tree.dims
        out = np.exp(-0.5 * np.sum(z * z, axis=1)) / norm
    return float(out[0]) if single else out


def cube_mixture_density(model: GaussianMixture, x):
    """``model.density`` from one (n, m, K) array of differences summed over
    its last axis: NumPy adds fewer than 8 terms in order, so for K <= 7
    the density, which adds one dimension at a time, gives the same bits."""
    pts, single = _as_batch(x, model.dims)
    z2 = pts[:, None, :] - model.means
    np.square(z2, out=z2)
    z2 /= model.variances
    out = np.exp(-0.5 * z2.sum(axis=2) - model._log_norm) @ model.weights
    return float(out[0]) if single else out


def serialize_tree(tree: TreePyramid) -> str:
    """Render a tree as deterministic line-oriented text.

    One node per line in depth-first preorder (children in sign order);
    fields are level, center coordinates, radius, weight and sample
    coordinates, space-separated, with ``-`` for unset values.
    """
    fanout = 2 ** tree.dims
    lines, stack = [], [0]
    while stack:
        row = stack.pop()
        weight, sample = float(tree.weight[row]), tree.sample[row].tolist()
        fields = [str(tree.level[row]),
                  *map(repr, tree.center[row].tolist()),
                  repr(tree.level_radii.item(tree.level[row])),
                  "-" if math.isnan(weight) else repr(weight),
                  *(["-"] if math.isnan(sample[0]) else map(repr, sample))]
        lines.append(" ".join(fields))
        first = int(tree.first_child[row])
        if first >= 0:
            stack.extend(reversed(range(first, first + fanout)))
    return "\n".join(lines) + "\n"
