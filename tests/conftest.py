"""Shared helpers for the test suite."""

import math

import numpy as np

from tpais.proposal import Kernel
from tpais.tree import DomainBounds, Node, TreePyramid, _as_batch

# verdict lines collected by the acceptance tests, printed after the run
ACCEPTANCE_LINES = []


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
    pts, single = _as_batch(x, node.dims)
    if kernel is Kernel.UNIFORM:
        out = node.contains(pts) / node.volume
    else:
        z = (pts - node.center) / node.radius
        norm = (node.radius * math.sqrt(2.0 * math.pi)) ** node.dims
        out = np.exp(-0.5 * np.sum(z * z, axis=1)) / norm
    return float(out[0]) if single else out
