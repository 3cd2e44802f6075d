"""Shared helpers for the test suite."""

import numpy as np

from tpais.tree import DomainBounds, TreePyramid

# verdict lines collected by the acceptance tests, printed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def grow_random_tree(dims, n_expansions, rng):
    """Tree over [-1, 1]**dims grown by uniformly random leaf expansions."""
    tree = TreePyramid(DomainBounds.centered(dims))
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
