"""Mixture proposals parameterized by the leaves of a tree pyramid.

Each leaf contributes one component centered on its cell: either a uniform
density over the cell or an untruncated isotropic Gaussian whose standard
deviation equals the cell radius. The proposal density is the arithmetic
mean of the component densities over all current leaves.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .tree import Node, TreePyramid, _as_batch


class Kernel(enum.Enum):
    """Per-leaf component family."""

    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


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


_BLOCK_PAIRS = 1 << 22  # cap on point-component pairs per block


def _row_blocks(n: int, m: int):
    """Slices over ``n`` point rows, each of at least one row and otherwise
    of at most ``_BLOCK_PAIRS`` pairs of a point and one of ``m`` columns."""
    step = max(1, _BLOCK_PAIRS // m)
    return (slice(start, start + step) for start in range(0, n, step))


def gaussian_kernel_sum(points, centers, scale, reduce):
    """Isotropic Gaussian kernels of every point against every center.

    ``points`` has shape (n, K), ``centers`` (m, K), and ``scale`` is a
    scalar or one value per center. Points are taken in blocks of at most
    ``_BLOCK_PAIRS`` point-center pairs; for each block the kernel matrix
    ``exp(-0.5 * sum_d ((x_d - c_d) / s)**2)`` is formed, summing the
    squares in dimension order, and ``reduce`` maps it to one value per
    block row. Returns the (n,) concatenation of those values.
    """
    cols = np.ascontiguousarray(centers.T)
    out = np.empty(points.shape[0])
    for rows in _row_blocks(points.shape[0], cols.shape[1]):
        z2 = None
        for x, col in zip(points[rows].T, cols):
            z = x[:, None] - col
            z /= scale
            z *= z
            if z2 is None:
                z2 = z
            else:
                z2 += z
        z2 *= -0.5
        out[rows] = reduce(np.exp(z2, out=z2))
    return out


class TreeProposal:
    """Equal-weight mixture of one component per current leaf.

    ``rows`` arguments name leaves by their row in ``tree.store``: a slice
    (read as a view, as for the children of one split) or an int array.
    """

    def __init__(self, tree: TreePyramid, kernel: Kernel = Kernel.UNIFORM):
        self.tree = tree
        self.kernel = kernel

    def draw(self, rows, rng: np.random.Generator):
        """One draw from the component of each leaf at ``rows``; returns
        the points (n, K) and each point's density under its own
        component."""
        store = self.tree.store
        if isinstance(rows, slice):
            centers, radii = store.center[rows], store.radius[rows]
        else:
            centers, radii = store.center.take(rows, 0), store.radius.take(rows)
        n, dims = centers.shape
        if self.kernel is Kernel.UNIFORM:
            u = rng.random((n, dims))
            points = centers + (2.0 * u - 1.0) * radii[:, None]
            own = 1.0 / (2.0 * radii) ** dims
        else:
            z = rng.standard_normal((n, dims))
            points = centers + z * radii[:, None]
            own = (np.exp(-0.5 * np.sum(z * z, axis=1))
                   / (radii * math.sqrt(2.0 * math.pi)) ** dims)
        return points, own

    def own_density(self, rows, points):
        """Density of each of ``points`` (n, K) under the component of the
        leaf at the same place in ``rows`` (an int array of n leaf rows);
        the uniform component is zero unless the point lies in that leaf."""
        tree, store = self.tree, self.tree.store
        if self.kernel is Kernel.UNIFORM:
            return (tree.locate(points) == rows) / tree.per_level(
                lambda r: (2.0 * r) ** tree.dims, rows)
        z = (points - store.center[rows]) / store.radius[rows][:, None]
        return np.exp(-0.5 * np.sum(z * z, axis=1)) / tree.per_level(
            lambda r: (r * math.sqrt(2.0 * math.pi)) ** tree.dims, rows)

    def density(self, x):
        """Mixture density ``mean_i D(x; leaf_i)`` at one point or a batch.

        The uniform mixture is ``1 / (L * volume)`` of the leaf holding each
        point (zero outside the domain), found by the tree's descent in
        O(n * depth). The Gaussian mixture sums every leaf, in O(n * L).
        """
        tree = self.tree
        pts, single = _as_batch(x, tree.dims)
        if self.kernel is Kernel.UNIFORM:
            rows = tree.locate(pts)
            branching = 2 ** tree.dims
            n_leaves = 1 + (len(tree) - 1) // branching * (branching - 1)
            comp = 1.0 / (n_leaves
                          * (2.0 * np.array(tree.level_radii)) ** tree.dims)
            acc = np.where(rows >= 0, comp.take(tree.store.level.take(rows)),
                           0.0)
        else:
            store = tree.store
            leaves = store.leaf_indices()
            radii = store.radius.take(leaves)
            comp = 1.0 / (len(leaves)
                          * (radii * math.sqrt(2.0 * math.pi)) ** tree.dims)
            acc = gaussian_kernel_sum(pts, store.center.take(leaves, axis=0),
                                      radii, lambda k: k @ comp)
        return float(acc[0]) if single else acc

    def __call__(self, x):
        return self.density(x)


def mixture_weights(tree: TreePyramid) -> np.ndarray:
    """Normalized per-leaf selection weights ``w_i * r_i**K``.

    Leaves whose importance weight is unset or zero contribute zero. Raises
    ``ValueError`` when every leaf does (a degenerate mixture that cannot
    be drawn from).
    """
    store = tree.store
    leaves = store.leaf_indices()
    weights = store.weight.take(leaves)
    vals = (np.where(np.isnan(weights), 0.0, weights)
            * tree.per_level(lambda r: r ** tree.dims, leaves))
    if np.count_nonzero((vals >= 0.0) & (vals < math.inf)) < vals.size:
        raise ValueError("leaf weights must be finite and non-negative")
    total = vals.sum()
    if total <= 0.0:
        raise ValueError("degenerate mixture: every leaf has zero weight")
    return vals / total


def sample_mixture(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Draw a component index by inverse-CDF over ``weights``.

    Returns the smallest index whose cumulative weight reaches the uniform
    draw, so ties and zero-weight entries behave deterministically.
    """
    weights = np.asarray(weights, dtype=float)
    cum = np.cumsum(weights)
    alpha = rng.uniform()
    idx = int(np.searchsorted(cum, alpha, side="left"))
    return min(idx, len(weights) - 1)
