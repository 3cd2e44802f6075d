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

from .tree import Node, TreePyramid


class Kernel(enum.Enum):
    """Per-leaf component family."""

    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


def _as_batch(x, dims: int):
    """Coerce a point or batch of points to shape (n, dims)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != dims:
            raise ValueError(f"point has {x.shape[0]} coordinates, expected {dims}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != dims:
        raise ValueError(f"expected points of shape (n, {dims})")
    return x, False


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


class TreeProposal:
    """Equal-weight mixture of one component per current leaf."""

    _CHUNK = 1 << 22  # cap on points * leaves per broadcast block

    def __init__(self, tree: TreePyramid, kernel: Kernel = Kernel.UNIFORM):
        self.tree = tree
        self.kernel = kernel
        self._cache_size = -1
        self._cache = None

    def _leaf_arrays(self):
        """Gaussian leaf components from the tree's store, cached until the
        tree grows.

        Centers have shape (K, L), so each dimension's row is contiguous.
        """
        size = len(self.tree)
        if size != self._cache_size:
            store = self.tree.store
            leaves = store.leaf_indices()
            centers = np.ascontiguousarray(store.center.take(leaves, axis=0).T)
            radii = store.radius.take(leaves)
            dims = self.tree.dims
            comp = 1.0 / (len(leaves)
                          * (radii * math.sqrt(2.0 * math.pi)) ** dims)
            self._cache = (centers, radii, comp)
            self._cache_size = size
        return self._cache

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
            centers, radii, comp = self._leaf_arrays()
            acc = np.empty(pts.shape[0])
            step = max(1, self._CHUNK // radii.shape[0])
            for start in range(0, pts.shape[0], step):
                block = pts[start:start + step]
                z2 = np.zeros((block.shape[0], radii.shape[0]))
                for d in range(tree.dims):
                    diff = (block[:, d, None] - centers[d]) / radii
                    z2 += diff * diff
                acc[start:start + step] = np.exp(-0.5 * z2) @ comp
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
