"""Mixture proposals parameterized by the leaves of a tree pyramid.

Each leaf contributes one component centered on its cell: either a uniform
density over the cell or an untruncated isotropic Gaussian whose standard
deviation equals the cell radius. The proposal density is the arithmetic
mean of the component densities over all current leaves.

The Gaussian mixture, the KDE of ``metrics`` and the deterministic-mixture
weights of ``baselines.run_pmc`` are one weighted kernel sum,
``gaussian_kernel_sum``: each caller passes its normalization as per-center
weights. ``exp(-0.5 * z**2)`` is exactly 0.0 in float64 once ``z**2``
exceeds about 1490, so the sum takes large batches in spatially sorted
tiles and skips, per tile, every center too far from all of the tile's
points to give a nonzero term (the exact-zero case of the fast Gauss
transform and of dual-tree kernel sums). Each point's terms are added in
center order, so skipping zeros changes no bit, and a point's value does
not depend on the batch or tile it is taken in. Skipping pays where the
kernels are narrow against the spread of the points, as for the leaves
of a deep tree. A KDE whose reach, ``sqrt(1600)`` bandwidths, spans the
domain skips almost nothing: there the tiles only keep each block small,
and the sort and the box tests are overhead.

Since no tile's values depend on another tile, the sorted tiles are dealt
out in turn (``tiles[i::k]``) to k threads, and each thread writes its
own rows of the result: NumPy releases the interpreter lock inside the
ufuncs and reductions of a tile, so the threads overlap, and the result
is the same bits as one thread's. k is the number of CPUs the process may
use, at most ``_MAX_WORKERS`` and at most the batch's full tiles. Threads
pay only where a tile's blocks are large (``_THREAD_PAIRS``): against few
centers the interpreter steps between NumPy calls, which hold the lock,
cost more than the threads save. The tiles in flight share the cap on
center-point pairs, so past ``_TILE_FLOATS // (k * size)`` centers fewer
threads take part, and the tiles keep their size. The threads run under
the caller's floating-point error settings and end with the call, so a
forked child (as in ``bench.run_experiments(workers > 1)``) inherits no
pool whose threads it lacks.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .tree import TreePyramid, _as_batch, _member


class Kernel(enum.Enum):
    """Per-leaf component family."""

    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


# exp(-0.5 * z2) is exactly 0.0 in float64 once z2 > 1490.3; the margin
# covers rounding in the bound below
_ZERO_Z2 = 1600.0
_TILE_POINTS = 64       # query points per tile
_TILE_FLOATS = 1 << 22  # cap on center-point pairs in flight
_THREAD_PAIRS = 1 << 15  # least center-point pairs a tile needs for threads


# threads that share the tiles of one sum: the CPUs this process may use,
# at most _MAX_WORKERS (an affinity mask does not show a CPU quota)
_MAX_WORKERS = 8
try:
    _WORKERS = min(_MAX_WORKERS, len(os.sched_getaffinity(0)))
except AttributeError:  # no sched_getaffinity on this platform
    _WORKERS = min(_MAX_WORKERS, os.cpu_count() or 1)


def _tiles(points: np.ndarray, size: int):
    """Row indices of ``points`` in consecutive tiles of at most ``size``,
    sorted by the cell of a grid over the bounding box of their finite
    coordinates with about ``size`` points per cell, so that each tile's
    points lie together."""
    n, dims = points.shape
    finite = np.isfinite(points)
    lo = np.where(finite, points, np.inf).min(axis=0)
    span = np.where(finite, points, -np.inf).max(axis=0) - lo
    cells = max(1, round((n / size) ** (1.0 / dims)))
    per_unit = np.divide(cells, span, out=np.zeros(dims), where=span > 0.0)
    with np.errstate(invalid="ignore"):  # a non-finite point sorts anywhere
        order = np.lexsort(np.floor((points - lo) * per_unit).T)
    return [order[start:start + size] for start in range(0, n, size)]


def _tile_sum(x, centers, scale, weights):
    """``sum_j w_j * exp(-0.5 * z_j**2)`` at each point of ``x`` (t, K),
    with the terms added one center at a time in center order."""
    if x.shape[0] == 1:  # NumPy sums one column pairwise, two row by row
        return _tile_sum(np.repeat(x, 2, axis=0), centers, scale, weights)[:1]
    z2 = None
    for c, xd in zip(centers.T, x.T):
        z = c[:, None] - xd
        z /= scale[:, None]
        z *= z
        if z2 is None:
            z2 = z
        else:
            z2 += z
    z2 *= -0.5
    k = np.exp(z2, out=z2)
    k *= weights[:, None]
    return k.sum(axis=0)  # a (centers, points) block, summed row by row


def _within_reach(x, centers, scale):
    """Indices of the centers whose kernel may be nonzero at some point of
    the bounding box of ``x``: those whose scaled distance to the box is
    at most ``sqrt(_ZERO_Z2)``, or NaN."""
    gap = np.maximum(x.min(axis=0) - centers, centers - x.max(axis=0))
    np.maximum(gap, 0.0, out=gap)
    gap /= scale[:, None]
    return np.flatnonzero(~(np.square(gap, out=gap).sum(axis=1) > _ZERO_Z2))


def gaussian_kernel_sum(points, centers, scale, weights):
    """Weighted isotropic Gaussian kernels ``sum_j w_j * exp(-0.5 * z_j**2)``
    at each point, where ``z_j = |x - c_j| / s_j``.

    ``points`` has shape (n, K), ``centers`` (m, K), and ``scale`` and
    ``weights`` are scalars or one value per center. Returns shape (n,).
    Each point's terms are added one center at a time in center order,
    over a centers × points block with ``z**2`` summed in dimension order.
    A batch that fits one tile of ``_TILE_POINTS`` points and
    ``_TILE_FLOATS`` center-point pairs is one block. A larger one is
    taken in spatially sorted tiles, shared among threads where they pay,
    and each tile skips every center whose scaled distance to the
    tile's bounding box exceeds ``sqrt(_ZERO_Z2)``: its kernel is exactly
    0.0 at each of the tile's points, and adding 0.0 would not change the
    sum. So a point's value is the same bits in any batch, tile or thread.
    """
    m = centers.shape[0]
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (m,))
    weights = np.broadcast_to(np.asarray(weights, dtype=float), (m,))
    size = max(1, min(_TILE_POINTS, _TILE_FLOATS // max(m, 1)))
    # one small batch, as in DM-PMC: a sort and a box test would cost
    # about as much as its kernels
    if points.shape[0] <= size:
        return _tile_sum(points, centers, scale, weights)
    tiles = _tiles(points, size)
    # threads pay only where a tile's blocks are large; each takes at least
    # one full tile, and the threads' tiles in flight share the cap on pairs
    workers = 1
    if size * m >= _THREAD_PAIRS:
        workers = min(_WORKERS, points.shape[0] // size,
                      _TILE_FLOATS // (size * m))
    out = np.empty(points.shape[0])
    share = functools.partial(_share_sum, points=points, centers=centers,
                              scale=scale, weights=weights, out=out,
                              settings=np.geterr(), call=np.geterrcall())
    if workers <= 1:
        share(tiles)
        return out
    # a pool per call: its threads end with the call, so a forked child
    # inherits none that it lacks
    with ThreadPoolExecutor(workers, thread_name_prefix="kernel-sum") as pool:
        for _ in pool.map(share, [tiles[i::workers] for i in range(workers)]):
            pass  # a share's exception is raised here, in the caller
    return out


def _share_sum(tiles, points, centers, scale, weights, out, settings, call):
    """Write the sum at the rows of each of ``tiles`` into ``out``, under
    the caller's floating-point error ``settings`` and ``call``back."""
    with np.errstate(call=call, **settings):
        for rows in tiles:
            x = points[rows]
            near = _within_reach(x, centers, scale)
            out[rows] = _tile_sum(x, centers[near], scale[near],
                                  weights[near])


class TreeProposal:
    """Equal-weight mixture of one component per current leaf.

    ``rows`` arguments name leaves by their row in ``tree``: a slice
    (read as a view, as for the children of one split) or an int array.
    ``kernel`` must be a ``Kernel``, or a ``ValueError`` names it.
    """

    def __init__(self, tree: TreePyramid, kernel: Kernel = Kernel.UNIFORM):
        self.tree = tree
        self.kernel = _member("kernel", kernel, Kernel)

    def draw(self, rows, rng: np.random.Generator):
        """One draw from the component of each leaf at ``rows``; returns
        the points (n, K) and each point's density under its own
        component."""
        tree = self.tree
        centers = (tree.center[rows] if isinstance(rows, slice)
                   else tree.center.take(rows, 0))
        radii = tree.radii(rows)
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

    def density(self, x, every_node=False):
        """Mixture density ``mean_i D(x; leaf_i)`` at one point or a batch,
        or with ``every_node`` the mean over every node of the tree.

        A point lies in the cells of its leaf and of its leaf's ancestors, so
        the uniform mixture is read at the level of the leaf that the tree's
        descent finds (zero outside the domain). The Gaussian one sums all.
        """
        tree = self.tree
        pts, single = _as_batch(x, tree.dims)
        if self.kernel is Kernel.UNIFORM:
            rows = tree.locate(pts)
            vol = (2.0 * tree.level_radius_array) ** tree.dims
            comp = (np.cumsum(1.0 / vol) / len(tree) if every_node
                    else 1.0 / (tree.leaf_indices().size * vol))
            acc = np.where(rows >= 0, comp.take(tree.level.take(rows)),
                           0.0)
        else:
            nodes = np.arange(len(tree)) if every_node else tree.leaf_indices()
            radii = tree.radii(nodes)
            comp = 1.0 / (len(nodes)
                          * (radii * math.sqrt(2.0 * math.pi)) ** tree.dims)
            acc = gaussian_kernel_sum(pts, tree.center.take(nodes, axis=0),
                                      radii, comp)
        return float(acc[0]) if single else acc
