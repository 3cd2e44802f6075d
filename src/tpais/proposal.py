"""Mixture proposals parameterized by the leaves of a tree pyramid.

Each leaf contributes one component centered on its cell: either a uniform
density over the cell or an untruncated isotropic Gaussian whose standard
deviation equals the cell radius. The proposal density is the arithmetic
mean of the component densities over all current leaves.

The Gaussian mixture, the KDE of ``metrics`` and the deterministic-mixture
weights of ``baselines.run_pmc`` are one weighted kernel sum,
``gaussian_kernel_sum``: each caller passes its normalization as per-center
weights. At a point x, center j's log-term is
``t_j(x) = log w_j - z_j(x)**2 / 2``, and the sum drops every term with
``t_j(x) < max_i t_i(x) - _CUT``, ``_CUT = 40``. Each dropped term is
below ``e**-40`` (4.2e-18) of the point's largest, so the value is within
``m * e**-40`` (relative) of the dense sum over m centers, and it is
positive wherever the largest term does not underflow. The rule reads the
point alone, and the kept terms are added in center order, so a point's
value is the same bits alone, in any batch, tile, order or thread.

Large batches are taken in tiles that follow a grid over the batch's
bounding box: a tile is the points of one grid cell, the cells are
visited in Z-order (Morton 1966), and a cell with more points than a tile
may hold is cut into runs that follow the Z-order of a finer grid. Each
tile skips the centers that none of its points keeps: a center whose
log-term stays more than 40 below a lower bound on every point's largest
all over the tile's bounding box, and one whose kernel is exactly 0.0 all
over the box (``exp(-0.5 * z**2)`` is 0.0 in float64 once ``z**2``
exceeds about 1490). This is the cutoff with an error bound of the
improved fast Gauss transform (Yang, Duraiswami & Gumerov 2003) and of
dual-tree kernel sums (Gray & Moore 2001). The box bounds take the terms'
own floating-point operations, so the tiles keep a superset of the terms
the rule keeps, and skipping changes no bit. The tiles are box-tested 16
at a time as the sum reaches them (in 2D, a 4 x 4 block of cells): over
their joint box, then each among the centers kept there.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .tree import TreePyramid, _as_batch, _member


class Kernel(enum.Enum):
    """Per-leaf component family."""

    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


# exp(-0.5 * z2) is exactly 0.0 in float64 once z2 > 1490.3
_ZERO_Z2 = 1600.0
_CUT = 40.0  # a point drops each term this far below its largest log-term
_TILE_POINTS = 64       # query points per grid cell (four times in 1D)
_TILE_FLOATS = 1 << 22  # cap on the pairs of any one array of a sum
_BOX_GROUP = 16  # tiles whose box is tested first as one


def _sorted_rows(points: np.ndarray, per_cell: int, rows: int):
    """The order that sorts the rows of ``points`` by the cell of a grid
    over the bounding box of their finite coordinates, with about
    ``per_cell`` points per cell and at least ``_BOX_GROUP`` cells, and
    the first sorted row of each tile: a tile is the rows of one cell,
    cut into runs of at most ``rows``. The rows with a non-finite
    coordinate sort last, as one more cell.

    Cells are visited in Z-order: the Morton key of a cell puts bit b of
    its index on axis k at bit ``b * K + k``, so that each aligned block
    of 2**(jK) cells is a run of keys. Inside a cell the rows follow the
    same order on a grid about ``per_cell`` times finer, so that each run
    of a fuller cell lies together. The key holds at most 62 bits, which
    caps both grids past 31 axes (past 62, the grid is one cell).
    """
    n, dims = points.shape
    room = 62 // dims  # key bits per axis; bit 62 marks non-finite rows
    cells = min(max(round((n / per_cell) ** (1.0 / dims)),  # per axis
                    math.ceil(_BOX_GROUP ** (1.0 / dims))), 1 << room)
    finer = min(-(-(per_cell - 1).bit_length() // dims),  # bits per axis
                room - (cells - 1).bit_length())
    fine = cells << finer  # the finer grid's cells per axis
    bits = (fine - 1).bit_length()
    spread = np.zeros(1, dtype=np.int64)  # each index's bits, K apart
    for b in range(bits):
        spread = np.concatenate((spread, spread | (1 << (b * dims))))
    key = np.zeros(n, dtype=np.int64)
    finite = np.ones(n, dtype=bool)
    for k, column in enumerate(points.T):  # a column at a time is faster
        ok = np.isfinite(column)
        finite &= ok
        lo = np.where(ok, column, np.inf).min()
        span = np.where(ok, column, -np.inf).max() - lo
        cell = np.zeros(n)
        if 0.0 < span < math.inf:  # else every row is in cell 0
            cell = np.minimum(np.floor((column - lo) * (fine / span)),
                              fine - 1)
        # a non-finite row sorts as cell 0 here, and last below
        key |= spread.take(np.where(ok, cell, 0.0).astype(np.intp)) << k
    key[~finite] = 1 << (bits * dims)
    order = np.argsort(key)
    key = key.take(order) >> (finer * dims)  # the cell's own key
    cell_starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    tiles = -(-np.diff(cell_starts, append=n) // rows)  # per cell
    first = np.repeat(cell_starts, tiles)
    nth = np.arange(first.size) - np.repeat(np.cumsum(tiles) - tiles, tiles)
    return order, first + nth * rows


def _per_center(value, m):
    """One number as a Python float, else one float per center."""
    if isinstance(value, float):
        return value
    value = np.asarray(value, dtype=float)
    return float(value) if value.ndim == 0 else np.broadcast_to(value, (m,))


def _take(value, kept):
    """``value`` at the ``kept`` centers; one float stays as it is."""
    return value if isinstance(value, float) else value.take(kept)


def _tile_sum(x, centers, scale, weights, log_weights):
    """``sum_j w_j * exp(-0.5 * z_j**2)`` at each point of ``x`` (t, K)
    over the terms each point keeps, added one center at a time in center
    order. ``log_weights`` is None where ``weights`` is one float."""
    if x.shape[0] == 1:  # NumPy sums one column pairwise, two row by row
        return _tile_sum(np.repeat(x, 2, axis=0), centers, scale, weights,
                         log_weights)[:1]
    s = scale if isinstance(scale, float) else scale[:, None]
    h = None
    for c, xd in zip(centers.T, x.T):
        z = c[:, None] - xd
        z /= s
        z *= z
        if h is None:
            h = z
        else:
            h += z
    h *= -0.5  # the log-kernels, which rank the log-terms under one weight
    t = h
    if log_weights is not None:  # into the last dimension's block, if free
        t = np.add(h, log_weights[:, None], out=None if z is h else z)
    # a mask, not -inf, drops the terms: exp is slower at -inf. (A NaN
    # log-term makes the point's sum NaN, kept or not.)
    kept = t >= t.max(axis=0) - _CUT
    k = np.exp(h, out=h)
    k *= kept
    k *= weights if isinstance(weights, float) else weights[:, None]
    return k.sum(axis=0)  # a (centers, points) block, summed row by row


def _box_skip(lo, hi, centers, scale, log_weights):
    """A (boxes, centers) mask of the centers whose term no point of the
    box ``[lo, hi]`` keeps, one box per row of ``lo`` and ``hi``.

    Over a box a center's log-term is at most ``top``, at the box's point
    nearest to the center, and at least its value at the farthest corner;
    so every point's largest is at least ``floor``, the most of the
    latter. The bounds take the floating-point operations of the terms in
    the same order, which round monotonically, so they hold in floating
    point too. A center whose ``top`` is more than ``_CUT`` below
    ``floor`` is skipped, and so is one whose kernel is exactly 0.0 all
    over the box (scaled distance past ``sqrt(_ZERO_Z2)``) unless it may
    be a point's largest. A NaN bound skips nothing.
    """
    # squared scaled distances from each center to the nearest and the
    # farthest point of each box
    near = far = 0.0
    for c, lo_d, hi_d in zip(centers.T, lo.T, hi.T):
        below, above = lo_d[:, None] - c, c - hi_d[:, None]
        gap = np.maximum(below, above)
        np.maximum(gap, 0.0, out=gap)
        near += np.square(gap / scale)
        far += np.square(np.minimum(below, above, out=below) / scale)
    top, low = near * -0.5, far * -0.5
    if log_weights is not None:
        top += log_weights
        low += log_weights
    floor = low.max(axis=1, keepdims=True)
    skip = top < floor - _CUT
    zero = near > _ZERO_Z2
    # under one weight a point's largest term is a zero only if all are
    if log_weights is not None:
        zero &= top < floor
    return np.logical_or(skip, zero, out=skip)


def _kept_centers(x, starts, centers, scale, log_weights):
    """Yield, for each tile of ``x`` in turn (the rows from one of
    ``starts`` to the next), the rows of the centers that some point of
    its bounding box may keep; a box with a non-finite bound keeps every
    center.

    The tiles are tested ``_BOX_GROUP`` at a time, as the caller reaches
    them. The centers kept over a group's box, a superset of those its
    tiles keep, are the candidates of each of its tiles, all tested in one
    (tiles, candidates) array, split only past ``_TILE_FLOATS``.
    """
    lo, hi = np.minimum.reduceat(x, starts), np.maximum.reduceat(x, starts)
    unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
    lo[unbounded] = hi[unbounded] = np.nan  # a NaN bound skips nothing
    for first in range(0, starts.size, _BOX_GROUP):
        lo_g, hi_g = lo[first:first + _BOX_GROUP], hi[first:first + _BOX_GROUP]
        (skip,) = _box_skip(lo_g.min(axis=0, keepdims=True),
                            hi_g.max(axis=0, keepdims=True), centers, scale,
                            log_weights)
        candidates = np.flatnonzero(~skip)
        if not candidates.size:
            yield from (candidates for _ in lo_g)
            continue
        among = (centers.take(candidates, axis=0), _take(scale, candidates),
                 None if log_weights is None
                 else log_weights.take(candidates))
        step = max(1, _TILE_FLOATS // candidates.size)
        for i in range(0, len(lo_g), step):
            for keep in ~_box_skip(lo_g[i:i + step], hi_g[i:i + step], *among):
                yield candidates[keep]


def gaussian_kernel_sum(points, centers, scale, weights):
    """Weighted isotropic Gaussian kernels ``sum_j w_j * exp(-0.5 * z_j**2)``
    at each point, where ``z_j = |x - c_j| / s_j``, over the terms each
    point keeps.

    ``points`` has shape (n, K), ``centers`` (m, K), and ``scale`` and
    ``weights`` (non-negative) are scalars or one value per center.
    Returns shape (n,). At each point the terms whose log-term
    ``log w_j - z_j**2 / 2`` is more than ``_CUT`` (40) below the point's
    largest are dropped; the value is within ``m * e**-40`` (relative) of
    the dense sum and positive wherever the largest term does not
    underflow. The kept terms are added one center at a time in center
    order, over a centers × points block with ``z**2`` summed in dimension
    order, so a point's value is the same bits alone and in any batch,
    tile, order or thread. A batch that fits one grid cell is one block. A
    larger one is taken one cell at a time, in Z-order, each cell against
    the centers that its box test keeps. A cell holds about
    ``_TILE_POINTS`` points, ``4 * _TILE_POINTS`` in 1D, where a cell of
    a 20000-point batch is still about 1/80 of the span and the cost is
    per tile, not in box slack; and no tile holds more than
    ``_TILE_FLOATS`` center-point pairs. One scale or weight is divided
    and multiplied as a Python float.
    """
    m = centers.shape[0]
    if not m:
        return np.zeros(points.shape[0])
    scale, weights = _per_center(scale, m), _per_center(weights, m)
    log_weights = None
    if not isinstance(weights, float):
        with np.errstate(divide="ignore"):  # a zero weight's is -inf
            log_weights = np.log(weights)
    rows = max(1, _TILE_FLOATS // m)  # the most rows of a tile
    per_cell = min(_TILE_POINTS * (4 if points.shape[1] == 1 else 1), rows)
    # a batch in one cell, as in DM-PMC: a sort and a box test would cost
    # about as much as its kernels
    if points.shape[0] <= per_cell:
        return _tile_sum(points, centers, scale, weights, log_weights)
    order, starts = _sorted_rows(points, per_cell, rows)
    x = points.take(order, axis=0)
    out = np.empty(points.shape[0])
    bounds = starts.tolist() + [len(order)]
    for i, j, kept in zip(bounds, bounds[1:], _kept_centers(
            x, starts, centers, scale, log_weights)):
        if not kept.size:
            out[order[i:j]] = 0.0
            continue
        out[order[i:j]] = _tile_sum(
            x[i:j], centers.take(kept, axis=0), _take(scale, kept),
            _take(weights, kept),
            None if log_weights is None else log_weights.take(kept))
    return out


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
            vol = (2.0 * tree.level_radii) ** tree.dims
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
