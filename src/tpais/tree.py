"""Tree pyramids: full 2**K-ary partition trees over hypercube domains.

Every node owns an axis-aligned hypercube cell described by a center and a
single scalar half-width (radius). Expanding a node splits its cell into
2**K congruent sub-cells, one per sign combination of ``center +- radius/2``.

Cells are defined by one rule, the descent from the root: a point of the
closed domain box moves to the "+" child along dimension ``d`` when
``x[d] >= center[d]`` of the node it is in, and its cell is every node the
descent passes. So lower faces are closed, upper faces are open except on
the domain's upper boundary, and the leaves partition the domain exactly,
also where ``center +- radius`` rounds away from a parent's center.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

MAX_DEPTH = 64  # deepest level a node may have; the root is level 0


class DepthLimitError(RuntimeError):
    """Raised when expanding a node would exceed ``MAX_DEPTH``."""


def _as_batch(x, dims: int):
    """Coerce a point or batch to shape (n, dims); flags a single point."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != dims:
            raise ValueError(f"point has {x.shape[0]} coordinates, expected {dims}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != dims:
        raise ValueError(f"expected points of shape (n, {dims})")
    return x, False


def _count(key: str, value, least=1) -> int:
    """``value`` as an int; a ``ValueError`` naming ``key`` unless it is a
    whole number >= ``least`` (if not None) or a string spelling one.
    Booleans are not counts."""
    try:
        number = int(value)
        if (not isinstance(value, (bool, np.bool_))
                and (isinstance(value, str) or number == value)
                and (least is None or number >= least)):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    bound = "" if least is None else f" >= {least}"
    raise ValueError(f"{key} must be a whole number{bound}, got {value!r}")


def _member(key: str, value, kind):
    """``value`` as a ``kind``; a ``ValueError`` naming ``key`` unless it is
    a member of the enum ``kind`` or, for ``kind=bool``, a ``bool`` or
    ``np.bool_``. No string spelling is accepted."""
    if isinstance(value, (bool, np.bool_) if kind is bool else kind):
        return kind(value)
    raise ValueError(f"{key} must be a {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class DomainBounds:
    """Axis-aligned hypercube domain ``[lower_d, upper_d]`` for each dimension.

    Bounds must be finite, and extents strictly positive and equal across
    dimensions: the tree uses one scalar radius per node, so only hypercube
    domains are supported.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or lower.size == 0 or lower.shape != upper.shape:
            raise ValueError("bounds must be non-empty 1-d arrays of equal "
                             "length")
        if not np.all(np.isfinite([lower, upper])):
            raise ValueError("domain bounds must be finite")
        extents = upper - lower
        if np.any(extents <= 0.0):
            raise ValueError("every upper bound must exceed its lower bound")
        if not np.allclose(extents, extents[0], rtol=1e-12, atol=0.0):
            raise ValueError("domain must be a hypercube (equal extents)")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def centered(cls, dims: int, half_width: float = 1.0) -> "DomainBounds":
        """Symmetric domain ``[-half_width, half_width]**dims``."""
        dims = _count("dims", dims)
        return cls(np.full(dims, -half_width), np.full(dims, half_width))

    @property
    def dims(self) -> int:
        return self.lower.shape[0]

    @property
    def center(self) -> np.ndarray:
        return (self.upper + self.lower) / 2.0

    @property
    def radius(self) -> float:
        return float((self.upper[0] - self.lower[0]) / 2.0)

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


# (name, one value per dimension, dtype, value of a row before it is written)
_COLUMNS = (
    ("center", True, float, 0.0),
    ("level", False, np.int64, 0),
    ("first_child", False, np.int64, -1),
    ("sample", True, float, np.nan),
    ("target_value", False, float, np.nan),
    ("weight", False, float, np.nan),
)


class Node:
    """Read-only handle on one cell of a tree pyramid: row ``index`` of
    ``tree``.

    Handles are made on demand and compare equal, and hash, by the tree
    they belong to and their row. They view the cell and its place in the
    tree; every attribute reads the tree's row. A node's last draw is read
    from the tree's ``sample``, ``target_value`` and ``weight`` columns.

    Attributes
    ----------
    center : ndarray, shape (K,)
        Cell center (a copy of the row).
    radius : float
        Scalar half-width; the cell is ``center +- radius`` in every axis.
    level : int
        Depth below the root (root is 0).
    children : list of Node
        Empty for leaves, exactly ``2**K`` entries otherwise.
    """

    __slots__ = ("tree", "index")

    def __init__(self, tree: "TreePyramid", index: int):
        self.tree = tree
        self.index = index

    def __eq__(self, other):
        return (isinstance(other, Node) and self.tree is other.tree
                and self.index == other.index)

    def __hash__(self):
        return hash((id(self.tree), self.index))

    @property
    def center(self) -> np.ndarray:
        return self.tree.center[self.index].copy()

    @property
    def radius(self) -> float:
        return self.tree.level_radii[self.level]

    @property
    def level(self) -> int:
        return int(self.tree.level[self.index])

    @property
    def children(self) -> list["Node"]:
        first = int(self.tree.first_child[self.index])
        rows = range(first, first + 2 ** self.tree.dims) if first >= 0 else ()
        return [Node(self.tree, row) for row in rows]

    @property
    def volume(self) -> float:
        return float((2.0 * self.radius) ** self.tree.dims)

    def contains(self, x):
        """Whether the cell holds ``x``: a bool for one point (K,), a bool
        array for a batch (n, K).

        A cell holds the points whose descent from the root passes through
        this node (see the module docstring); the root holds the closed
        domain box.
        """
        pts, single = _as_batch(x, self.tree.dims)
        inside = self.tree._descend(pts, self.level) == self.index
        return bool(inside[0]) if single else inside


class TreePyramid:
    """Full 2**K-ary tree of hypercube cells over a bounded domain.

    The tree is one table of node rows in creation order, held as column
    attributes; row ``i`` is node ``i`` and the root is row 0:

    - its cell: ``center`` (K,) and ``level``; every cell of one level
      has the same radius, ``level_radii[level]``;
    - its place in the tree: ``first_child``, the row of its first child
      or -1, so a row is a leaf exactly when ``first_child < 0``;
    - its last draw: ``sample`` (K,), ``target_value`` and ``weight``,
      NaN while unset, written by the sampler.

    The root cell is the whole domain (center ``(upper + lower) / 2``,
    radius ``(upper - lower) / 2``). The children of a node take ``2**K``
    consecutive rows. Capacity doubles as rows are appended; only the
    first ``len(tree)`` rows are nodes. The leaves in creation order are
    also their insertion order: expanding a leaf removes it and appends
    its children.
    """

    def __init__(self, bounds: DomainBounds):
        self.bounds = bounds
        self.dims = bounds.dims
        # A child's row offset has the bit of each dimension where it is
        # "-", first dimension most significant; so "+" comes before "-".
        self._bits = 1 << np.arange(self.dims - 1, -1, -1)
        self._signs = np.where(np.arange(2 ** self.dims)[:, None] & self._bits,
                               -1.0, 1.0)
        self.level_radii = [bounds.radius]  # radius of each level reached
        self._child_offsets = []  # half * signs for the children of a level
        self._size = 0
        for name, per_dim, dtype, fill in _COLUMNS:
            setattr(self, name,
                    np.full((0, self.dims) if per_dim else (0,), fill, dtype))
        self._append(bounds.center[None, :], 0)

    def _append(self, centers, level: int) -> int:
        """Add one leaf row per center and return the first new row."""
        first = self._size
        self._size += centers.shape[0]
        if self._size > self.level.shape[0]:
            capacity = max(self._size, 2 * self.level.shape[0])
            for name, _, dtype, fill in _COLUMNS:
                old = getattr(self, name)
                new = np.full((capacity,) + old.shape[1:], fill, dtype)
                new[:first] = old[:first]
                setattr(self, name, new)
        rows = slice(first, self._size)
        self.center[rows] = centers
        self.level[rows] = level
        return first

    @property
    def root(self) -> Node:
        return Node(self, 0)

    def leaf_indices(self) -> np.ndarray:
        """Rows of the current leaves, in creation order."""
        return np.flatnonzero(self.first_child[:self._size] < 0)

    def leaves(self) -> list[Node]:
        """Handles on the current leaves, in insertion order."""
        return [Node(self, row) for row in self.leaf_indices().tolist()]

    def __len__(self) -> int:
        """Total number of nodes."""
        return self._size

    def radii(self, rows) -> np.ndarray:
        """Radius of each node at ``rows`` (an int array or a slice)."""
        return np.array(self.level_radii).take(self.level[rows])

    def expand(self, row) -> int:
        """Split the leaf at row ``row`` into its 2**K children and return
        the row of the first; the children take consecutive rows.

        Raises ``ValueError`` for a row that is not a leaf of this tree and
        ``DepthLimitError`` when the child level would exceed ``MAX_DEPTH``.
        """
        i = operator.index(row)
        if not (0 <= i < self._size and self.first_child[i] < 0):
            raise ValueError(f"row {i} is not a leaf of this tree")
        level = int(self.level[i])
        if level >= MAX_DEPTH:
            raise DepthLimitError(
                f"expansion past depth cap {MAX_DEPTH}; the tree cannot "
                "refine further")
        half = self.level_radii[level] / 2.0
        if level + 1 == len(self.level_radii):
            self.level_radii.append(half)
            self._child_offsets.append(half * self._signs)
        first = self._append(self.center[i] + self._child_offsets[level],
                             level + 1)
        self.first_child[i] = first
        return first

    def _descend(self, points, steps: int) -> np.ndarray:
        """Row reached by each point of ``points`` (n, K) after ``steps``
        steps of the descent, stopping early at a leaf; -1 for points
        outside the closed domain box."""
        rows = np.zeros(points.shape[0], dtype=np.int64)
        for _ in range(steps):
            child = self.first_child.take(rows)
            below = points < self.center.take(rows, axis=0)
            rows = np.where(child >= 0, child + below.dot(self._bits), rows)
        inside = ((points >= self.bounds.lower)
                  & (points <= self.bounds.upper)).all(axis=1)
        return np.where(inside, rows, -1)

    def locate(self, points) -> np.ndarray:
        """Leaf row of each point of ``points`` (n, K), or -1 for a point
        outside the closed domain box.

        Descends from the root, moving to the "+" child along dimension
        ``d`` whenever ``x[d] >= center[d]``. Each step is one vectorized
        pass over the points, so the cost is O(n * depth).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dims:
            raise ValueError(f"expected points of shape (n, {self.dims})")
        return self._descend(points, len(self.level_radii) - 1)
