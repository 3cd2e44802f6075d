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

import itertools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_DEPTH = 64


class DepthLimitError(RuntimeError):
    """Raised when expanding a node would exceed the tree's depth cap."""


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
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("bounds must be 1-d arrays of equal length")
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
        if dims < 1:
            raise ValueError("dims must be >= 1")
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
    ("radius", False, float, 0.0),
    ("level", False, np.int64, 0),
    ("first_child", False, np.int64, -1),
    ("is_leaf", False, bool, True),
    ("sample", True, float, np.nan),
    ("target_value", False, float, np.nan),
    ("weight", False, float, np.nan),
)


class NodeStore:
    """Struct-of-arrays rows of every node of a tree, in creation order.

    Row ``i`` holds node ``i``: its cell (``center`` (K,), ``radius`` and
    ``level``), its place in the tree (``first_child``, the row of its
    first child or -1, and ``is_leaf``) and its last draw
    (``sample`` (K,), ``target_value`` and ``weight``, NaN while unset).
    The children of a node occupy ``2**K`` consecutive rows. Capacity
    doubles as rows are appended; only the first ``size`` rows are nodes.
    """

    def __init__(self, dims: int):
        self.size = 0
        for name, per_dim, dtype, fill in _COLUMNS:
            setattr(self, name,
                    np.full((0, dims) if per_dim else (0,), fill, dtype))

    def append(self, centers, radius: float, level: int) -> int:
        """Add one leaf row per center and return the first new row."""
        first = self.size
        self.size += centers.shape[0]
        if self.size > self.radius.shape[0]:
            capacity = max(self.size, 2 * self.radius.shape[0])
            for name, _, dtype, fill in _COLUMNS:
                old = getattr(self, name)
                new = np.full((capacity,) + old.shape[1:], fill, dtype)
                new[:first] = old[:first]
                setattr(self, name, new)
        rows = slice(first, self.size)
        self.center[rows] = centers
        self.radius[rows] = radius
        self.level[rows] = level
        return first

    def leaf_indices(self) -> np.ndarray:
        """Rows of the current leaves, in creation order."""
        return np.flatnonzero(self.is_leaf[:self.size])


def _optional_float(column: str, doc: str):
    """Property reading and writing one scalar column; NaN reads as None."""

    def get(self):
        value = float(getattr(self.tree.store, column)[self.index])
        return None if math.isnan(value) else value

    def put(self, value):
        getattr(self.tree.store, column)[self.index] = (
            math.nan if value is None else value)

    return property(get, put, doc=doc)


class Node:
    """Handle on one cell of a tree pyramid: row ``index`` of ``tree.store``.

    A tree keeps one handle per node, so handles compare by identity.
    Every attribute reads or writes the store row, and the tree's arrays
    stay the only copy of its geometry and draws.

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
    sample, weight, target_value
        Last sample drawn inside the cell, its importance weight and raw
        target density. ``None`` until set; they can be assigned.
    """

    __slots__ = ("tree", "index")

    def __init__(self, tree: "TreePyramid", index: int):
        self.tree = tree
        self.index = index

    @property
    def center(self) -> np.ndarray:
        return self.tree.store.center[self.index].copy()

    @property
    def radius(self) -> float:
        return float(self.tree.store.radius[self.index])

    @property
    def level(self) -> int:
        return int(self.tree.store.level[self.index])

    @property
    def children(self) -> list["Node"]:
        first = int(self.tree.store.first_child[self.index])
        if first < 0:
            return []
        return self.tree._nodes[first:first + 2 ** self.dims]

    @property
    def sample(self):
        row = self.tree.store.sample[self.index]
        return None if math.isnan(row[0]) else row.copy()

    @sample.setter
    def sample(self, value):
        self.tree.store.sample[self.index] = (
            math.nan if value is None else value)

    weight = _optional_float("weight", "Importance weight of the last draw.")
    target_value = _optional_float("target_value",
                                   "Target density at the last draw.")

    @property
    def is_leaf(self) -> bool:
        return bool(self.tree.store.is_leaf[self.index])

    @property
    def dims(self) -> int:
        return self.tree.dims

    @property
    def volume(self) -> float:
        return float((2.0 * self.radius) ** self.dims)

    def contains(self, x):
        """Whether the cell holds ``x``: a bool for one point (K,), a bool
        array for a batch (n, K).

        A cell holds the points whose descent from the root passes through
        this node (see the module docstring); the root holds the closed
        domain box.
        """
        pts, single = _as_batch(x, self.dims)
        inside = self.tree._descend(pts, self.level) == self.index
        return bool(inside[0]) if single else inside


class TreePyramid:
    """Full 2**K-ary tree of hypercube cells over a bounded domain.

    The root cell is the whole domain (center ``(upper + lower) / 2``,
    radius ``(upper - lower) / 2``). Nodes live in ``store`` in creation
    order, so the leaves in creation order are also their insertion order:
    expanding a leaf removes it and appends its children.
    """

    def __init__(self, bounds: DomainBounds, max_depth: int = DEFAULT_MAX_DEPTH):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.bounds = bounds
        self.dims = bounds.dims
        self.max_depth = int(max_depth)
        # Children are ordered lexicographically over the sign pattern:
        # "+" before "-", first dimension most significant.
        self._signs = np.array(list(itertools.product((1.0, -1.0),
                                                      repeat=self.dims)))
        # a child's row offset has the bit of each dimension where it is "-"
        self._bits = 1 << np.arange(self.dims - 1, -1, -1)
        self.level_radii = [bounds.radius]  # radius of each level reached
        self._child_offsets = []  # half * signs for the children of a level
        self.store = NodeStore(self.dims)
        self._nodes: list[Node] = []
        self.root = self._add(bounds.center[None, :], bounds.radius, 0)[0]

    def _add(self, centers, radius, level) -> list[Node]:
        first = self.store.append(centers, radius, level)
        added = [Node(self, i) for i in range(first, self.store.size)]
        self._nodes.extend(added)
        return added

    def node(self, index) -> Node:
        """The handle of store row ``index``."""
        return self._nodes[index]

    def leaves(self) -> list[Node]:
        """Current leaf set in insertion order (do not mutate)."""
        nodes = self._nodes
        return [nodes[i] for i in self.store.leaf_indices().tolist()]

    def __len__(self) -> int:
        """Total number of nodes."""
        return self.store.size

    def per_level(self, fn, index) -> np.ndarray:
        """``fn(radius)`` for the nodes at rows ``index``.

        Every node of one level has the same radius, so ``fn`` runs once per
        level on a Python float and each value equals the scalar expression
        evaluated node by node (NumPy's vectorized ``**`` rounds
        differently from Python's).
        """
        table = np.array([fn(radius) for radius in self.level_radii])
        return table.take(self.store.level.take(index))

    def expand(self, node: Node) -> list[Node]:
        """Split a leaf into its 2**K children and return them.

        Raises ``ValueError`` for non-leaf nodes and ``DepthLimitError``
        when the child level would exceed ``max_depth``.
        """
        store, i = self.store, node.index
        if not store.is_leaf[i]:
            raise ValueError("only leaf nodes can be expanded")
        level = int(store.level[i])
        if level >= self.max_depth:
            raise DepthLimitError(
                f"expansion past depth cap {self.max_depth}; the tree cannot "
                "refine further")
        half = float(store.radius[i]) / 2.0
        if level + 1 == len(self.level_radii):
            self.level_radii.append(half)
            self._child_offsets.append(half * self._signs)
        children = self._add(store.center[i] + self._child_offsets[level],
                             half, level + 1)
        store.first_child[i] = children[0].index
        store.is_leaf[i] = False
        return children

    def _descend(self, points, steps: int) -> np.ndarray:
        """Row reached by each point of ``points`` (n, K) after ``steps``
        steps of the descent, stopping early at a leaf; -1 for points
        outside the closed domain box."""
        store = self.store
        rows = np.zeros(points.shape[0], dtype=np.int64)
        for _ in range(steps):
            child = store.first_child.take(rows)
            below = points < store.center.take(rows, axis=0)
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

    def find_leaf(self, x) -> Node:
        """Return the unique leaf whose cell contains the point ``x`` (K,);
        raises ``ValueError`` outside the domain."""
        row = int(self.locate(np.asarray(x, dtype=float)[None, :])[0])
        if row < 0:
            raise ValueError("point lies outside the domain")
        return self._nodes[row]


def serialize_tree(tree: TreePyramid) -> str:
    """Render a tree as deterministic line-oriented text.

    One node per line in depth-first preorder (children in sign order);
    fields are level, center coordinates, radius, weight and sample
    coordinates, space-separated, with ``-`` for unset values.
    """
    lines = []

    def fmt(value) -> str:
        return repr(float(value))

    def visit(node: Node):
        fields = [str(node.level)]
        fields.extend(fmt(c) for c in node.center)
        fields.append(fmt(node.radius))
        fields.append(fmt(node.weight) if node.weight is not None else "-")
        if node.sample is not None:
            fields.extend(fmt(s) for s in node.sample)
        else:
            fields.append("-")
        lines.append(" ".join(fields))
        for child in node.children:
            visit(child)

    visit(tree.root)
    return "\n".join(lines) + "\n"
