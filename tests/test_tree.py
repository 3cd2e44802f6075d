"""Tree-pyramid structure tests: geometry, partition, depth cap, serialization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grow_random_tree, serialize_tree
from tpais.proposal import Kernel, TreeProposal
from tpais.tree import DepthLimitError, DomainBounds, Node, TreePyramid


def test_centered_bounds():
    bounds = DomainBounds.centered(2)
    assert bounds.dims == 2
    np.testing.assert_array_equal(bounds.center, [0.0, 0.0])
    assert bounds.radius == 1.0
    assert bounds.volume == 4.0
    # dims is a count: a boolean or a fraction is not one
    for bad in (True, 2.5, 0, None):
        with pytest.raises(ValueError, match="dims must be a whole"):
            DomainBounds.centered(bad)
    assert DomainBounds.centered(np.int64(3)).dims == 3


def test_root_matches_bounds():
    tree = TreePyramid(DomainBounds(np.array([0.0]), np.array([4.0])))
    assert tree.root.center[0] == 2.0
    assert tree.root.radius == 2.0
    assert tree.leaves() == [tree.root]
    assert len(tree) == 1


def test_bounds_rejects_inverted_and_flat():
    with pytest.raises(ValueError):
        DomainBounds(np.array([1.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        DomainBounds(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="non-empty"):
        DomainBounds([], [])


def test_bounds_rejects_non_finite():
    for lo, hi in (([-math.inf], [math.inf]), ([0.0], [math.inf]),
                   ([math.nan], [1.0]), ([0.0, 0.0], [1.0, math.nan])):
        with pytest.raises(ValueError, match="finite"):
            DomainBounds(np.array(lo), np.array(hi))


def test_bounds_rejects_non_hypercube():
    with pytest.raises(ValueError):
        DomainBounds(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


def test_expand_1d_child_geometry():
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(0)
    children = tree.root.children
    assert [c.center[0] for c in children] == [0.5, -0.5]
    assert all(c.radius == 0.5 for c in children)
    assert all(c.level == 1 for c in children)


def test_expand_child_geometry_matches_sign_product():
    # every child center must be parent center + (r/2) * signs, one child
    # per sign combination, "+" first with dimension 0 most significant
    for dims in (1, 2, 3):
        tree = TreePyramid(DomainBounds.centered(dims))
        tree.expand(0)
        children = tree.root.children
        expected = [0.5 * np.asarray(s)
                    for s in itertools.product((1.0, -1.0), repeat=dims)]
        assert len(children) == 2 ** dims
        for child, offset in zip(children, expected):
            np.testing.assert_array_equal(child.center, offset)
            assert child.radius == 0.5


def test_expand_3d_counts_and_offsets():
    tree = TreePyramid(DomainBounds.centered(3, half_width=0.5))
    tree.expand(0)
    children = tree.root.children
    assert len(children) == 8
    centers = sorted(tuple(c.center) for c in children)
    expected = sorted(itertools.product((-0.25, 0.25), repeat=3))
    assert centers == [tuple(e) for e in expected]
    assert all(c.radius == 0.25 for c in children)


def test_leaf_count_formula():
    rng = np.random.default_rng(7)
    for dims in (1, 2, 3):
        for m in (1, 3, 8):
            tree = grow_random_tree(dims, m, rng)
            assert len(tree.leaves()) == 1 + m * (2 ** dims - 1)


def test_seven_leaves_after_two_2d_expansions():
    tree = TreePyramid(DomainBounds.centered(2))
    tree.expand(tree.expand(0))  # the root, then its first child
    assert len(tree.leaves()) == 7


def test_radius_law_exact():
    rng = np.random.default_rng(11)
    # on the "wide" domain the radii are not powers of two
    for dims, half_width in itertools.product((1, 2, 3), (1.0, 1.051767)):
        tree = grow_random_tree(dims, 15, rng, half_width)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert node.radius == half_width / 2 ** node.level
            stack.extend(node.children)
        # a radius is its level's; rows may be an int array or a slice
        every = np.arange(len(tree))
        for rows in (rng.permutation(every), slice(0, len(tree)),
                     slice(3, len(tree), 2)):
            assert tree.radii(rows).tolist() == [
                Node(tree, row).radius for row in every[rows]]


def test_partition_fuzz():
    rng = np.random.default_rng(23)
    for _ in range(30):
        dims = int(rng.integers(1, 4))
        tree = grow_random_tree(dims, int(rng.integers(1, 12)), rng)
        volumes = sum(leaf.volume for leaf in tree.leaves())
        assert abs(volumes - tree.root.volume) <= 1e-12 * tree.root.volume
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=dims)
            owners = [leaf for leaf in tree.leaves() if leaf.contains(x)]
            assert len(owners) == 1
            assert tree.locate(x[None]).tolist() == [owners[0].index]


# coordinates in [-1, 1], including exact cell faces of the dyadic lattice
_coordinate = st.one_of(st.floats(-1.0, 1.0),
                        st.integers(-64, 64).map(lambda i: i / 64.0))

# (lower bound, width) of the domain in every dimension: [-1, 1], and a
# domain whose cell faces center +- radius need not round to the parent's
# center, so a box test on them would leave gaps and overlaps
_domain = st.sampled_from([(-1.0, 2.0),
                           (0.8217701239287258, 1.4219548974429648)])


def _face_probes(leaf, bounds):
    """Points on every face of a leaf's cell and one float step to either
    side of it, kept where they lie in the domain."""
    probes = []
    center, radius = leaf.center, leaf.radius
    for d in range(len(center)):
        for face in (center[d] - radius, center[d] + radius):
            for v in (np.nextafter(face, -np.inf), face,
                      np.nextafter(face, np.inf)):
                if bounds.lower[d] <= v <= bounds.upper[d]:
                    x = center.copy()
                    x[d] = v
                    probes.append(x)
    return probes


@settings(max_examples=80, deadline=None)
@given(dims=st.integers(1, 3), domain=_domain,
       picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=12),
       points=st.lists(st.lists(_coordinate, min_size=3, max_size=3),
                       min_size=1, max_size=8))
def test_property_leaves_partition_and_locate(dims, domain, picks, points):
    lower, width = domain
    bounds = DomainBounds(np.full(dims, lower), np.full(dims, lower + width))
    tree = TreePyramid(bounds)
    for u in picks:
        leaves = tree.leaf_indices()
        tree.expand(leaves[int(u * len(leaves))])
    leaves = tree.leaves()
    assert len(leaves) == 1 + len(picks) * (2 ** dims - 1)
    # every leaf's center locates to its own row
    rows = tree.leaf_indices()
    assert tree.locate(tree.center[rows]).tolist() == rows.tolist()
    assert math.fsum(leaf.volume for leaf in leaves) == tree.root.volume
    probes = [np.clip(lower + (np.array(point[:dims]) + 1.0) * (width / 2.0),
                      bounds.lower, bounds.upper) for point in points]
    if dims <= 2:
        probes += [x for leaf in leaves for x in _face_probes(leaf, bounds)]
    uniform = TreeProposal(tree, Kernel.UNIFORM)
    for x, row in zip(probes, tree.locate(np.array(probes)).tolist()):
        owners = [leaf for leaf in leaves if leaf.contains(x)]
        assert len(owners) == 1
        assert row == owners[0].index
        assert uniform.density(x) > 0.0


def test_locate_boundary_ownership():
    tree = TreePyramid(DomainBounds.centered(1))
    plus = tree.expand(0)  # the "+" child at 0.5, then the "-" child
    assert tree.center[[plus, plus + 1], 0].tolist() == [0.5, -0.5]
    # the shared face at 0 belongs to the upper cell (lower-closed
    # convention); domain faces: bottom belongs to the lowest cell, top
    # stays covered
    rows = tree.locate(np.array([[0.0], [-1.0], [1.0]]))
    assert rows.tolist() == [plus, plus + 1, plus]


def test_locate_outside_point_is_minus_one():
    tree = TreePyramid(DomainBounds.centered(2))
    # the domain box is closed: only the point beyond it has no leaf
    assert tree.locate(np.array([[1.5, 0.0], [1.0, -1.0]])).tolist() == [-1, 0]
    tree.expand(tree.expand(0))
    outside = np.array([[1.5, 0.0], [0.0, np.nextafter(-1.0, -np.inf)]])
    assert tree.locate(outside).tolist() == [-1, -1]


def test_contains_rejects_wrong_width():
    tree = TreePyramid(DomainBounds.centered(2))
    tree.expand(0)
    child = tree.root.children[0]
    for node in (tree.root, child):
        with pytest.raises(ValueError, match="coordinates"):
            node.contains(np.array([0.5]))
        with pytest.raises(ValueError, match="shape"):
            node.contains(np.zeros((3, 3)))
    assert tree.root.contains(np.array([0.5, 0.5])) is True
    assert child.contains(np.array([[0.5, 0.5], [-0.5, 0.5]])).tolist() == [
        True, False]


def test_expand_non_leaf_rejected():
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(0)
    with pytest.raises(ValueError):
        tree.expand(0)


def test_expand_takes_and_returns_rows():
    tree = TreePyramid(DomainBounds.centered(2))
    assert tree.expand(0) == 1  # the children take rows 1..4
    assert [child.index for child in tree.root.children] == [1, 2, 3, 4]
    assert tree.expand(np.int64(3)) == 5
    assert tree.root.children[2].children == [Node(tree, row)
                                              for row in range(5, 9)]
    # a split node, and rows outside the tree: unwritten capacity rows
    # read as leaves, so only the range check rejects them
    for row in (0, 3, -1, len(tree)):
        with pytest.raises(ValueError):
            tree.expand(row)
    with pytest.raises(TypeError):
        tree.expand(1.0)
    assert len(tree) == 9


def test_depth_cap(monkeypatch):
    monkeypatch.setattr("tpais.tree.MAX_DEPTH", 3)
    tree = TreePyramid(DomainBounds.centered(1))
    row = 0
    for _ in range(3):
        row = tree.expand(row)
    assert Node(tree, row).level == 3
    with pytest.raises(DepthLimitError, match="depth cap 3"):
        tree.expand(row)


def test_leaves_follow_insertion_order():
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(0)
    first, second = tree.root.children
    tree.expand(first.index)
    leaves = tree.leaves()
    assert leaves[0] == second
    assert [leaf.center[0] for leaf in leaves] == [-0.5, 0.75, 0.25]


def test_node_handles_read_the_tree_rows():
    tree = TreePyramid(DomainBounds.centered(2))
    for _ in range(6):
        tree.expand(tree.leaf_indices()[-1])
    leaf = tree.leaves()[0]
    assert type(leaf.radius) is float and type(leaf.level) is int
    np.testing.assert_array_equal(leaf.center, tree.center[leaf.index])
    # handles view geometry only; a node's draw is read from the columns
    assert np.isnan(tree.weight[leaf.index])
    assert np.isnan(tree.sample[leaf.index]).all()
    assert np.isnan(tree.target_value[leaf.index])
    for name in ("sample", "weight", "target_value"):
        assert not hasattr(leaf, name)
    assert len(tree) == 1 + 6 * 4


def test_node_handles_are_read_only():
    tree = TreePyramid(DomainBounds.centered(1))
    leaf = tree.root
    for name, value in (("weight", 1.0), ("sample", np.array([0.5])),
                        ("target_value", 1.0), ("radius", 0.5),
                        ("center", np.array([0.5])), ("level", 1)):
        with pytest.raises(AttributeError):
            setattr(leaf, name, value)
    assert leaf.radius == 1.0 and leaf.level == 0
    assert np.isnan(tree.weight[0]) and np.isnan(tree.target_value[0])


def test_leaf_flag_is_first_child_below_zero():
    tree = TreePyramid(DomainBounds.centered(2))
    tree.expand(tree.expand(0) + 2)
    np.testing.assert_array_equal(tree.first_child[[0, 3]], [1, 5])
    np.testing.assert_array_equal(tree.leaf_indices(), [1, 2, 4, 5, 6, 7, 8])
    assert (tree.first_child[1:5] < 0).tolist() == [True, True, False, True]
    # a handle is a leaf exactly when it has no children
    assert [not child.children for child in tree.root.children] == [
        True, True, False, True]


def test_node_handles_compare_by_tree_and_row():
    tree = TreePyramid(DomainBounds.centered(1))
    other = TreePyramid(DomainBounds.centered(1))
    assert tree.root is not tree.root  # handles are made on demand
    assert tree.root == Node(tree, 0)
    assert hash(tree.root) == hash(Node(tree, 0))
    assert tree.root != other.root and tree.root != 0
    assert len({tree.root, Node(tree, 0), other.root}) == 2
    tree.expand(tree.expand(0) + 1)
    assert tree.root not in set(tree.leaves())
    xs = np.array([[-1.0], [-0.5], [-0.1], [0.0], [1.0]])
    rows = tree.locate(xs).tolist()
    assert {Node(tree, row) for row in rows} <= set(tree.leaves())
    assert rows == [leaf.index for x in xs for leaf in tree.leaves()
                    if leaf.contains(x)]


def test_node_count():
    tree = TreePyramid(DomainBounds.centered(2))
    tree.expand(0)
    tree.expand(tree.leaf_indices()[0])
    assert len(tree) == 9


def test_serialize_golden():
    tree = TreePyramid(DomainBounds.centered(1))
    tree.expand(0)
    plus, minus = tree.root.children
    tree.weight[plus.index] = 0.5
    tree.sample[plus.index] = [0.25]
    expected = ("0 0.0 1.0 - -\n"
                "1 0.5 0.5 0.5 0.25\n"
                "1 -0.5 0.5 - -\n")
    assert serialize_tree(tree) == expected
    assert serialize_tree(tree) == expected  # stable across calls
