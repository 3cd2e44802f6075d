"""Adaptive importance sampling driven by tree-pyramid refinement.

The sampler grows a tree pyramid over the domain: each iteration picks one
leaf, splits it, and draws a fresh sample from every new child cell. The
leaf mixture therefore concentrates components wherever the target has
mass, and every drawn sample doubles as an importance-weighted point.
Which leaf to split is decided here alone: by the score
``value * radius**K``, greedily or by a mixture draw over the leaves.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .proposal import Kernel, TreeProposal
from .tree import (DomainBounds, TreePyramid, _count, _domain, _eval_target,
                   _member)


class Weighting(enum.Enum):
    """Importance weight denominator."""

    STANDARD = "standard"            # sample's own component density
    DETERMINISTIC_MIXTURE = "dm"     # mixture of the set's components


class NodeSelection(enum.Enum):
    """Rule for choosing which leaf to split next."""

    MAX_EVIDENCE = "max_evidence"    # argmax of target_value * radius**K
    MIXTURE_DRAW = "mixture_draw"    # categorical draw over leaf weights


@dataclass
class SamplerConfig:
    """Configuration for :func:`run_tp_ais`.

    ``n_samples`` is the size the returned sample set must reach; the final
    refinement step may overshoot it by at most ``2**dims - 1`` samples.
    ``dims`` and ``n_samples`` are whole numbers >= 1 and ``seed`` one >= 0;
    ``kernel``, ``weighting`` and ``node_selection`` are members of their
    enums and ``resample_leaves`` is a bool. A bad setting raises a
    ``ValueError`` naming its key.
    """

    dims: int
    n_samples: int
    bounds: DomainBounds = None
    kernel: Kernel = Kernel.UNIFORM
    weighting: Weighting = Weighting.STANDARD
    node_selection: NodeSelection = NodeSelection.MAX_EVIDENCE
    resample_leaves: bool = False
    seed: int = 0

    def __post_init__(self):
        self.dims = _count("dims", self.dims)
        self.n_samples = _count("n_samples", self.n_samples)
        self.bounds = _domain(self.dims, self.bounds)
        self.kernel = _member("kernel", self.kernel, Kernel)
        self.weighting = _member("weighting", self.weighting, Weighting)
        self.node_selection = _member("node_selection", self.node_selection,
                                      NodeSelection)
        self.resample_leaves = _member("resample_leaves",
                                       self.resample_leaves, bool)
        self.seed = _count("seed", self.seed, least=0)


@dataclass
class WeightedSampleSet:
    """Importance-weighted points: samples (n, K) with raw weights (n,)."""

    samples: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.samples.shape[0] != self.weights.shape[0]:
            raise ValueError("samples and weights must have equal length")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass
class TPAISResult:
    """Output of a sampler run: the weighted samples and the adapted tree."""

    sample_set: WeightedSampleSet
    tree: TreePyramid
    config: SamplerConfig = field(repr=False, default=None)


def _weights(values, density) -> np.ndarray:
    """Importance weights ``values / density``; the density must be
    positive at every point, or the point could not have been drawn."""
    if not (density > 0.0).all():
        raise ValueError("proposal density is zero at a sample")
    return values / density


def mixture_weights(tree: TreePyramid, rows) -> np.ndarray:
    """Selection weights ``w_i * r_i**K`` of the nodes at ``rows`` (an int
    array or a slice), unnormalized: the slot values of the sampler's sum
    tree.

    A node whose importance weight is unset contributes zero. Raises
    ``ValueError`` unless every value is finite and non-negative.
    """
    weights = tree.weight[rows]
    vals = (np.where(np.isnan(weights), 0.0, weights)
            * tree.radii(rows) ** tree.dims)
    if np.count_nonzero((vals >= 0.0) & (vals < math.inf)) < vals.size:
        raise ValueError("leaf weights must be finite and non-negative")
    return vals


class _SumTree:
    """Non-negative slots and their sums, for categorical draws in
    O(log n) steps (a segment tree).

    ``levels[0]`` holds the slots, zero-padded to a power of two; entry
    ``i`` of ``levels[d + 1]`` is the sum of entries ``2i`` and ``2i + 1``
    of ``levels[d]``, and ``levels[-1][0]`` is the total. A sum is always
    recomputed from its two children, never shifted by a difference, so
    slots that are all zero sum to exactly 0.0. The levels are NumPy
    arrays as built and lists once ``set`` first writes them, since its
    scalar steps are faster on lists.
    """

    def __init__(self, slots):
        slots = np.asarray(slots, dtype=float)
        level = np.zeros(1 << max(len(slots) - 1, 0).bit_length())
        level[:len(slots)] = slots
        self.levels = [level]
        while len(level) > 1:
            level = level[0::2] + level[1::2]
            self.levels.append(level)

    def set(self, first: int, values: list) -> None:
        """Set the slots from ``first`` on to the floats ``values`` and
        recompute their sums."""
        if not isinstance(self.levels[0], list):
            self.levels = [level.tolist() for level in self.levels]
        end = first + len(values)
        below = self.levels[0]
        below[first:end] = values
        lo, hi = first >> 1, (end - 1) >> 1
        for level in self.levels[1:]:
            level[lo] = below[2 * lo] + below[2 * lo + 1]
            if hi != lo:  # most levels have one sum to redo: skip the range
                for i in range(lo + 1, hi + 1):
                    level[i] = below[2 * i] + below[2 * i + 1]
            lo, hi, below = lo >> 1, hi >> 1, level

    def draw(self, rng: np.random.Generator) -> int:
        """The slot of one categorical draw, with probability proportional
        to its value; a zero slot is never drawn.

        Takes one ``rng.uniform()`` and descends from the total: left while
        the target is below the left sum or the right sum is zero, else
        right with the left sum taken off the target. Raises ``ValueError``
        when every slot is zero (a degenerate mixture).
        """
        total = self.levels[-1][0]
        if not total > 0.0:
            raise ValueError("degenerate mixture: every leaf has zero weight")
        target = rng.uniform() * total
        i = 0
        for level in self.levels[-2::-1]:
            i *= 2
            left = level[i]
            if target >= left and level[i + 1] > 0.0:
                target -= left
                i += 1
        return i


def run_tp_ais(target, config: SamplerConfig) -> TPAISResult:
    """Run the tree-pyramid adaptive importance sampler.

    Parameters
    ----------
    target : callable
        Unnormalized density over the domain; must accept a batch of points
        of shape (n, K) and return non-negative finite values of shape (n,).
    config : SamplerConfig

    Returns
    -------
    TPAISResult
        Without leaf resampling the sample set accumulates every draw in
        order (the run can be cut short after any iteration and remains a
        valid importance-sampling state). With ``resample_leaves`` each
        iteration redraws all current leaves in place and only the final
        per-leaf samples are returned, as :func:`leaf_sample_set` returns
        them. The tree keeps standard weights, which are returned as
        stored, so the weighting does not change the tree.
        Deterministic-mixture weights divide, once after the loop, by the
        mean density of the components that drew the returned set: every
        node without resampling, or the final leaves.

    Notes
    -----
    Each iteration has one branch per selection rule. It draws the rows
    made last (the root, then the last split's children), scores them and
    chooses the leaf to split. Without resampling every node is drawn
    once, when it is created, so the returned set holds the tree's rows in
    creation order. Max-evidence selection pushes the new rows onto a heap
    keyed by ``(-target_value * radius**K, row)`` and pops the leaf to
    split: the earliest-created leaf wins ties, as ``argmax`` over the
    insertion-ordered leaves does. Mixture draws set the new rows'
    ``weight * radius**K`` in a sum tree, sized once from the run's row
    count, draw by descending it and zero the chosen slot. Either way a
    split costs O(2**K log N). Resampling changes every leaf's score and
    weight in each iteration, so it lists the leaves, with the rows made
    last first, in one draw call and selects over the listing's arrays;
    the first draw of the new rows is only taken from the random stream.
    The children of the last split, or the root of a run without splits,
    are drawn after the loop.
    """
    rng = np.random.default_rng(config.seed)
    tree = TreePyramid(config.bounds)
    proposal = TreeProposal(tree, config.kernel)
    dims = config.dims
    resample = config.resample_leaves
    greedy = config.node_selection is NodeSelection.MAX_EVIDENCE
    # each split adds 2**K samples, or 2**K - 1 when only leaves are kept
    splits = math.ceil((config.n_samples - 1)
                       / (2 ** dims - 1 if resample else 2 ** dims))
    frontier = []  # (-target_value * radius**K, row) of every leaf
    # radius**K per level as NumPy takes it for the listing's argmax and
    # mixture_weights: a Python float ** can round it one ulp apart
    radius_pows = []
    if not (resample or greedy):  # weight * radius**K per row, 0 once split
        sums = _SumTree(np.zeros(1 + splits * 2 ** dims))
    listed = None  # rows and points of the leaves resampled last

    def store(rows, points, q):
        values = _eval_target(target, points)
        tree.weight[rows] = _weights(values, q)
        tree.target_value[rows] = values
        return values

    def sample_new(rows):
        points, q = proposal.draw(rows, rng)
        tree.sample[rows] = points
        return store(rows, points, q)

    fresh = slice(0, 1)  # the rows made last: the root, then the children
    for _ in range(splits):
        if resample:
            # the rows made last are listed too: their first draw, never
            # read, leads this call to keep the random stream and is
            # dropped. A leaf's point is written when it is split or the
            # loop ends.
            leaves = tree.leaf_indices()
            points, q = proposal.draw(
                np.concatenate((np.arange(fresh.start, fresh.stop), leaves)),
                rng)
            points, q = points[-leaves.size:], q[-leaves.size:]
            values = store(leaves, points, q)
            if greedy:
                j = int(np.argmax(values * tree.radii(leaves) ** dims))
            else:
                j = _SumTree(mixture_weights(tree, leaves)).draw(rng)
            chosen = leaves[j]
            tree.sample[chosen] = points[j]
            listed = leaves, points
        elif greedy:
            values = sample_new(fresh)
            level = tree.level.item(fresh.start)
            if level == len(radius_pows):  # the first node of a new level
                radius_pows = (tree.level_radii ** dims).tolist()
            radius_pow = radius_pows[level]
            for row, f in enumerate(values.tolist(), start=fresh.start):
                heapq.heappush(frontier, (-(f * radius_pow), row))
            chosen = heapq.heappop(frontier)[1]
        else:
            sample_new(fresh)
            sums.set(fresh.start, mixture_weights(tree, fresh).tolist())
            chosen = sums.draw(rng)
            sums.set(chosen, [0.0])
        first = tree.expand(chosen)
        fresh = slice(first, first + 2 ** dims)

    # the last split's children, or the root of a run without splits
    sample_new(fresh)
    if listed is not None:
        tree.sample[listed[0]] = listed[1]

    rows = tree.leaf_indices() if resample else np.arange(len(tree))
    return TPAISResult(_stored_set(proposal, rows, config.weighting,
                                   not resample), tree, config)


def _stored_set(proposal: TreeProposal, rows, weighting: Weighting,
                every_node=False) -> WeightedSampleSet:
    """The samples stored at ``rows`` of the proposal's tree with their
    stored standard weights, or with deterministic-mixture weights against
    the tree's leaves (or, with ``every_node``, every node)."""
    tree = proposal.tree
    samples, weights = tree.sample.take(rows, axis=0), tree.weight.take(rows)
    if weighting is Weighting.DETERMINISTIC_MIXTURE:
        weights = _weights(tree.target_value.take(rows),
                           proposal.density(samples, every_node))
    return WeightedSampleSet(samples, weights)


def leaf_sample_set(tree: TreePyramid, kernel: Kernel,
                    weighting: Weighting = Weighting.STANDARD) -> WeightedSampleSet:
    """One weighted sample per current leaf, the one stored at the leaf.

    Standard weights are the stored ``weight`` column: each leaf's target
    value over the density of the component that drew it. Deterministic-
    mixture weights divide the stored target value by the leaf-mixture
    density of the finished tree.
    """
    weighting = _member("weighting", weighting, Weighting)
    leaves = tree.leaf_indices()
    if np.isnan(tree.weight.take(leaves)).any():
        raise ValueError("every leaf must hold a sample")
    return _stored_set(TreeProposal(tree, kernel), leaves, weighting)


def evidence_from_tree(target, tree: TreePyramid, kernel: Kernel,
                       rng: np.random.Generator) -> float:
    """Unbiased evidence estimate from an adapted tree.

    Draws one fresh point per leaf and averages the deterministic-mixture
    weights. Because the redraw is independent of how the tree was grown,
    the expectation equals the target mass the leaf mixture covers; reusing
    the samples stored during adaptation would instead be biased low, since
    refinement keeps exactly the leaves whose draws understated their cell
    mass.
    """
    proposal = TreeProposal(tree, kernel)
    points, _ = proposal.draw(tree.leaf_indices(), rng)
    values = _eval_target(target, points)
    return float(np.mean(_weights(values, proposal.density(points))))
