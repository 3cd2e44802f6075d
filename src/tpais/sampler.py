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
from .tree import DomainBounds, TreePyramid, _count, _member


class Weighting(enum.Enum):
    """Importance weight denominator."""

    STANDARD = "standard"            # sample's own component density
    DETERMINISTIC_MIXTURE = "dm"     # mixture of the set's components


class NodeSelection(enum.Enum):
    """Rule for choosing which leaf to split next."""

    MAX_EVIDENCE = "max_evidence"    # argmax of target_value * radius**K
    MIXTURE_DRAW = "mixture_draw"    # categorical draw over leaf weights


def _scale(key: str, value) -> float:
    """``value`` as a float; a ``ValueError`` naming ``key`` unless it is a
    positive finite number or a string spelling one, and not a boolean."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, (bool, np.bool_)) or not 0.0 < number < math.inf:
        raise ValueError(f"{key} must be positive and finite, got {value!r}")
    return number


def _domain(dims: int, bounds) -> DomainBounds:
    """``bounds``, or ``[-1, 1]**dims`` when None; a ``ValueError`` naming
    ``bounds`` unless it is a ``DomainBounds`` with ``dims`` dimensions."""
    if bounds is None:
        return DomainBounds.centered(dims)
    if not isinstance(bounds, DomainBounds):
        raise ValueError("bounds must be a DomainBounds or None, "
                         f"got {bounds!r}")
    if bounds.dims != dims:
        raise ValueError(f"bounds have {bounds.dims} dimensions, not {dims}")
    return bounds


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


def _eval_target(target, x) -> np.ndarray:
    """Evaluate the target density on a batch of n points and validate it:
    the values must have shape (n,), be finite and be non-negative."""
    vals = np.asarray(target(x), dtype=float)
    if vals.shape != (x.shape[0],):
        raise ValueError(f"target density must return shape ({x.shape[0]},) "
                         f"for {x.shape[0]} points, got shape {vals.shape}")
    if np.count_nonzero((vals >= 0.0) & (vals < math.inf)) < vals.size:
        if not np.isfinite(vals).all():
            raise ValueError("target density returned a non-finite value")
        raise ValueError("target density returned a negative value")
    return vals


def _weights(values, density) -> np.ndarray:
    """Importance weights ``values / density``; the density must be
    positive at every point, or the point could not have been drawn."""
    if not (density > 0.0).all():
        raise ValueError("proposal density is zero at a sample")
    return values / density


def mixture_weights(tree: TreePyramid, leaves) -> np.ndarray:
    """Normalized selection weights ``w_i * r_i**K`` of the leaves at rows
    ``leaves``.

    Leaves whose importance weight is unset or zero contribute zero. Raises
    ``ValueError`` when every leaf does (a degenerate mixture that cannot
    be drawn from).
    """
    weights = tree.weight.take(leaves)
    vals = (np.where(np.isnan(weights), 0.0, weights)
            * tree.radii(leaves) ** tree.dims)
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
    Without resampling every node is drawn once, when it is created, so
    the returned set holds the tree's rows in creation order. Max-evidence
    selection then pops the leaf to split from a heap keyed by
    ``(-target_value * radius**K, row)``: the earliest-created leaf wins
    ties, as ``argmax`` over the insertion-ordered leaves does, and each
    split costs O(2**K log L). Resampling and mixture draws change every
    leaf's score or weight in each iteration, so they select over the
    live-leaf arrays instead.
    """
    rng = np.random.default_rng(config.seed)
    tree = TreePyramid(config.bounds)
    proposal = TreeProposal(tree, config.kernel)
    dims = config.dims
    greedy = config.node_selection is NodeSelection.MAX_EVIDENCE
    use_heap = greedy and not config.resample_leaves
    frontier = []  # (-target_value * radius**K, row) of every leaf

    def sample_nodes(rows):
        points, q = proposal.draw(rows, rng)
        values = _eval_target(target, points)
        tree.weight[rows] = _weights(values, q)
        tree.sample[rows] = points
        tree.target_value[rows] = values
        return values

    def sample_new(first, count):
        values = sample_nodes(slice(first, first + count))
        if use_heap:
            radius_pow = tree.level_radii[tree.level[first]] ** dims
            for row, f in enumerate(values.tolist(), start=first):
                heapq.heappush(frontier, (-(f * radius_pow), row))

    # each split adds 2**K samples, or 2**K - 1 when only leaves are kept
    grown = 2 ** dims - 1 if config.resample_leaves else 2 ** dims
    sample_new(0, 1)
    for _ in range(math.ceil((config.n_samples - 1) / grown)):
        if use_heap:
            chosen = heapq.heappop(frontier)[1]
        else:
            leaves = tree.leaf_indices()
            if config.resample_leaves:
                sample_nodes(leaves)
            if greedy:
                scores = tree.target_value[leaves] * tree.radii(leaves) ** dims
                chosen = leaves[int(np.argmax(scores))]
            else:
                weights = mixture_weights(tree, leaves)
                chosen = leaves[sample_mixture(weights, rng)]
        sample_new(tree.expand(chosen), 2 ** dims)

    rows = (tree.leaf_indices() if config.resample_leaves
            else np.arange(len(tree)))
    return TPAISResult(_stored_set(proposal, rows, config.weighting,
                                   not config.resample_leaves), tree, config)


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
