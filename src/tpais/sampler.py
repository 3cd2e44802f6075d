"""Adaptive importance sampling driven by tree-pyramid refinement.

The sampler grows a tree pyramid over the domain: each iteration picks one
leaf, splits it, and draws a fresh sample from every new child cell. The
leaf mixture therefore concentrates components wherever the target has
mass, and every drawn sample doubles as an importance-weighted point.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .proposal import Kernel, TreeProposal, mixture_weights, sample_mixture
from .tree import DomainBounds, TreePyramid


class Weighting(enum.Enum):
    """Importance weight denominator."""

    STANDARD = "standard"            # sample's own component density
    DETERMINISTIC_MIXTURE = "dm"     # full leaf-mixture density


class NodeSelection(enum.Enum):
    """Rule for choosing which leaf to split next."""

    MAX_EVIDENCE = "max_evidence"    # argmax of target_value * radius**K
    MIXTURE_DRAW = "mixture_draw"    # categorical draw over leaf weights


@dataclass
class SamplerConfig:
    """Configuration for :func:`run_tp_ais`.

    ``n_samples`` is the size the returned sample set must reach; the final
    refinement step may overshoot it by at most ``2**dims - 1`` samples.
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
        if self.bounds is None:
            self.bounds = DomainBounds.centered(self.dims)
        if self.bounds.dims != self.dims:
            raise ValueError("bounds dimensionality does not match dims")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


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
        per-leaf samples are returned. Deterministic-mixture weights in the
        returned set are evaluated against the mixture as it stood when
        each sample was drawn, so each carries the leaf count of its own
        iteration: even with the uniform kernel their normalized values
        differ from the standard ones. :func:`leaf_sample_set` re-weights
        the final leaves against the finished tree, where the two agree.

    Notes
    -----
    Without resampling every node is drawn once, when it is created, so
    the returned set is the tree's sample and weight columns in creation
    order. Max-evidence selection then pops the leaf to split from a heap
    keyed by ``(-target_value * radius**K, row)``: the earliest-created
    leaf wins ties, as ``argmax`` over the insertion-ordered leaves does,
    and each split costs O(2**K log L). Resampling and mixture draws change
    every leaf's score or weight in each iteration, so they select over
    the live-leaf arrays instead.
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
        if config.weighting is Weighting.DETERMINISTIC_MIXTURE:
            q = proposal.density(points)
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
                scores = tree.target_value[leaves] * tree.per_level(
                    lambda r: r ** dims, leaves)
                chosen = leaves[int(np.argmax(scores))]
            else:
                chosen = leaves[sample_mixture(mixture_weights(tree), rng)]
        sample_new(tree.expand(chosen), 2 ** dims)

    rows = (tree.leaf_indices() if config.resample_leaves
            else np.arange(len(tree)))
    sample_set = WeightedSampleSet(tree.sample.take(rows, axis=0),
                                   tree.weight.take(rows))
    return TPAISResult(sample_set, tree, config)


def leaf_sample_set(tree: TreePyramid, kernel: Kernel,
                    weighting: Weighting = Weighting.STANDARD) -> WeightedSampleSet:
    """One weighted sample per current leaf, weighted against the final tree.

    Standard weights divide each leaf's stored target density by its own
    component density; deterministic-mixture weights divide by the full
    leaf-mixture density of the finished tree.
    """
    leaves = tree.leaf_indices()
    samples = tree.sample[leaves]
    if np.isnan(samples).any():
        raise ValueError("every leaf must hold a sample")
    proposal = TreeProposal(tree, kernel)
    q = (proposal.own_density(leaves, samples)
         if weighting is Weighting.STANDARD else proposal.density(samples))
    return WeightedSampleSet(samples, _weights(tree.target_value[leaves], q))


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
