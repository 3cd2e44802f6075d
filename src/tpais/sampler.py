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
from .tree import DEFAULT_MAX_DEPTH, DomainBounds, TreePyramid


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
    max_depth: int = DEFAULT_MAX_DEPTH

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


def _batch_draw(centers, radii, kernel: Kernel, rng: np.random.Generator):
    """One draw per component with the given centers (n, K) and radii (n,);
    returns the points and each point's density under its own component."""
    n, dims = centers.shape
    if kernel is Kernel.UNIFORM:
        u = rng.random((n, dims))
        points = centers + (2.0 * u - 1.0) * radii[:, None]
        own = 1.0 / (2.0 * radii) ** dims
    else:
        z = rng.standard_normal((n, dims))
        points = centers + z * radii[:, None]
        own = (np.exp(-0.5 * np.sum(z * z, axis=1))
               / (radii * math.sqrt(2.0 * math.pi)) ** dims)
    return points, own


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
        each sample was drawn; use :func:`leaf_sample_set` to re-weight
        the final leaves against the finished tree.

    Notes
    -----
    Without resampling every node is drawn once, when it is created, so
    the returned set is the store's sample and weight columns in creation
    order. Max-evidence selection then pops the leaf to split from a heap
    keyed by ``(-target_value * radius**K, row)``: the earliest-created
    leaf wins ties, as ``argmax`` over the insertion-ordered leaves does,
    and each split costs O(2**K log L). Resampling and mixture draws change
    every leaf's score or weight in each iteration, so they select over
    the live-leaf arrays instead.
    """
    rng = np.random.default_rng(config.seed)
    tree = TreePyramid(config.bounds, max_depth=config.max_depth)
    store = tree.store
    proposal = TreeProposal(tree, config.kernel)
    dims = config.dims
    greedy = config.node_selection is NodeSelection.MAX_EVIDENCE
    use_heap = greedy and not config.resample_leaves
    frontier = []  # (-target_value * radius**K, row) of every leaf

    def sample_nodes(rows, centers, radii):
        points, own = _batch_draw(centers, radii, config.kernel, rng)
        values = _eval_target(target, points)
        if config.weighting is Weighting.STANDARD:
            if (own <= 0.0).any():
                raise ValueError("sample fell outside its own component's "
                                 "support")
            weights = values / own
        else:
            q = proposal.density(points)
            if (q <= 0.0).any():
                raise ValueError("proposal mixture density is zero at a "
                                 "sample")
            weights = values / q
        store.sample[rows] = points
        store.target_value[rows] = values
        store.weight[rows] = weights
        return values

    def sample_new(first, count):
        rows = slice(first, first + count)
        values = sample_nodes(rows, store.center[rows], store.radius[rows])
        if use_heap:
            radius_pow = float(store.radius[first]) ** dims
            for row, f in enumerate(values.tolist(), start=first):
                heapq.heappush(frontier, (-(f * radius_pow), row))

    def reported_count() -> int:
        if config.resample_leaves:
            splits = (len(tree) - 1) // 2 ** dims
            return 1 + splits * (2 ** dims - 1)
        return len(tree)

    sample_new(0, 1)
    while reported_count() < config.n_samples:
        if config.resample_leaves:
            leaves = store.leaf_indices()
            sample_nodes(leaves, store.center.take(leaves, axis=0),
                         store.radius.take(leaves))
        if use_heap:
            chosen = heapq.heappop(frontier)[1]
        else:
            leaves = store.leaf_indices()
            if greedy:
                scores = store.target_value[leaves] * tree.per_level(
                    lambda r: r ** dims, leaves)
                chosen = leaves[int(np.argmax(scores))]
            else:
                chosen = leaves[sample_mixture(mixture_weights(tree), rng)]
        children = tree.expand(tree.node(chosen))
        sample_new(children[0].index, len(children))

    if config.resample_leaves:
        leaves = store.leaf_indices()
        sample_set = WeightedSampleSet(store.sample[leaves],
                                       store.weight[leaves])
    else:
        sample_set = WeightedSampleSet(store.sample[:len(tree)].copy(),
                                       store.weight[:len(tree)].copy())
    return TPAISResult(sample_set, tree, config)


def leaf_sample_set(tree: TreePyramid, kernel: Kernel,
                    weighting: Weighting = Weighting.STANDARD) -> WeightedSampleSet:
    """One weighted sample per current leaf, weighted against the final tree.

    Standard weights divide each leaf's stored target density by its own
    component density; deterministic-mixture weights divide by the full
    leaf-mixture density of the finished tree.
    """
    store = tree.store
    leaves = store.leaf_indices()
    samples = store.sample[leaves]
    if np.isnan(samples).any():
        raise ValueError("every leaf must hold a sample")
    values = store.target_value[leaves]
    if weighting is Weighting.STANDARD:
        if kernel is Kernel.UNIFORM:
            own = (tree.locate(samples) == leaves) / tree.per_level(
                lambda r: (2.0 * r) ** tree.dims, leaves)
        else:
            z = ((samples - store.center[leaves])
                 / store.radius[leaves][:, None])
            own = np.exp(-0.5 * np.sum(z * z, axis=1)) / tree.per_level(
                lambda r: (r * math.sqrt(2.0 * math.pi)) ** tree.dims, leaves)
        if np.any(own <= 0.0):
            raise ValueError("a leaf sample fell outside its own component's "
                             "support")
        weights = values / own
    else:
        proposal = TreeProposal(tree, kernel)
        q = proposal.density(samples)
        if np.any(q <= 0.0):
            raise ValueError("proposal mixture density is zero at a leaf "
                             "sample")
        weights = values / q
    return WeightedSampleSet(samples, weights)


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
    store = tree.store
    leaves = store.leaf_indices()
    points, _ = _batch_draw(store.center[leaves], store.radius[leaves], kernel,
                            rng)
    values = _eval_target(target, points)
    q = TreeProposal(tree, kernel).density(points)
    if np.any(q <= 0.0):
        raise ValueError("proposal mixture density is zero at a fresh draw")
    return float(np.mean(values / q))
