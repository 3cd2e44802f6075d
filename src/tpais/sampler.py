"""Adaptive importance sampling driven by tree-pyramid refinement.

The sampler grows a tree pyramid over the domain: each iteration picks one
leaf, splits it, and draws a fresh sample from every new child cell. The
leaf mixture therefore concentrates components wherever the target has
mass, and every drawn sample doubles as an importance-weighted point.
Which leaf to split is decided here alone: by the score
``value * radius**K``, greedily or by a mixture draw over the leaves. Both
rules pop the leaf from one heap: the greedy key is the negated score, and
the mixture draw's is the arrival time of an exponential clock that ticks
at the rate ``weight * radius**K``, so the first arrival is a categorical
draw over the leaves (the next-reaction method).
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
    array or a slice), unnormalized: the rates of the sampler's race.

    A node whose importance weight is unset contributes zero. Raises
    ``ValueError`` unless every value is finite and non-negative.
    """
    weights = tree.weight[rows]
    vals = (np.where(np.isnan(weights), 0.0, weights)
            * tree.radii(rows) ** tree.dims)
    if np.count_nonzero((vals >= 0.0) & (vals < math.inf)) < vals.size:
        raise ValueError("leaf weights must be finite and non-negative")
    return vals


def _arrivals(rates, rng: np.random.Generator) -> np.ndarray:
    """Arrival times ``E / rate`` of independent exponential clocks that
    tick at ``rates``, with one standard exponential draw E each, in a
    time unit of 2**64: E is scaled by 2**-64 before the division.

    The first arrival is a categorical draw with probability proportional
    to the rates. A zero rate never arrives: its time is +inf. The scaling
    is exact and keeps every positive rate's time finite: E is at most
    about 44.4, and 44.4 * 2**-64 over the smallest subnormal rate is
    below 5e305. A rate above about ``E * 2.4e288`` gets a subnormal time
    and loses precision.
    """
    times = np.full(rates.size, math.inf)
    return np.divide(rng.standard_exponential(rates.size) * 2.0 ** -64,
                     rates, out=times, where=rates > 0.0)


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
    Each iteration draws the rows made last (the root, then the last
    split's children), scores them and chooses the leaf to split, in one
    of two branches. Without resampling every node is drawn once, when it
    is created, so the returned set holds the tree's rows in creation
    order, and the new rows are pushed onto one heap of ``(key, row)``
    that pops the leaf to split under either rule. Max evidence keys a row
    by ``-target_value * radius**K``: the earliest-created leaf wins ties,
    as ``argmax`` over the insertion-ordered leaves does. A mixture draw
    keys it by ``now + E / rate``, with ``rate`` its ``weight *
    radius**K``, E a standard exponential draw and ``now`` the key popped
    last (the race clock). The clocks are memoryless, so each pop is a
    categorical draw over the unsplit leaves in proportion to their rates,
    and b pops are a draw of b leaves without replacement. A zero rate
    gets the key +inf; popping it means every leaf has zero weight, which
    raises ``ValueError("degenerate mixture: ...")``. Every positive rate,
    a subnormal one too, gets a finite key (see ``_arrivals``). A leaf of
    tiny rate that wins, as the root does when its draw lies far from the
    target's mass, moves the clock past the later arrivals ``t`` by more
    than ``now + t`` can hold. So when ``t < now * 2**-20`` for a new row,
    every key is shifted down by ``now`` and the clock restarts at zero:
    the keys keep their order, and each key is rounded by less than
    2**-32 of its own ``t``. A row is pushed when its parent is popped,
    so its key is at most the sum of the arrivals on its path from the
    root: below 65 * 5e305, so no key overflows. Either way a split costs
    O(2**K log N), and a restart O(N). Resampling changes every
    leaf's score and weight in each iteration, so it lists the leaves,
    with the rows made last first, in one draw call and selects over the
    listing's arrays: the argmax of the score, or a fresh race,
    ``argmin(E_i / rate_i)``.
    The first draw of the new rows is only taken from the random stream.
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
    # (key, row) of every leaf drawn and not split: -target_value *
    # radius**K for max evidence, an arrival time for a mixture draw
    frontier = []
    # radius**K per level as NumPy takes it for the listing's argmax and
    # mixture_weights: a Python float ** can round it one ulp apart
    radius_pows = []
    now = 0.0  # the key that chose the last split: the race clock

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
    for split in range(splits):
        if resample:
            # the listing takes the rows made last too: their first draw,
            # never read, leads this call to keep the random stream and
            # is dropped. A leaf's point is written when it is split, or
            # by the last listing.
            leaves = tree.leaf_indices()
            points, q = proposal.draw(
                np.concatenate((np.arange(fresh.start, fresh.stop), leaves)),
                rng)
            points, q = points[-leaves.size:], q[-leaves.size:]
            values = store(leaves, points, q)
            if greedy:
                j = int(np.argmax(values * tree.radii(leaves) ** dims))
            else:  # a fresh race over the listing
                times = _arrivals(mixture_weights(tree, leaves), rng)
                j = int(np.argmin(times))
                now = times.item(j)
            chosen = leaves[j]
            tree.sample[chosen] = points[j]
            if split == splits - 1:
                tree.sample[leaves] = points
        else:
            values = sample_new(fresh)
            if greedy:
                level = tree.level.item(fresh.start)
                if level == len(radius_pows):  # the first node of a new level
                    radius_pows = (tree.level_radii ** dims).tolist()
                radius_pow = radius_pows[level]
                keys = [-(f * radius_pow) for f in values.tolist()]
            else:
                times = _arrivals(mixture_weights(tree, fresh), rng).tolist()
                if min(times) < now * 2.0 ** -20:
                    # now + t would round the new arrivals away: restart
                    # the clock at zero, keeping the order of the keys
                    frontier = [(key - now, row) for key, row in frontier]
                    heapq.heapify(frontier)
                    now = 0.0
                keys = [now + t for t in times]
            for row, key in enumerate(keys, start=fresh.start):
                heapq.heappush(frontier, (key, row))
            now, chosen = heapq.heappop(frontier)
        if now == math.inf:
            raise ValueError("degenerate mixture: every leaf has zero weight")
        first = tree.expand(chosen)
        fresh = slice(first, first + 2 ** dims)

    # the last split's children, or the root of a run without splits
    sample_new(fresh)

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
