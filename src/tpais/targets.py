"""Randomized Gaussian-mixture targets on the domain [-1, 1]**K.

Three generator families of increasing difficulty: a single narrow
Gaussian, a five-component mixture, and an egg-crate grid of 4**K equal
modes. Every target is a normalized density over R**K, so its evidence
over R**K is 1, but its mass inside the domain is less: over the bench's
gmm5 targets the median is 0.917 in 1D, 0.892 in 2D and 0.813 in 3D
(ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tree import DomainBounds, _as_batch

EGG_MODE_COORDS = (-0.6, -0.2, 0.2, 0.6)
EGG_MAX_DIMS = 7
_BLOCK_PAIRS = 1 << 22  # cap on the floats of a block's two (rows, m) arrays


@dataclass
class GaussianMixture:
    """Mixture of axis-aligned Gaussians.

    Parameters
    ----------
    means : ndarray, shape (m, K)
        Component centres; must be finite.
    variances : ndarray, shape (m, K)
        Diagonal covariance entries per component, finite and positive.
    weights : ndarray, shape (m,)
        Component probabilities; must sum to 1.
    """

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.means.shape != self.variances.shape:
            raise ValueError("means and variances must have matching shapes")
        if self.weights.shape != (self.means.shape[0],):
            raise ValueError("one weight per component required")
        if not np.isfinite(self.means).all():
            raise ValueError("means must be finite")
        if not np.all((self.variances > 0.0) & (self.variances < math.inf)):
            raise ValueError("variances must be positive and finite")
        if np.any(self.weights < 0.0) or not math.isclose(
                self.weights.sum(), 1.0, rel_tol=1e-9):
            raise ValueError("weights must be non-negative and sum to 1")
        self._log_norm = 0.5 * np.log(2.0 * math.pi * self.variances).sum(1)
        # (m,) rows per axis: means, -2 * variances; d / (-2 v) = -0.5 (d / v)
        self._axes = tuple(zip(self.means.T.copy(),
                               -2.0 * self.variances.T.copy()))

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dims(self) -> int:
        return self.means.shape[1]

    def density(self, x):
        """Mixture pdf at one point (K,) or a batch (n, K), taken in blocks
        of rows whose two (rows, m) arrays hold at most 2**22 floats."""
        pts, single = _as_batch(x, self.dims)
        rows = _BLOCK_PAIRS // (2 * len(self.weights)) or 1
        out = self._block(pts) if len(pts) <= rows else np.concatenate(
            [self._block(pts[i:i + rows]) for i in range(0, len(pts), rows)])
        return float(out[0]) if single else out

    def _block(self, pts):
        """Mixture pdf at each row of ``pts`` (rows, K): ``-0.5 * z**2`` is
        added one dimension at a time into one (rows, m) array, in place."""
        expo = None
        for col, (mean, scale) in zip(pts.T[:, :, None], self._axes):
            term = col - mean
            term *= term
            term /= scale
            if expo is None:
                expo = term
            else:
                expo += term
                del term  # freed before the next one is made
        expo -= self._log_norm
        return np.exp(expo, out=expo) @ self.weights

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` points from the mixture."""
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        std = np.sqrt(self.variances[idx])
        return rng.normal(self.means[idx], std)

    def box_mass(self, bounds: DomainBounds) -> float:
        """Exact probability mass inside an axis-aligned box."""
        total = 0.0
        for w, mu, var in zip(self.weights, self.means, self.variances):
            prob = 1.0
            for d in range(self.dims):
                s = math.sqrt(2.0 * var[d])
                prob *= 0.5 * (math.erf((bounds.upper[d] - mu[d]) / s)
                               - math.erf((bounds.lower[d] - mu[d]) / s))
            total += w * prob
        return total


@dataclass
class TargetDensity:
    """A Gaussian-mixture target density paired with its evaluation domain.

    Instances are callable on points or batches; a call evaluates
    ``model.density``, so the mixture in ``model`` is the target.
    """

    model: GaussianMixture
    bounds: DomainBounds

    def __call__(self, x):
        return self.model.density(x)


def make_normal_target(rng: np.random.Generator, dims: int) -> TargetDensity:
    """Single Gaussian: means ~ U(-1, 1), per-dimension std ~ U(0.01, 0.05)."""
    bounds = DomainBounds.centered(dims)
    mean = rng.uniform(-1.0, 1.0, size=dims)
    std = rng.uniform(0.01, 0.05, size=dims)
    model = GaussianMixture(mean[None, :], (std ** 2)[None, :], np.array([1.0]))
    return TargetDensity(model, bounds)


def make_gmm5_target(rng: np.random.Generator, dims: int) -> TargetDensity:
    """Five equal-weight Gaussians with variances ~ U(0.01, 0.05)."""
    bounds = DomainBounds.centered(dims)
    means = rng.uniform(-1.0, 1.0, size=(5, dims))
    variances = rng.uniform(0.01, 0.05, size=(5, dims))
    model = GaussianMixture(means, variances, np.full(5, 0.2))
    return TargetDensity(model, bounds)


def make_egg_target(dims: int) -> TargetDensity:
    """Egg-crate grid: 4**K equal modes at coordinates {-0.6, -0.2, 0.2, 0.6}.

    Every component has diagonal covariance 0.01. The component count grows
    as 4**K, so dimensions above 7 are rejected.
    """
    if dims > EGG_MAX_DIMS:
        raise ValueError(f"egg target supports at most {EGG_MAX_DIMS} dimensions")
    bounds = DomainBounds.centered(dims)
    grids = np.meshgrid(*[np.asarray(EGG_MODE_COORDS)] * dims, indexing="ij")
    means = np.stack([g.ravel() for g in grids], axis=1)
    m = means.shape[0]
    model = GaussianMixture(means, np.full((m, dims), 0.01), np.full(m, 1.0 / m))
    return TargetDensity(model, bounds)

