"""Randomized Gaussian-mixture targets on the domain [-1, 1]**K.

Three generator families of increasing difficulty: a single narrow
Gaussian, a five-component mixture, and an egg-crate grid of 4**K equal
modes. Every target is a normalized density over R**K, so its true
evidence is 1 (mass outside the domain is typically negligible but not
exactly zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .proposal import _row_blocks
from .tree import DomainBounds, _as_batch

EGG_MODE_COORDS = (-0.6, -0.2, 0.2, 0.6)
EGG_MAX_DIMS = 7


@dataclass
class GaussianMixture:
    """Mixture of axis-aligned Gaussians.

    Parameters
    ----------
    means : ndarray, shape (m, K)
    variances : ndarray, shape (m, K)
        Diagonal covariance entries per component.
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
        if np.any(self.variances <= 0.0):
            raise ValueError("variances must be positive")
        if np.any(self.weights < 0.0) or not math.isclose(
                self.weights.sum(), 1.0, rel_tol=1e-9):
            raise ValueError("weights must be non-negative and sum to 1")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dims(self) -> int:
        return self.means.shape[1]

    def density(self, x):
        """Mixture pdf at one point (K,) or a batch (n, K), taken in blocks
        of rows with a bounded number of point-component pairs."""
        pts, single = _as_batch(x, self.dims)
        log_norm = 0.5 * np.log(2.0 * math.pi * self.variances).sum(axis=1)
        out = np.empty(pts.shape[0])
        for rows in _row_blocks(pts.shape[0], self.n_components):
            # (rows, m, K) standardized squared distances to each component
            z2 = pts[rows, None, :] - self.means
            np.square(z2, out=z2)
            z2 /= self.variances
            z2 = z2.sum(axis=2)  # frees the block before the next one
            out[rows] = np.exp(-0.5 * z2 - log_norm) @ self.weights
        return float(out[0]) if single else out

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
    """A target density paired with its evaluation domain.

    Instances are callable on points or batches. ``model`` exposes the true
    mixture when the target was synthesized from one.
    """

    fn: callable = field(repr=False)
    bounds: DomainBounds
    model: GaussianMixture = None
    name: str = ""

    def __call__(self, x):
        return self.fn(x)


def _wrap(model: GaussianMixture, bounds: DomainBounds, name: str) -> TargetDensity:
    return TargetDensity(fn=model.density, bounds=bounds, model=model, name=name)


def make_normal_target(rng: np.random.Generator, dims: int) -> TargetDensity:
    """Single Gaussian: means ~ U(-1, 1), per-dimension std ~ U(0.01, 0.05)."""
    bounds = DomainBounds.centered(dims)
    mean = rng.uniform(-1.0, 1.0, size=dims)
    std = rng.uniform(0.01, 0.05, size=dims)
    model = GaussianMixture(mean[None, :], (std ** 2)[None, :], np.array([1.0]))
    return _wrap(model, bounds, "normal")


def make_gmm5_target(rng: np.random.Generator, dims: int) -> TargetDensity:
    """Five equal-weight Gaussians with variances ~ U(0.01, 0.05)."""
    bounds = DomainBounds.centered(dims)
    means = rng.uniform(-1.0, 1.0, size=(5, dims))
    variances = rng.uniform(0.01, 0.05, size=(5, dims))
    model = GaussianMixture(means, variances, np.full(5, 0.2))
    return _wrap(model, bounds, "gmm5")


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
    return _wrap(model, bounds, "egg")

