"""Sample-quality metrics: effective sample sizes, divergences, evidence.

Divergences are Monte Carlo estimates over uniform draws on the domain,
scaled by the domain volume so they approximate the corresponding
integrals. Effective sample size comes in two flavors: the importance
sampling form based on normalized weights, and the MCMC form based on
integrated autocorrelation with Geyer-style truncation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .proposal import gaussian_kernel_sum
from .sampler import _eval_target
from .tree import DomainBounds, _as_batch

LN2 = math.log(2.0)


def normalized_weights(weights) -> np.ndarray:
    """Weights rescaled to sum to 1; rejects negatives and all-zero sets."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d array")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("cannot normalize all-zero weights")
    return w / total


def ess_is(weights) -> float:
    """Importance-sampling ESS, ``1 / sum(w_norm**2)``; lies in [1, n]."""
    w = normalized_weights(weights)
    return float(1.0 / np.sum(w * w))


def ness_is(weights) -> float:
    """Normalized ESS in [0, 1]: ``ess_is / n``."""
    w = np.asarray(weights, dtype=float)
    return ess_is(w) / w.size


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    """Biased sample autocorrelation of a 1-d series via FFT."""
    n = x.size
    centered = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[:n] / n
    if acov[0] <= 0.0:
        raise ValueError("chain is constant; autocorrelation is undefined")
    return acov / acov[0]


def ess_mcmc(chain) -> float:
    """MCMC effective sample size ``n / (1 + 2 * sum(rho))``.

    The autocorrelation sum is truncated at the first consecutive pair
    ``rho(2k) + rho(2k+1)`` that is not positive. Multivariate chains of
    shape (n, K) report the minimum ESS over dimensions. The result is
    clamped to [1, n]. A chain with a NaN or infinite state raises
    ``ValueError``.
    """
    chain = np.asarray(chain, dtype=float)
    if chain.ndim == 1:
        chain = chain[:, None]
    if chain.ndim != 2 or chain.shape[0] < 2:
        raise ValueError("chain must hold at least two states")
    if not np.isfinite(chain).all():
        raise ValueError("chain states must be finite")
    n = chain.shape[0]
    ess_min = math.inf
    for d in range(chain.shape[1]):
        rho = _autocorrelation(chain[:, d])
        tau = 1.0
        k = 1
        while k + 1 < n:
            pair = rho[k] + rho[k + 1]
            if pair <= 0.0:
                break
            tau += 2.0 * pair
            k += 2
        ess_min = min(ess_min, n / tau)
    return float(min(max(ess_min, 1.0), n))


def _uniform_points(bounds: DomainBounds, n: int, rng: np.random.Generator):
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return rng.uniform(bounds.lower, bounds.upper, size=(n, bounds.dims))


def kl_mc(p, q, bounds: DomainBounds, n: int, rng: np.random.Generator) -> float:
    """Monte Carlo KL divergence ``integral p * log(p / q)`` over the domain.

    Uses ``n`` uniform draws scaled by the domain volume. Points where
    ``p == 0`` contribute zero; any point with ``p > 0`` and ``q == 0``
    makes the divergence infinite. A density that breaks the target
    contract (finite, non-negative, shape (n,)), or an ``n`` that is not
    an integer >= 1, raises ``ValueError``.
    """
    pts = _uniform_points(bounds, n, rng)
    pv, qv = _eval_target(p, pts), _eval_target(q, pts)
    support = pv > 0.0
    if np.any(qv[support] <= 0.0):
        return math.inf
    terms = np.zeros(n)
    terms[support] = pv[support] * np.log(pv[support] / qv[support])
    return float(bounds.volume * terms.mean())


def jsd(p, q, bounds: DomainBounds, n: int, rng: np.random.Generator) -> float:
    """Monte Carlo Jensen-Shannon divergence between two densities.

    Both halves are estimated on the same uniform point set, which makes
    the estimate exactly symmetric in ``p`` and ``q`` for a given ``rng``
    state. The integrand is pointwise non-negative, so the estimate is
    never negative, and the mixture midpoint never vanishes where either
    density is positive, so the estimate is always finite. A density that
    breaks the target contract, or a bad ``n``, raises ``ValueError``, as
    in :func:`kl_mc`.
    """
    pts = _uniform_points(bounds, n, rng)
    pv, qv = _eval_target(p, pts), _eval_target(q, pts)
    mid = 0.5 * (pv + qv)
    terms = np.zeros(n)
    mask_p = pv > 0.0
    mask_q = qv > 0.0
    terms[mask_p] += 0.5 * pv[mask_p] * np.log(pv[mask_p] / mid[mask_p])
    terms[mask_q] += 0.5 * qv[mask_q] * np.log(qv[mask_q] / mid[mask_q])
    return float(bounds.volume * terms.mean())


@dataclass
class KDEModel:
    """Gaussian product-kernel density estimate with scalar bandwidth."""

    points: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.ndim != 2 or 0 in self.points.shape:
            raise ValueError("KDE points must be a non-empty (n, K) array")
        if not 0.0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be positive and finite")

    @property
    def dims(self) -> int:
        return self.points.shape[1]

    def density(self, x):
        return kde_density(self, x)


def kde_fit(points, bandwidth: float = 0.05) -> KDEModel:
    """Fit a kernel density estimate to ``points`` of shape (n, K)."""
    return KDEModel(points, float(bandwidth))


def kde_density(model: KDEModel, x):
    """KDE density ``mean_i K_h(x - x_i)`` at one point or a batch."""
    pts, single = _as_batch(x, model.dims)
    h = model.bandwidth
    norm = model.points.shape[0] * (h * math.sqrt(2.0 * math.pi)) ** model.dims
    out = gaussian_kernel_sum(pts, model.points, h,
                              lambda k: k.sum(axis=1) / norm)
    return float(out[0]) if single else out


def evidence_estimate(weights) -> float:
    """Evidence (normalizing constant) estimate: mean of the raw weights."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    return float(w.mean())


def evidence_mse(estimates, true_z: float = 1.0) -> float:
    """Mean squared error of evidence estimates against the true value."""
    z = np.atleast_1d(np.asarray(estimates, dtype=float))
    if z.size == 0:
        raise ValueError("estimates must be non-empty")
    return float(np.mean((z - true_z) ** 2))


def expectation_estimate(fn, samples, weights) -> float:
    """Self-normalized importance estimate of ``E[fn(x)]``.

    ``samples`` has shape (n, K) and ``fn`` must return one value per
    sample, shape (n,); any other shape raises ``ValueError``.
    """
    w = normalized_weights(weights)
    vals = np.asarray(fn(np.atleast_2d(np.asarray(samples, dtype=float))),
                      dtype=float)
    if vals.shape != w.shape:
        raise ValueError(f"fn must return shape {w.shape}, one value per "
                         f"weight, got shape {vals.shape}")
    return float(np.sum(vals * w))
