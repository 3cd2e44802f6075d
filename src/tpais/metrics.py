"""Sample-quality metrics: effective sample sizes, divergences, evidence.

The Jensen-Shannon divergence is a Monte Carlo estimate over uniform
draws on the domain, scaled by the domain volume so it approximates the
integral. Effective sample size comes in two flavors: the importance
sampling form based on normalized weights, and the MCMC form based on
integrated autocorrelation with Geyer-style truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .proposal import gaussian_kernel_sum
from .tree import DomainBounds, _as_batch, _count, _eval_target, _scale

LN2 = math.log(2.0)


def normalized_weights(weights) -> np.ndarray:
    """Weights rescaled to sum to 1; rejects negatives and all-zero sets.
    Finite weights whose sum overflows are first scaled by an exact power
    of two, as in ``_autocorrelation``; any other input keeps its bits."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d array")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    with np.errstate(over="ignore"):
        total = w.sum()
    if total <= 0.0:
        raise ValueError("cannot normalize all-zero weights")
    if total == math.inf:
        w = np.ldexp(w, -np.frexp(w.max())[1])
        total = w.sum()
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
    """Biased sample autocorrelation of a 1-d series via FFT. The series is
    first scaled by an exact power of two to a largest magnitude below 1,
    which leaves the autocorrelation unchanged and keeps its squares finite."""
    n = x.size
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
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


def jsd(p, q, bounds: DomainBounds, n: int, rng: np.random.Generator) -> float:
    """Monte Carlo Jensen-Shannon divergence between two densities.

    Both halves are estimated on the same uniform point set, which makes
    the estimate exactly symmetric in ``p`` and ``q`` for a given ``rng``
    state. The integrand is pointwise non-negative, but it cancels in
    floating point where ``p`` is close to ``q``, so the estimate is floored
    at 0; the mixture midpoint never vanishes where either density is
    positive, so the estimate is always finite. A density that
    breaks the target contract (finite, non-negative, shape (n,)), or an
    ``n`` that is not a count >= 1 as ``ExperimentSpec(jsd_points=...)``
    reads one (a whole number, or a string spelling one), raises
    ``ValueError``.
    """
    pts = rng.uniform(bounds.lower, bounds.upper,
                      size=(_count("n", n), bounds.dims))
    pv, qv = _eval_target(p, pts), _eval_target(q, pts)
    mid = 0.5 * (pv + qv)
    terms = np.zeros(len(pts))
    mask_p = pv > 0.0
    mask_q = qv > 0.0
    terms[mask_p] += 0.5 * pv[mask_p] * np.log(pv[mask_p] / mid[mask_p])
    terms[mask_q] += 0.5 * qv[mask_q] * np.log(qv[mask_q] / mid[mask_q])
    return max(float(bounds.volume * terms.mean()), 0.0)


@dataclass
class KDEModel:
    """Gaussian product-kernel density estimate of ``points`` (n, K) with
    one scalar ``bandwidth``, which must be positive and finite (a
    ``ValueError`` naming ``bandwidth`` otherwise). The points must be
    finite. A 1-d ``points`` array holds n one-dimensional points, as a
    1-d chain does for ``ess_mcmc``."""

    points: np.ndarray
    bandwidth: float = 0.05

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim < 2:
            self.points = self.points.reshape(-1, 1)
        if (self.points.ndim != 2 or 0 in self.points.shape
                or not np.isfinite(self.points).all()):
            raise ValueError("KDE points must be a non-empty (n, K) array "
                             "of finite values")
        self.bandwidth = _scale("bandwidth", self.bandwidth)

    @property
    def dims(self) -> int:
        return self.points.shape[1]

    def density(self, x):
        return kde_density(self, x)


def kde_density(model: KDEModel, x):
    """KDE density ``mean_i K_h(x - x_i)`` at one point or a batch."""
    pts, single = _as_batch(x, model.dims)
    h = model.bandwidth
    norm = model.points.shape[0] * (h * math.sqrt(2.0 * math.pi)) ** model.dims
    out = gaussian_kernel_sum(pts, model.points, h, 1.0 / norm)
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
