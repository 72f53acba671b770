"""Distributional analysis of variability samples (paper §III-C).

The paper asks whether FPNA-induced variability can be modelled as Gaussian
noise.  It estimates the probability density of ``Vs`` over many runs and
applies a Kullback–Leibler divergence criterion against a fitted normal:
SPA's variability converges to a normal whose parameters depend on the input
distribution and GPU family (Fig. 1), while AO's does not (Fig. 2).

This module provides the histogram PDF estimator, KL divergence between a
sample and a fitted normal, and a compact :class:`DistributionSummary` used
by the figure-reproduction experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "estimate_pdf",
    "kl_divergence",
    "kl_to_normal",
    "normality_report",
    "DistributionSummary",
]


def estimate_pdf(samples, bins: int = 101, range_: tuple[float, float] | None = None):
    """Histogram-based PDF estimate.

    Parameters
    ----------
    samples:
        1-D array of observations.
    bins:
        Number of equal-width bins.
    range_:
        Optional (low, high); defaults to the sample range.

    Returns
    -------
    (centers, density):
        Bin centers and density values (integrates to 1).
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    x = x[np.isfinite(x)]
    if x.size == 0:
        raise ConfigurationError("cannot estimate a PDF from an empty/non-finite sample")
    if bins < 2:
        raise ConfigurationError(f"bins must be >= 2, got {bins}")
    density, edges = np.histogram(x, bins=bins, range=range_, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


def kl_divergence(p: np.ndarray, q: np.ndarray, *, eps: float = 1e-12) -> float:
    """Discrete KL divergence ``D(p || q)`` between two densities on the
    same support grid.  Both are renormalised to sum to 1; zero bins are
    floored at ``eps`` in ``q`` to keep the divergence finite.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ConfigurationError(f"p and q must share a grid, got {p.shape} vs {q.shape}")
    p = np.clip(p, 0, None)
    q = np.clip(q, eps, None)
    ps = p.sum()
    qs = q.sum()
    if ps <= 0:
        raise ConfigurationError("p must have positive mass")
    p = p / ps
    q = q / qs
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _norm_pdf(x, mu: float, sigma: float) -> np.ndarray:
    """Normal density at ``x`` with mean ``mu`` and standard deviation
    ``sigma > 0``.

    Bit for bit ``scipy.stats.norm.pdf(x, loc=mu, scale=sigma)`` for non-NaN
    ``x``: the same operations in the same order (standardise, ``exp`` of
    ``-z**2 / 2``, divide by ``sqrt(2 pi)``, then by ``sigma``), without
    importing SciPy.
    """
    z = (np.asarray(x, dtype=np.float64) - mu) / sigma
    return np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi) / sigma


def kl_to_normal(samples, bins: int = 101) -> float:
    """KL divergence between the sample histogram and a fitted normal.

    This is the paper's "KL criterion": a small value indicates the
    variability is well modelled by Gaussian noise.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    x = x[np.isfinite(x)]
    if x.size < 8:
        raise ConfigurationError("need at least 8 samples for a KL estimate")
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    if sigma == 0.0:
        # Degenerate: all samples identical. KL to any continuous density is
        # infinite; report inf rather than raising so callers can assert on it.
        return float("inf")
    centers, density = estimate_pdf(x, bins=bins)
    width = centers[1] - centers[0]
    q = _norm_pdf(centers, mu, sigma)
    return kl_divergence(density * width, q * width)


@dataclass(frozen=True)
class DistributionSummary:
    """Moments + normality evidence for a variability sample.

    Attributes
    ----------
    n:
        Sample size (finite values only).
    mean, std, skewness, excess_kurtosis:
        Standard moments.
    kl_normal:
        KL divergence to the moment-fitted normal (paper's criterion).
    is_normal_kl:
        Convenience verdict ``kl_normal < kl_threshold``.
    """

    n: int
    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    kl_normal: float
    is_normal_kl: bool


def normality_report(
    samples,
    *,
    bins: int = 101,
    kl_threshold: float = 0.10,
) -> DistributionSummary:
    """Build a :class:`DistributionSummary` for a variability sample.

    ``kl_threshold`` encodes the paper's qualitative verdict boundary: the
    SPA samples land well below it, the AO samples well above.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    x = x[np.isfinite(x)]
    if x.size < 8:
        raise ConfigurationError("need at least 8 samples for a normality report")
    sigma = float(np.std(x))
    if sigma == 0.0:
        return DistributionSummary(
            n=int(x.size),
            mean=float(np.mean(x)),
            std=0.0,
            skewness=0.0,
            excess_kurtosis=0.0,
            kl_normal=float("inf"),
            is_normal_kl=False,
        )
    kl = kl_to_normal(x, bins=bins)
    # Biased sample moments: the central moments over n, so skewness is
    # m3 / m2**1.5 and excess kurtosis m4 / m2**2 - 3.
    d = x - np.mean(x)
    d2 = d * d
    m2 = float(np.mean(d2))
    m3 = float(np.mean(d2 * d))
    m4 = float(np.mean(d2 * d2))
    return DistributionSummary(
        n=int(x.size),
        mean=float(np.mean(x)),
        std=sigma,
        skewness=m3 / m2**1.5,
        excess_kurtosis=m4 / (m2 * m2) - 3.0,
        kl_normal=kl,
        is_normal_kl=bool(kl < kl_threshold),
    )
