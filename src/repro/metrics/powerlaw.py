"""Power-law fitting for ``Max |Vs|`` growth (paper §III-C).

The paper fits ``Max |Vs|`` as a function of array size ``n`` with
``beta * n**alpha`` and reports ``alpha ≈ 1/2`` for uniform inputs
(``Max|Vs| ∝ sqrt(n)``) and a larger exponent for normal inputs — the range
of the summands matters.

The fit is a linear least-squares regression in log–log space, with an
R² diagnostic so experiments can assert fit quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = ["PowerLawFit", "fit_power_law"]


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting ``y = beta * x**alpha``.

    Attributes
    ----------
    alpha:
        Exponent.
    beta:
        Prefactor.
    r_squared:
        Coefficient of determination of the log–log linear fit.
    n_points:
        Number of (x, y) pairs used.
    """

    alpha: float
    beta: float
    r_squared: float
    n_points: int


def fit_power_law(x, y) -> PowerLawFit:
    """Fit ``y = beta * x**alpha`` by least squares in log–log space.

    Parameters
    ----------
    x, y:
        Positive samples; non-positive or non-finite pairs are dropped.

    Raises
    ------
    ConfigurationError
        If fewer than two valid points remain.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ConfigurationError(f"x and y must have equal length, got {x.shape} vs {y.shape}")
    mask = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    x = x[mask]
    y = y[mask]
    if x.size < 2:
        raise ConfigurationError("need at least two positive points to fit a power law")
    lx = np.log(x)
    ly = np.log(y)
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    alpha, logbeta = float(coef[0]), float(coef[1])
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(alpha=alpha, beta=float(np.exp(logbeta)), r_squared=r2, n_points=int(x.size))
