"""A-priori error analysis for summation orders (Higham-style).

These bounds put the measured variability in context: the paper's Table 1
deltas are *typical-case* values, while the classical worst-case bounds
grow linearly in n for a serial fold and logarithmically for a tree.  The
experiments use :func:`expected_vs_std` to sanity-check the scheduler model
(measured Vs spreads must sit under the worst case and near the
random-walk estimate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "SummationBounds",
    "serial_error_bound",
    "tree_error_bound",
    "summation_condition_number",
    "expected_vs_std",
    "bounds_for",
]

_EPS64 = float(np.finfo(np.float64).eps)


def serial_error_bound(x, eps: float = _EPS64) -> float:
    """Worst-case absolute error of any *serial* fold of ``x``.

    ``|err| <= (n - 1) * eps * sum|x_i| / (1 - (n-1) eps)`` (Higham 4.4,
    simplified to first order: ``(n-1) * eps * sum|x|``).
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    if n <= 1:
        return 0.0
    return (n - 1) * eps * float(np.sum(np.abs(arr)))


def tree_error_bound(x, eps: float = _EPS64) -> float:
    """Worst-case absolute error of a balanced-tree fold:
    ``ceil(log2 n) * eps * sum|x|`` — the accuracy argument for pairwise
    reduction."""
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    if n <= 1:
        return 0.0
    depth = int(np.ceil(np.log2(n)))
    return depth * eps * float(np.sum(np.abs(arr)))


def summation_condition_number(x) -> float:
    """``sum|x| / |sum x|`` — the cancellation sensitivity of the sum.

    1 for same-sign data; large when the sum nearly cancels (the paper's
    N(0,1) inputs), which is why relative variability is wilder there.
    Returns ``inf`` for an exactly-zero sum.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        return 1.0
    denom = abs(float(np.sum(arr)))
    num = float(np.sum(np.abs(arr)))
    if denom == 0.0:
        return float("inf")
    return num / denom


def expected_vs_std(x, n_partials: int, eps: float = _EPS64) -> float:
    """Random-walk estimate of the Vs standard deviation for a two-stage
    reduction whose combine stage folds ``n_partials`` partials in a random
    order.

    Each combine step rounds with error ~ U(-u/2, u/2) where u is the ulp
    of the running total; treating steps as independent gives
    ``std(err) ~ sqrt(n_partials / 12) * eps * mean|running total|`` and
    ``std(Vs) = std(err) / |sum x|``.  This is an order-of-magnitude tool:
    the fig1 experiment checks measured spreads against it within ~10x.
    """
    if n_partials < 1:
        raise ConfigurationError(f"n_partials must be >= 1, got {n_partials}")
    arr = np.asarray(x, dtype=np.float64)
    total = abs(float(np.sum(arr)))
    if total == 0.0 or arr.size == 0:
        return float("nan")
    # Mean |running total| for a random order; for same-sign data this is
    # total/2, for cancelling data it is ~ the partial-sum RMS.
    partial_rms = max(total / 2.0, float(np.std(arr)) * np.sqrt(arr.size) / 2.0)
    err_std = np.sqrt(n_partials / 12.0) * eps * partial_rms
    return err_std / total


@dataclass(frozen=True)
class SummationBounds:
    """Bundle of a-priori quantities for one input array."""

    n: int
    serial_bound: float
    tree_bound: float
    condition_number: float


def bounds_for(x) -> SummationBounds:
    """Compute all a-priori bounds for ``x``."""
    arr = np.asarray(x, dtype=np.float64)
    return SummationBounds(
        n=int(arr.size),
        serial_bound=serial_error_bound(arr),
        tree_bound=tree_error_bound(arr),
        condition_number=summation_condition_number(arr),
    )
