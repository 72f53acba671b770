"""Compensated and exact summation algorithms.

These are the classical remedies for FPNA (Higham, *Accuracy and Stability
of Numerical Algorithms*): they do not make a parallel reduction
deterministic by themselves, but they shrink the order-dependence to (or
below) one ulp of the exact result, and :func:`exact_sum` is fully
order-independent — useful both as a ground-truth oracle in tests and as a
"reproducible summation" baseline in the ablation benchmarks.

* :func:`kahan_sum` — compensated fold, O(1) extra state.
* :func:`neumaier_sum` — Kahan variant robust to ``|x| > |s|``.
* :func:`sorted_sum` — fold in ascending-magnitude order (error-reducing
  and deterministic for a fixed multiset, independent of input order).
* :func:`exact_sum` — ``math.fsum``: correctly rounded, order-independent.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeError

__all__ = [
    "kahan_sum",
    "neumaier_sum",
    "sorted_sum",
    "exact_sum",
]


def _as_1d_f64(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-D array, got shape {arr.shape}")
    return arr


def kahan_sum(x) -> float:
    """Kahan compensated summation (scalar loop, float64).

    Error bound: ``|err| <= 2*eps*sum(|x|)`` independent of n — versus
    ``O(n*eps)`` for the plain fold.
    """
    arr = _as_1d_f64(x)
    s = 0.0
    c = 0.0
    for v in arr.tolist():  # tolist() gives Python floats: ~3x faster loop
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def neumaier_sum(x) -> float:
    """Neumaier's improved Kahan sum (handles ``|x_i| > |s|`` correctly).

    The classic failure case for Kahan — e.g. ``[1.0, 1e100, 1.0, -1e100]``
    — sums to exactly 2.0 here.
    """
    arr = _as_1d_f64(x)
    s = 0.0
    c = 0.0
    for v in arr.tolist():
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return s + c


def sorted_sum(x, *, descending: bool = False) -> float:
    """Left fold in ascending-|x| order (or descending with the flag).

    For a fixed multiset of inputs the result is independent of the storage
    order (ties broken by value then sign for full determinism), making this
    a cheap "reproducible summation" strategy; ascending magnitude also
    reduces rounding error for same-sign data.
    """
    arr = _as_1d_f64(x)
    if arr.size == 0:
        return 0.0
    # Sort by (|x|, x) so equal-magnitude opposite-sign values order stably.
    order = np.lexsort((arr, np.abs(arr)))
    if descending:
        order = order[::-1]
    return float(np.add.accumulate(arr[order])[-1])


def exact_sum(x) -> float:
    """Correctly rounded sum via ``math.fsum`` — the order-independent
    oracle.  Cost is O(n) with a significant constant; use for verification
    and reproducible baselines, not hot paths."""
    arr = _as_1d_f64(x)
    return math.fsum(arr.tolist())
