"""Atomic accumulation in arrival order.

``atomicAdd`` on real GPUs is *atomic* (no lost updates) but *unordered*:
the accumulation is a strictly sequential fold whose operand order depends
on the runtime schedule.  :func:`atomic_fold` evaluates exactly that fold
for a sampled retirement order, :func:`batched_atomic_fold` for one order
per simulated run.
"""

from __future__ import annotations

import numpy as np

from ..errors import SchedulerError
from ..fp.summation import _sequential_folds, serial_sum

__all__ = ["atomic_fold", "batched_atomic_fold"]


def atomic_fold(values: np.ndarray, order: np.ndarray | None = None) -> float:
    """Sequential IEEE fold of ``values`` in ``order`` (identity if None).

    This is the arithmetic performed by a chain of same-address
    ``atomicAdd`` calls retiring in ``order``.
    """
    arr = np.asarray(values)
    if order is None:
        return serial_sum(arr)
    order = np.asarray(order)
    if order.shape != arr.shape:
        raise SchedulerError(
            f"order shape {order.shape} does not match values shape {arr.shape}"
        )
    return float(np.add.accumulate(arr[order])[-1])


def batched_atomic_fold(values: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Sequential IEEE folds of ``values`` in every row of ``orders``.

    The batched :func:`atomic_fold`: row ``r`` of the result is
    bit-identical to ``atomic_fold(values, orders[r])`` (shared 1-D
    values) or ``atomic_fold(values[r], orders[r])`` (per-run 2-D values —
    the CG run batch, where every run folds its own partials).  This is
    the fold half of the batched run-axis engine — the order half is
    :class:`repro.gpusim.scheduler.WaveSchedulerBatch`.

    Parameters
    ----------
    values:
        ``(n,)`` summands shared by all runs, or ``(R, n)`` per-run
        summands (the fold runs in their dtype either way).
    orders:
        ``(R, n)`` retirement orders, one simulated run per row; an entry
        outside ``[0, n)`` raises :class:`~repro.errors.SchedulerError`.

    Returns
    -------
    numpy.ndarray
        ``(R,)`` float64 fold results.
    """
    arr = np.asarray(values)
    om = np.asarray(orders)
    if om.ndim != 2:
        raise SchedulerError(f"orders must be 2-D (runs, n), got shape {om.shape}")
    if arr.ndim == 2:
        if arr.shape != om.shape:
            raise SchedulerError(
                f"per-run values shape {arr.shape} must match orders shape {om.shape}"
            )
    elif om.shape[1:] != arr.shape:
        raise SchedulerError(
            f"orders row shape {om.shape[1:]} does not match values shape {arr.shape}"
        )
    return _sequential_folds(arr, om, SchedulerError)

