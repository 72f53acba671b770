"""Atomic accumulation and the retirement-counter primitive.

``atomicAdd`` on real GPUs is *atomic* (no lost updates) but *unordered*:
the accumulation is a strictly sequential fold whose operand order depends
on the runtime schedule.  :func:`atomic_fold` evaluates exactly that fold
for a sampled retirement order.

:class:`RetirementCounter` models the ``atomicInc``-based "last block turns
off the lights" idiom of the paper's SPRG/SPTR kernels (Listing 1): each
block increments the counter on completion, and the block observing
``prev == gridDim.x - 1`` performs the final combine.  The *identity* of the
last block is schedule-dependent, but the combine it performs reads the
partials in block-index order — which is why SPRG/SPTR are deterministic by
construction despite using an atomic.
"""

from __future__ import annotations

import numpy as np

from ..errors import SchedulerError
from ..fp.summation import _sequential_folds, serial_sum

__all__ = ["AtomicAccumulator", "RetirementCounter", "atomic_fold", "batched_atomic_fold"]


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


class AtomicAccumulator:
    """A single fp accumulator cell with explicit operation logging.

    Used by unit tests and by the OpenMP runtime's threaded backend; the
    vectorised reductions use :func:`atomic_fold` directly.
    """

    def __init__(self, initial: float = 0.0, dtype=np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self.value = self.dtype.type(initial)
        self.n_ops = 0

    def add(self, x) -> float:
        """Atomically add ``x``; returns the *previous* value (CUDA
        ``atomicAdd`` semantics)."""
        prev = self.value
        self.value = self.dtype.type(self.value + self.dtype.type(x))
        self.n_ops += 1
        return float(prev)

    def read(self) -> float:
        """Current accumulator value."""
        return float(self.value)


class RetirementCounter:
    """``atomicInc``-based block retirement counter (Listing 1).

    Parameters
    ----------
    grid_dim:
        Number of blocks that will retire.
    """

    def __init__(self, grid_dim: int) -> None:
        if grid_dim < 1:
            raise SchedulerError(f"grid_dim must be >= 1, got {grid_dim}")
        self.grid_dim = grid_dim
        self._count = 0
        self.last_block: int | None = None

    def retire(self, block_id: int) -> bool:
        """Block ``block_id`` retires; returns True iff it was the last.

        Mirrors ``prev = atomicInc(&retirementCount, gridDim.x);
        amLast = (prev == gridDim.x - 1)``.
        """
        if not 0 <= block_id < self.grid_dim:
            raise SchedulerError(f"block_id {block_id} out of range [0, {self.grid_dim})")
        if self._count >= self.grid_dim:
            raise SchedulerError("more retirements than blocks in the grid")
        prev = self._count
        self._count += 1
        am_last = prev == self.grid_dim - 1
        if am_last:
            self.last_block = block_id
        return am_last

    @property
    def retired(self) -> int:
        """Number of blocks retired so far."""
        return self._count
