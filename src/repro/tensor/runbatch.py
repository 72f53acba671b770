"""Run-axis batching state for the autograd stack.

Two pieces of shared state let the tensor layer run the paper's "N
independent training runs" protocol through one lockstep computation:

* :class:`RunBatch` — the per-batch state of ``R`` simulated runs
  advancing in lockstep: one scheduler stream per run (drawn in run order
  at batch start — the engine-wide one-stream-per-run contract, see
  :mod:`repro.gpusim.scheduler`), plus a :class:`~repro.ops.segmented.
  SegmentPlan` cache so each distinct index array is planned once per
  batch instead of once per kernel call per run per epoch.  Installed with
  :func:`run_batch`, consulted by the non-deterministic tensor kernels
  (:meth:`repro.tensor.Tensor.index_add` and the backward of
  :meth:`~repro.tensor.Tensor.gather_rows`).

* the **pinned kernel stream** (:func:`use_kernel_stream`) — the scalar
  twin of the same contract: one scheduler stream pinned for the duration
  of one simulated run, consumed by every ND kernel of that run in op
  order.  ``repro.experiments._gnn.train_graphsage`` pins one stream per
  training run; the lockstep batch draws the same streams in run order,
  which is what makes ``train_graphsage_runs`` bit-identical to the
  scalar loop.

Both are thread-local; neither changes any behaviour while inactive.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Sequence
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError
from ..ops.segmented import SegmentPlan
from ..runtime import RunContext, RunStreams, get_context

__all__ = [
    "RunBatch",
    "run_batch",
    "active_run_batch",
    "use_kernel_stream",
    "current_kernel_stream",
]

_state = threading.local()


class RunBatch:
    """State of ``R`` simulated runs advancing in lockstep.

    Parameters
    ----------
    n_runs:
        Number of lockstep runs (the leading axis of run-batched tensors).
    ctx:
        Context supplying the per-run scheduler streams (ignored when
        ``rngs`` is given or ``deterministic=True``); defaults to the
        active context.
    rngs:
        Explicit per-run streams (length ``n_runs``: a
        :class:`~repro.runtime.RunStreams` window or Generators) — for
        callers that pre-drew the streams, e.g. to interleave several
        batches' draws.
    deterministic:
        ``True`` builds a draw-free batch (canonical fold orders only):
        the lockstep-inference mode for run-batched models under
        deterministic kernels.
    """

    def __init__(
        self,
        n_runs: int,
        *,
        ctx: RunContext | None = None,
        rngs: RunStreams | Sequence[np.random.Generator] | None = None,
        deterministic: bool = False,
    ) -> None:
        if n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
        self.n_runs = int(n_runs)
        self.deterministic = bool(deterministic)
        if deterministic:
            self.rngs: RunStreams | None = None
        elif rngs is not None:
            if len(rngs) != n_runs:
                raise ConfigurationError(
                    f"expected {n_runs} rngs, got {len(rngs)}"
                )
            self.rngs = RunStreams.wrap(rngs)
        else:
            ctx = ctx or get_context()
            # One scheduler stream per run, drawn in run order — exactly
            # the streams a scalar loop's runs would pin one at a time;
            # every batched kernel draws all runs in one pass.
            self.rngs = ctx.schedulers(n_runs)
        self._plans: dict[tuple, tuple[np.ndarray, SegmentPlan]] = {}

    def plan_for(self, index: np.ndarray, n_targets: int) -> SegmentPlan:
        """A cached :class:`SegmentPlan` for ``(index, n_targets)``.

        Keyed by the index array's buffer identity — a training loop
        presents the same edge/mask arrays every epoch, so each plan's
        argsort happens once per batch.  The cache keeps a reference to the
        keyed array, which pins its buffer address for the batch lifetime.
        """
        idx = np.asarray(index)
        key = (
            idx.__array_interface__["data"][0],
            idx.shape,
            idx.strides,
            idx.dtype.str,
            int(n_targets),
        )
        hit = self._plans.get(key)
        if hit is not None:
            return hit[1]
        plan = SegmentPlan(idx, n_targets)
        self._plans[key] = (idx, plan)
        return plan


@contextlib.contextmanager
def run_batch(batch: RunBatch) -> Iterator[RunBatch]:
    """Install ``batch`` as the active lockstep run batch for the block."""
    prev = getattr(_state, "batch", None)
    _state.batch = batch
    try:
        yield batch
    finally:
        _state.batch = prev


def active_run_batch() -> RunBatch | None:
    """The innermost active :class:`RunBatch`, or ``None``."""
    return getattr(_state, "batch", None)


@contextlib.contextmanager
def use_kernel_stream(rng: np.random.Generator | None) -> Iterator[None]:
    """Pin one scheduler stream for every ND tensor kernel in the block.

    The scalar one-stream-per-run contract: a simulated training run draws
    its stream once and every non-deterministic kernel of that run —
    forward aggregations and backward scatter-adds alike — consumes it
    sequentially in op order.  ``None`` pins nothing (kernels fall back to
    one fresh context stream per call, the standalone-op behaviour).
    """
    prev = getattr(_state, "stream", None)
    _state.stream = rng
    try:
        yield
    finally:
        _state.stream = prev


def current_kernel_stream() -> np.random.Generator | None:
    """The pinned kernel stream, or ``None`` when none is pinned."""
    return getattr(_state, "stream", None)
