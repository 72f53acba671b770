"""Base class and metadata for parallel-sum implementations."""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..gpusim.device import DeviceSpec, get_device
from ..gpusim.kernel import LaunchConfig
from ..gpusim.scheduler import SchedulerParams, WaveScheduler
from ..runtime import RunContext, RunStreams, get_context

__all__ = ["ReductionProperties", "ReductionImpl"]


@dataclass(frozen=True)
class ReductionProperties:
    """Static properties of a reduction strategy (one Table 2 row).

    Attributes
    ----------
    name:
        Short identifier (``ao``, ``spa``, ``sptr``, ``sprg``, ``tprc``,
        ``cu``).
    long_name:
        The paper's descriptive name.
    deterministic:
        Whether the strategy is bitwise reproducible by construction.
    n_kernels:
        Kernel launches per sum (the paper lists "-" for CU; we report its
        effective single fused kernel).
    synchronization:
        The mechanism avoiding data races.
    """

    name: str
    long_name: str
    deterministic: bool
    n_kernels: int
    synchronization: str


class ReductionImpl(abc.ABC):
    """A parallel sum bound to a simulated device.

    Parameters
    ----------
    device:
        Device name or spec (default ``"v100"``).
    threads_per_block:
        Block size ``Nt``; must be a power of two for the tree kernels.
    n_blocks:
        Grid size ``Nb``; default covers the input one-element-per-thread.
    scheduler_params:
        Overrides for the arrival-time model.

    Subclasses implement :meth:`_reduce`, receiving the validated float
    array, the launch configuration and a scheduler (``None`` for
    deterministic strategies, which must not consume randomness).
    """

    properties: ReductionProperties

    def __init__(
        self,
        device: str | DeviceSpec = "v100",
        *,
        threads_per_block: int = 256,
        n_blocks: int | None = None,
        scheduler_params: SchedulerParams | None = None,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        if threads_per_block < 1 or threads_per_block & (threads_per_block - 1):
            raise ConfigurationError(
                f"threads_per_block must be a power of two, got {threads_per_block}"
            )
        self.threads_per_block = threads_per_block
        self.n_blocks = n_blocks
        self.scheduler_params = scheduler_params

    # ------------------------------------------------------------------ API
    def sum(self, x, *, ctx: RunContext | None = None, rng: np.random.Generator | None = None) -> float:
        """Compute the sum of 1-D array ``x`` on the simulated device.

        For non-deterministic strategies each call consumes a fresh
        scheduler stream from the run context (simulating a new run) unless
        an explicit ``rng`` is given.  Deterministic strategies ignore both.
        """
        arr = np.asarray(x)
        if arr.ndim != 1:
            raise ConfigurationError(f"expected 1-D input, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        if arr.size == 0:
            return 0.0
        launch = self._launch_for(arr.size)
        sched = None
        if not self.properties.deterministic:
            if rng is None:
                rng = (ctx or get_context()).scheduler()
            sched = WaveScheduler(launch, rng, self.scheduler_params)
        return self._reduce(arr, launch, sched)

    __call__ = sum

    # ----------------------------------------------------------- run batch
    def sum_runs(
        self,
        xs,
        *,
        ctx: RunContext | None = None,
        rngs: RunStreams | Sequence[np.random.Generator] | None = None,
    ) -> np.ndarray:
        """Batched run-axis sums: one simulated run per row of ``xs``.

        Row ``r`` of the result is bit-identical to
        ``self.sum(xs[r], rng=rngs[r])``.  When ``rngs`` is omitted, a
        non-deterministic strategy draws one fresh scheduler stream per
        run, in run order (the engine-wide contract); passing explicit
        ``rngs`` lets a caller thread *persistent* per-run streams through
        repeated batched sums — the CG run batch, where each solve is one
        simulated run whose stream every inner product keeps consuming.
        A :class:`~repro.runtime.RunStreams` window (or a
        :meth:`~repro.runtime.RunStreams.take` view of its active runs)
        keeps the batched strategies' draws in one pass per sum.
        Deterministic strategies consume no randomness either way.

        Parameters
        ----------
        xs:
            ``(R, n)`` matrix, one run's summands per row (all runs share
            one launch geometry, derived from ``n``).
        ctx:
            Run context supplying fresh streams when ``rngs`` is omitted.
        rngs:
            Optional per-run streams (non-deterministic strategies).

        Returns
        -------
        numpy.ndarray
            ``(R,)`` float64 sums.
        """
        mat = np.asarray(xs)
        if mat.ndim != 2:
            raise ConfigurationError(f"expected 2-D (runs, n) input, got shape {mat.shape}")
        if mat.dtype.kind != "f":
            mat = mat.astype(np.float64)
        n_runs, n = mat.shape
        if rngs is not None and len(rngs) != n_runs:
            raise ConfigurationError(f"expected {n_runs} rngs, got {len(rngs)}")
        if n == 0:
            return np.zeros(n_runs, dtype=np.float64)
        if not self.properties.deterministic and rngs is None:
            c = ctx or get_context()
            rngs = c.schedulers(n_runs)
        return self._reduce_runs(mat, self._launch_for(n), rngs)

    def _reduce_runs(
        self,
        mat: np.ndarray,
        launch: LaunchConfig,
        rngs: RunStreams | Sequence[np.random.Generator] | None,
    ) -> np.ndarray:
        """Default run-batch: loop the scalar :meth:`_reduce` per row
        (bit-exact by construction).  Strategies with a vectorised batch
        path override this."""
        out = np.empty(mat.shape[0], dtype=np.float64)
        for r in range(mat.shape[0]):
            sched = None
            if not self.properties.deterministic:
                sched = WaveScheduler(launch, rngs[r], self.scheduler_params)
            out[r] = self._reduce(mat[r], launch, sched)
        return out

    # ------------------------------------------------------------ internals
    def _launch_for(self, n: int) -> LaunchConfig:
        # Memoised per input size: the run-batched solvers evaluate
        # thousands of same-shape sums, and launch validation/occupancy
        # would otherwise dominate the per-call cost.
        cache: dict[int, LaunchConfig] = self.__dict__.setdefault("_launch_cache", {})
        launch = cache.get(n)
        if launch is None:
            tpb = self.threads_per_block
            nb = self.n_blocks if self.n_blocks is not None else (n + tpb - 1) // tpb
            nb = max(1, nb)
            launch = LaunchConfig(
                device=self.device,
                n_blocks=nb,
                threads_per_block=tpb,
                shared_mem_bytes=min(tpb * 8, self.device.shared_mem_per_block),
            )
            cache[n] = launch
        return launch

    @abc.abstractmethod
    def _reduce(self, arr: np.ndarray, launch: LaunchConfig, sched: WaveScheduler | None) -> float:
        """Evaluate the fold; subclass responsibility."""

    # ------------------------------------------------------------- niceties
    @property
    def name(self) -> str:
        """Short strategy name."""
        return self.properties.name

    @property
    def deterministic(self) -> bool:
        """Whether this strategy is bitwise reproducible."""
        return self.properties.deterministic

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(device={self.device.name!r}, "
            f"Nt={self.threads_per_block}, Nb={self.n_blocks})"
        )
