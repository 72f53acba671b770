"""The OpenMP-like runtime: schedules, reductions, ordered construct.

Model
-----
``#pragma omp parallel for reduction(+:sum)`` over ``n`` iterations with
``T`` threads:

1. The **schedule** maps iterations to threads — ``static`` (contiguous
   chunks, deterministic), ``static,chunk`` (round-robin chunks,
   deterministic) or ``dynamic,chunk`` (chunks claimed in completion order:
   the mapping itself is schedule-dependent).
2. Each thread folds its iterations serially *in iteration order* into a
   private partial.
3. Partials combine into the shared variable in **thread completion order**
   — unspecified by OpenMP, hence non-deterministic.

The ``ordered`` construct (paper Listings 2–3) forces the body to execute
in iteration order, making the whole reduction a strict serial fold
regardless of the schedule — bitwise deterministic, as Table 3 shows.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..fp.summation import serial_sum
from ..runtime import RunContext, get_context

__all__ = ["Schedule", "OpenMPRuntime"]


class Schedule(str, enum.Enum):
    """OpenMP loop schedules supported by the runtime."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    GUIDED = "guided"


@dataclass(frozen=True)
class _Assignment:
    """Iteration→thread mapping: list of (thread, start, stop) chunks in
    claim order."""

    chunks: tuple[tuple[int, int, int], ...]
    num_threads: int


class OpenMPRuntime:
    """A parallel-for runtime with OpenMP reduction semantics.

    Parameters
    ----------
    num_threads:
        Team size (``OMP_NUM_THREADS``).
    schedule:
        Loop schedule; :class:`Schedule` or its string value.
    chunk:
        Chunk size for static-chunked / dynamic / guided schedules; ``None``
        gives the OpenMP defaults (static: one contiguous block per thread;
        dynamic: 1; guided: proportional remaining).
    backend:
        ``"simulated"`` or ``"threads"`` (see package docstring).
    ctx:
        Run context for the simulated backend's scheduler randomness.
    """

    def __init__(
        self,
        num_threads: int = 8,
        *,
        schedule: Schedule | str = Schedule.STATIC,
        chunk: int | None = None,
        backend: str = "simulated",
        ctx: RunContext | None = None,
    ) -> None:
        if num_threads < 1:
            raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
        if chunk is not None and chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
        if backend not in ("simulated", "threads"):
            raise ConfigurationError(f"unknown backend {backend!r}")
        self.num_threads = num_threads
        self.schedule = Schedule(schedule)
        self.chunk = chunk
        self.backend = backend
        self.ctx = ctx

    # ------------------------------------------------------------ schedules
    def _static_chunks(self, n: int) -> list[tuple[int, int, int]]:
        if self.chunk is None:
            # One contiguous block per thread (OpenMP default static).
            base = n // self.num_threads
            rem = n % self.num_threads
            out = []
            start = 0
            for t in range(self.num_threads):
                size = base + (1 if t < rem else 0)
                if size:
                    out.append((t, start, start + size))
                start += size
            return out
        out = []
        c = self.chunk
        for i, start in enumerate(range(0, n, c)):
            out.append((i % self.num_threads, start, min(start + c, n)))
        return out

    def _dynamic_chunks(self, n: int, rng: np.random.Generator) -> list[tuple[int, int, int]]:
        c = self.chunk or 1
        starts = list(range(0, n, c))
        # Threads claim chunks in submission order, but which thread claims
        # each chunk depends on completion timing.
        claimers = rng.integers(0, self.num_threads, size=len(starts))
        return [(int(t), s, min(s + c, n)) for t, s in zip(claimers, starts)]

    def _guided_chunks(self, n: int, rng: np.random.Generator) -> list[tuple[int, int, int]]:
        cmin = self.chunk or 1
        out = []
        start = 0
        while start < n:
            size = max(cmin, (n - start) // (2 * self.num_threads))
            t = int(rng.integers(0, self.num_threads))
            out.append((t, start, min(start + size, n)))
            start += size
        return out

    def assignment(self, n: int, rng: np.random.Generator | None = None) -> _Assignment:
        """Compute the iteration→thread mapping for an ``n``-iteration loop."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        if self.schedule is Schedule.STATIC:
            chunks = self._static_chunks(n)
        else:
            if rng is None:
                rng = (self.ctx or get_context()).scheduler()
            if self.schedule is Schedule.DYNAMIC:
                chunks = self._dynamic_chunks(n, rng)
            else:
                chunks = self._guided_chunks(n, rng)
        return _Assignment(chunks=tuple(chunks), num_threads=self.num_threads)

    # ------------------------------------------------------------ reduction
    def reduce_sum(self, array, *, ordered: bool = False) -> float:
        """``parallel for reduction(+:sum)`` over ``array``.

        With ``ordered=True`` the body executes in iteration order (the
        paper's Listing 2): a strict serial fold — deterministic.  Without
        it, per-thread partials combine in completion order.
        """
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError(f"expected 1-D input, got shape {arr.shape}")
        if ordered:
            # The ordered construct serialises the additions in iteration
            # order no matter the schedule or backend.
            return serial_sum(arr)
        if self.backend == "threads":
            return self._reduce_threads(arr)
        return self._reduce_simulated(arr)

    def _thread_partials(self, assign: _Assignment, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-thread private partials for one assignment (chunks folded
        serially in claim order); returns ``(partials, touched)``."""
        partials = np.zeros(self.num_threads, dtype=np.float64)
        touched = np.zeros(self.num_threads, dtype=bool)
        for t, s, e in assign.chunks:
            # Each chunk folds serially into the thread's private partial.
            partials[t] = np.add.accumulate(
                np.concatenate(([partials[t]], arr[s:e]))
            )[-1]
            touched[t] = True
        return partials, touched

    def _reduce_simulated(self, arr: np.ndarray) -> float:
        rng = (self.ctx or get_context()).scheduler()
        assign = self.assignment(arr.size, rng)
        partials, touched = self._thread_partials(assign, arr)
        active = np.flatnonzero(touched)
        order = rng.permutation(active.size)
        return float(np.add.accumulate(partials[active][order])[-1]) if active.size else 0.0

    def _reduce_simulated_runs(self, arr: np.ndarray, n_runs: int) -> np.ndarray:
        """Batched run-axis engine for the simulated backend (Table 3).

        One scheduler stream per trial, in trial order — the per-trial draw
        sequence (schedule draws, then the combine permutation) is exactly
        the scalar :meth:`_reduce_simulated`'s, so every trial is
        bit-identical to a scalar loop on the same context.  Static
        schedules have a run-invariant iteration→thread mapping, so the
        thread partials are folded **once** and only the combine orders are
        sampled per trial, folded batched via
        :func:`~repro.gpusim.atomics.batched_atomic_fold`.  Dynamic/guided
        schedules re-fold partials per trial (the mapping itself is
        schedule-dependent) but still batch the combine.
        """
        from ..gpusim.atomics import batched_atomic_fold

        ctx = self.ctx or get_context()
        if self.schedule is Schedule.STATIC:
            assign = self.assignment(arr.size)
            partials, touched = self._thread_partials(assign, arr)
            active = np.flatnonzero(touched)
            k = active.size
            orders = np.empty((n_runs, k), dtype=np.int64)
            for r, rng in enumerate(ctx.schedulers(n_runs)):
                orders[r] = rng.permutation(k)
            if k == 0:
                return np.zeros(n_runs, dtype=np.float64)
            return batched_atomic_fold(partials[active], orders)
        out = np.empty(n_runs, dtype=np.float64)
        for r, rng in enumerate(ctx.schedulers(n_runs)):
            assign = self.assignment(arr.size, rng)
            partials, touched = self._thread_partials(assign, arr)
            active = np.flatnonzero(touched)
            order = rng.permutation(active.size)
            out[r] = (
                float(np.add.accumulate(partials[active][order])[-1])
                if active.size
                else 0.0
            )
        return out

    def _reduce_threads(self, arr: np.ndarray) -> float:
        assign = self.assignment(arr.size)
        partials = [0.0] * self.num_threads
        combine_order: list[int] = []
        lock = threading.Lock()
        total = [0.0]

        per_thread: dict[int, list[tuple[int, int]]] = {}
        for t, s, e in assign.chunks:
            per_thread.setdefault(t, []).append((s, e))

        def worker(t: int) -> None:
            acc = 0.0
            for s, e in per_thread.get(t, []):
                acc = float(np.add.accumulate(np.concatenate(([acc], arr[s:e])))[-1])
            with lock:
                total[0] = total[0] + acc
                partials[t] = acc
                combine_order.append(t)

        threads = [threading.Thread(target=worker, args=(t,)) for t in per_thread]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        self.last_combine_order = tuple(combine_order)
        return total[0]

    # ---------------------------------------------------------------- other
    def reduce_many(self, array, n_trials: int, *, ordered: bool = False) -> np.ndarray:
        """Run :meth:`reduce_sum` ``n_trials`` times (the Table 3 loop).

        The simulated backend executes all trials through the batched
        run-axis engine (:meth:`_reduce_simulated_runs`) — bit-identical,
        trial for trial, to looping :meth:`reduce_sum` on the same context,
        but folding the run-invariant work (thread partials under a static
        schedule; the whole array under ``ordered``) only once.
        """
        if n_trials < 1:
            raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError(f"expected 1-D input, got shape {arr.shape}")
        if ordered:
            # The ordered construct is a strict serial fold with no
            # scheduler randomness: every trial is the same value.
            return np.full(n_trials, serial_sum(arr), dtype=np.float64)
        if self.backend == "threads":
            return np.array([self._reduce_threads(arr) for _ in range(n_trials)])
        return self._reduce_simulated_runs(arr, n_trials)
