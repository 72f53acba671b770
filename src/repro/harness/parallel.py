"""Sharded multi-process experiment executor.

Partitions an experiment's ``R`` simulated runs into per-worker shards,
executes them in a spawn-safe :mod:`multiprocessing` pool, and merges the
shard payloads into the **bit-exact** single-process result.  The safety
argument is the engine-wide one-stream-per-run RNG contract
(:mod:`repro.gpusim.scheduler`): scheduler streams are pure functions of
``(seed, run_index)``, so a shard that seeks the ladder to its run window
draws exactly the streams the serial experiment would, and per-run
payloads concatenate (:mod:`repro.experiments.sharding`) into the serial
payload bit for bit.  ``tests/test_sharded_executor.py`` pins this for
every shardable experiment.

Workers default to ``REPRO_WORKERS`` (else 1 — serial).  The pool is
created lazily and reused across experiments (``run-all`` pays the spawn
cost once); use the executor as a context manager, or call
:meth:`ShardedExecutor.close`.

Example
-------
>>> from repro.harness.parallel import ShardedExecutor
>>> with ShardedExecutor(workers=4) as ex:
...     result = ex.run("fig3", scale="default", seed=0)
>>> # result.rows is bit-identical to get_experiment("fig3").run(...)

Experiments that declare no axes
(:attr:`~repro.experiments.base.Experiment.axes`) transparently fall back
to serial execution, so ``run-all --workers N`` is always safe.

Every worker pins its own code fingerprint when it starts
(:func:`repro.harness.fingerprint.snapshot`) and returns that tree digest
with each shard.  The parent merges only shards computed under the tree
it pinned for its own cache keys; any other digest raises
:class:`CodeMismatchError` (an edit landed between the parent's pin and
the pool's spawn), so no result is ever keyed under code that did not
compute it.

CPU budget
----------
Every pool worker is started with its BLAS/OpenMP thread pools sized to
its share of the usable CPUs, ``max(1, cpus // workers)`` (``cpus`` from
:func:`os.sched_getaffinity`, else :func:`os.cpu_count`), recorded as
``result.meta["worker_threads"]``.  Without it each worker's OpenBLAS
starts one thread per CPU, so two workers on two cores run four BLAS
threads and the GEMM/GEMV-heavy cells (cgdiv's lockstep matvec, table7's
GNN layers) fight over the cores.  OpenBLAS reads its thread count only
when NumPy loads it, so the pool initializer is too late: the share goes
into ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` of the environment the spawn children inherit, only
for variables the user has not set (an explicit value passes through
untouched), and only while the pool starts; the parent's
:data:`os.environ` is restored afterwards, even if the start raises.
Bits do not move: the thread count changes how many threads compute
each product, not the simulated reduction orders, and nothing in the
library reads these variables.  A worker that :class:`multiprocessing.
pool.Pool` respawns after a crash starts after the restore and so
inherits the parent's unbounded thread pools.  The serial path
(``workers=1``) is untouched.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time

from .. import backend as _backend
from ..errors import ConfigurationError, ExperimentError
from ..experiments.axes import plan_sweep
from ..experiments.base import Experiment, ExperimentResult, get_experiment
from ..runtime import RunContext
from . import fingerprint as _fingerprint

__all__ = ["ShardedExecutor", "CodeMismatchError", "default_workers"]

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Pool start method: ``spawn`` is the only portable choice (``fork``
#: would inherit live NumPy state), and what the executor is tested with.
_START_METHOD = "spawn"

#: Thread-pool sizes a pool worker's BLAS/OpenMP runtimes read at load
#: (see "CPU budget" above).
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Serialises the scoped :data:`os.environ` edit of concurrent pool starts.
_ENV_LOCK = threading.Lock()


class CodeMismatchError(ExperimentError):
    """A pool worker runs a different source tree than the one the parent
    process pinned for its cache keys: its shards are refused, nothing is
    stored, and the pool is shut down.  Restart the process to pick up
    the edit."""


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (unset/empty = 1).

    A malformed or non-positive value raises a named
    :class:`~repro.errors.ConfigurationError` — silently degrading
    ``REPRO_WORKERS=eight`` to serial execution hid the typo behind an
    8x wall-clock surprise.
    """
    raw = os.environ.get(WORKERS_ENV, "")
    if not raw.strip():
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{WORKERS_ENV} must be an integer worker count, got {raw!r}"
        ) from None
    if workers < 1:
        raise ConfigurationError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has
    one, else the machine's CPU count)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextlib.contextmanager
def _thread_budget(threads: int):
    """Put ``threads`` into every unset :data:`_THREAD_ENV` variable for
    the duration of the block, then remove exactly those again."""
    with _ENV_LOCK:
        added = [name for name in _THREAD_ENV if name not in os.environ]
        try:
            for name in added:
                os.environ[name] = str(threads)
            yield
        finally:
            for name in added:
                os.environ.pop(name, None)


#: This worker's pinned tree digest (set by :func:`_worker_initializer`).
_WORKER_TREE: str | None = None


def _worker_initializer(backend_mode: str) -> None:
    """Pool initializer: forward the parent's backend selection and pin
    this worker's code fingerprint.

    ``spawn`` workers re-import the library with a fresh environment, so a
    parent whose backend was selected via :func:`repro.backend.set_backend`
    (e.g. the CLI ``--backend`` flag) would otherwise shard under a
    different backend than it merges under.  Bits are backend-invariant,
    but the selection contract — and cache-key hygiene — must hold in every
    process of the pool.

    The pin never raises here: a failed read is recorded as the digest
    and reported with the first shard, because an initializer that raises
    makes the pool respawn the worker forever and the parent hang.
    """
    global _WORKER_TREE
    _backend.set_backend(backend_mode)
    try:
        _WORKER_TREE = _fingerprint.snapshot().fingerprint
    except Exception as exc:  # noqa: BLE001 - reported by the parent
        _WORKER_TREE = f"unreadable ({type(exc).__name__}: {exc})"


def _shard_task(task: tuple) -> tuple[str | None, dict | None]:
    """Worker entry point: evaluate one shard's run window.

    Module-level (picklable by qualified name) and parameterised only by
    primitives, so it survives the ``spawn`` start method — each worker
    re-imports the library and rebuilds the experiment registry.  Returns
    ``(worker tree digest, payload)``; a worker whose tree differs from
    the parent's (``tree``) skips the work and returns no payload.
    """
    experiment_id, scale, seed, overrides, lo, hi, tree = task
    if _WORKER_TREE != tree:
        return _WORKER_TREE, None
    exp = get_experiment(experiment_id)
    params = exp.resolve_params(scale, overrides)
    return _WORKER_TREE, exp.shard_run(RunContext(seed=seed), params, lo, hi)


class ShardedExecutor:
    """Runs experiments across a multiprocessing pool with bit-exact merging.

    Parameters
    ----------
    workers:
        Shard/worker count; ``None`` reads ``REPRO_WORKERS`` (default 1).
        ``workers <= 1`` executes everything serially in-process.

    Each pool worker gets ``worker_threads`` BLAS/OpenMP threads (its
    share of the usable CPUs; ``None`` for a serial executor, which
    starts no pool) — see "CPU budget" in the module docstring.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {self.workers}")
        self.worker_threads = (
            max(1, _usable_cpus() // self.workers) if self.workers > 1 else None
        )
        self._pool = None
        #: Experiment executions this executor has performed (serial or
        #: pooled).  A cache-answered job never increments it, so "the
        #: warm grid touched no worker" is an assertable property — the
        #: service's ``/stats`` and the CI smoke both read it.
        self.dispatches = 0
        #: Spawn pools created over this executor's lifetime.  A
        #: long-lived executor serving many sequential jobs must reuse
        #: one pool (no per-job pool churn) — pinned by the longevity
        #: test; the service keeps one executor alive for its whole
        #: lifetime.
        self.pools_created = 0

    # ------------------------------------------------------------------ pool
    def _get_pool(self):
        if self._pool is None:
            mp_ctx = multiprocessing.get_context(_START_METHOD)
            with _thread_budget(self.worker_threads):
                self._pool = mp_ctx.Pool(
                    processes=self.workers,
                    initializer=_worker_initializer,
                    initargs=(_backend.backend_mode(),),
                )
            self.pools_created += 1
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------- run
    def plan(self, exp: Experiment, params: dict) -> list[tuple[int, int]] | None:
        """Shard windows for one experiment, or ``None`` when it must run
        serially (no declared axes, one worker, or a degenerate run count).

        Windows come from the sweep planner
        (:func:`~repro.experiments.axes.plan_sweep`), which also validates
        the declaration — a multi-shardable product or a negative axis
        size raises a named error there.
        """
        if self.workers <= 1 or not exp.axes:
            return None
        shards = plan_sweep(exp, params).shard_windows(self.workers)
        return shards if len(shards) > 1 else None

    def run(
        self,
        experiment_id: str,
        *,
        scale: str = "default",
        seed: int = 0,
        **overrides,
    ) -> ExperimentResult:
        """Run one experiment, sharded when possible.

        The returned result is bit-identical (``rows``/``extra``/``notes``)
        to ``get_experiment(experiment_id).run(scale=..., ctx=
        RunContext(seed))`` — sharding changes wall-clock, never bits.
        ``result.meta["workers"]``/``["shards"]`` record how it ran, and
        a pooled result's ``["worker_threads"]`` each worker's CPU share.
        """
        exp = get_experiment(experiment_id)
        params = exp.resolve_params(scale, overrides)
        self.dispatches += 1
        shards = self.plan(exp, params)
        if shards is None:
            result = exp.run(scale=scale, ctx=RunContext(seed=seed), **overrides)
            result.meta.update(workers=1, shards=1)
            return result
        start = time.perf_counter()
        tree = _fingerprint.snapshot().fingerprint
        tasks = [
            (experiment_id, scale, seed, dict(overrides), lo, hi, tree)
            for lo, hi in shards
        ]
        replies = self._get_pool().map(_shard_task, tasks)
        foreign = sorted({t for t, _ in replies if t != tree})
        if foreign:
            self.close()  # its workers run other code: never reuse them
            raise CodeMismatchError(
                f"{experiment_id}: pool workers run source tree(s) {foreign}, "
                f"but this process pinned {tree} for its cache keys; the "
                "source changed after this process started — restart it"
            )
        payload = exp.merge_shards(params, [part for _, part in replies])
        rows, notes, extra = exp.finalize(RunContext(seed=seed), params, payload)
        elapsed = time.perf_counter() - start
        return ExperimentResult(
            experiment_id=exp.experiment_id,
            title=exp.title,
            scale=scale,
            params=params,
            rows=rows,
            notes=notes,
            elapsed_s=elapsed,
            extra=extra,
            seed=seed,
            meta={
                "workers": self.workers,
                "shards": len(shards),
                "worker_threads": self.worker_threads,
            },
        )
