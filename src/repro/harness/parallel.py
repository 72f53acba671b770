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
"""

from __future__ import annotations

import multiprocessing
import os
import time

from .. import backend as _backend
from ..errors import ConfigurationError, ExperimentError
from ..experiments.axes import plan_sweep
from ..experiments.base import Experiment, ExperimentResult, get_experiment
from ..runtime import RunContext

__all__ = ["ShardedExecutor", "default_workers"]

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


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


def _worker_initializer(backend_mode: str) -> None:
    """Pool initializer: forward the parent's backend selection.

    ``spawn`` workers re-import the library with a fresh environment, so a
    parent whose backend was selected via :func:`repro.backend.set_backend`
    (e.g. the CLI ``--backend`` flag) would otherwise shard under a
    different backend than it merges under.  Bits are backend-invariant,
    but the selection contract — and cache-key hygiene — must hold in every
    process of the pool.
    """
    _backend.set_backend(backend_mode)


def _shard_task(task: tuple) -> dict:
    """Worker entry point: evaluate one shard's run window.

    Module-level (picklable by qualified name) and parameterised only by
    primitives, so it survives the ``spawn`` start method — each worker
    re-imports the library and rebuilds the experiment registry.
    """
    experiment_id, scale, seed, overrides, lo, hi = task
    exp = get_experiment(experiment_id)
    params = exp.resolve_params(scale, overrides)
    return exp.shard_run(RunContext(seed=seed), params, lo, hi)


class ShardedExecutor:
    """Runs experiments across a multiprocessing pool with bit-exact merging.

    Parameters
    ----------
    workers:
        Shard/worker count; ``None`` reads ``REPRO_WORKERS`` (default 1).
        ``workers <= 1`` executes everything serially in-process.
    start_method:
        Multiprocessing start method; ``"spawn"`` (the default) is the
        only portable choice (fork would inherit live NumPy state), and
        what the executor is tested with.
    """

    def __init__(self, workers: int | None = None, *, start_method: str = "spawn") -> None:
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {self.workers}")
        self._start_method = start_method
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
            mp_ctx = multiprocessing.get_context(self._start_method)
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
        ``result.meta["workers"]``/``["shards"]`` record how it ran.
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
        tasks = [
            (experiment_id, scale, seed, dict(overrides), lo, hi)
            for lo, hi in shards
        ]
        parts = self._get_pool().map(_shard_task, tasks)
        payload = exp.merge_shards(params, parts)
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
            meta={"workers": self.workers, "shards": len(shards)},
        )
