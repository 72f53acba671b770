"""The ``sweep-workers2`` workload.

It runs the run-all grid below through
``JobRunner(ShardedExecutor(workers=2), ResultCache(<fresh dir>))`` in
this process, the path ``run-all`` takes on a cold cache.  Each
repetition of the grid gets a fresh cache directory, so every cell is
computed and stored.
"""

from __future__ import annotations

import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing

#: The run-all grid of ``benchmarks/test_runall_workers.py::WORKLOAD``:
#: every shardable experiment at run counts where the run axis dominates.
GRID = [
    ("fig1", {"n_runs": 4_000}),
    ("fig3", {"n_runs": 200}),
    ("fig4", {"n_runs": 1_000}),
    ("fig5", {"n_runs": 1_000}),
    ("table5", {"n_runs": 400}),
    ("cgdiv", {"n_runs": 80}),
    ("table3", {"n_trials": 2_000}),
    ("table7", {"n_models": 32}),
]

#: Pool size (``nproc`` of the 2-vCPU machine the bounds were set on).
WORKERS = 2

#: Set-ups per untraced run; ``setup_s`` is their median.
N_SETUPS = 3

#: The cell cross-checked against a serial run.
CROSS_CHECK = "fig4"


def experiment_seeds(seed: int) -> dict[str, int]:
    """One experiment seed per grid cell, drawn from the workload seed."""
    rng = random.Random(seed)
    return {eid: rng.randrange(2**31) for eid, _ in GRID}


def set_up():
    """One set-up; returns ``(executor, seconds)``.

    Spawning the pool and warming it with one small sharded job, so that
    every worker has imported the program and loaded the backend.
    """
    from repro.harness.parallel import ShardedExecutor

    start = time.perf_counter()
    executor = ShardedExecutor(workers=WORKERS)
    try:
        executor.run("table3", seed=0)
    except BaseException:
        executor.close()
        raise
    return executor, time.perf_counter() - start


def run_grid(executor, seeds: dict, cache_dir: Path) -> tuple[float, dict]:
    """One repetition of the grid on a fresh cache.

    Returns the wall-clock and ``{cell: (seconds, digests)}``; the
    digests come from the job outcome, computed inside the job core.
    """
    from repro.harness.jobs import JobRunner, JobSpec
    from repro.harness.results import ResultCache

    runner = JobRunner(executor, ResultCache(cache_dir))
    cells = {}
    start = time.perf_counter()
    for eid, overrides in GRID:
        t0 = time.perf_counter()
        outcome = runner.run(JobSpec(eid, seed=seeds[eid], overrides=overrides))
        cells[eid] = (time.perf_counter() - t0, tuple(c.digest for c in outcome.cells))
    wall = time.perf_counter() - start
    shutil.rmtree(cache_dir, ignore_errors=True)
    return wall, cells


def cross_check(cells: dict, seeds: dict) -> bool:
    """A serial in-process run of one cell must match the sharded digest."""
    from repro.experiments import get_experiment
    from repro.harness.results import result_digest
    from repro.runtime import RunContext

    overrides = dict(GRID)[CROSS_CHECK]
    result = get_experiment(CROSS_CHECK).run(
        ctx=RunContext(seed=seeds[CROSS_CHECK]), **overrides
    )
    return cells[CROSS_CHECK][1] == (result_digest(result),)


class SweepRun:
    """Repetitions of the grid and the checks on them."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seeds = experiment_seeds(seed)
        self.work = work
        self.reps: list[tuple[float, dict]] = []
        self.attempted = 0
        self.failed = 0

    def reference(self) -> dict | None:
        """Cells of the first repetition that completed."""
        return next((cells for _, cells in self.reps if cells), None)

    def rep(self, executor) -> tuple[float, dict]:
        """One repetition; if it raises, every cell counts as failed."""
        cache_dir = self.work / f"cache-{len(self.reps)}"
        self.attempted += len(GRID)
        ref = self.reference()
        try:
            wall, cells = run_grid(executor, self.seeds, cache_dir)
        except Exception as exc:  # noqa: BLE001 - a failed cell is a reported failure
            print(f"grid repetition failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += len(GRID)
            wall, cells = float("nan"), {}
        if ref is not None and cells:
            bad = [eid for eid in cells if cells[eid][1] != ref[eid][1]]
            for eid in bad:
                print(f"digest of {eid} differs between repetitions", file=sys.stderr)
            self.failed += len(bad)
        self.reps.append((wall, cells))
        return wall, cells

    def check_against_serial(self) -> None:
        ref = self.reference()
        if ref is not None:
            self.attempted += 1
            if not cross_check(ref, self.seeds):
                print(f"{CROSS_CHECK}: sharded digest differs from serial", file=sys.stderr)
                self.failed += 1


def measure(seed: int, seconds: float, work: Path) -> dict:
    """Untraced run: set up :data:`N_SETUPS` times, then repeat the grid
    for at least ``seconds`` (and at least twice)."""
    setups, executor = [], None
    for _ in range(N_SETUPS):
        if executor is not None:
            executor.close()
        executor, took = set_up()
        setups.append(took)
    tracing.assert_unwrapped()
    run = SweepRun(seed, work)
    start = time.perf_counter()
    try:
        while len(run.reps) < 2 or time.perf_counter() - start < seconds:
            run.rep(executor)
        run.check_against_serial()
    finally:
        executor.close()
    tracing.assert_unwrapped()
    walls = [wall for wall, cells in run.reps if cells]
    lat = [t for _, cells in run.reps for t, _ in cells.values()]
    slowest = [max(t for t, _ in cells.values()) for _, cells in run.reps if cells]
    sweep_s = statistics.median(walls) if walls else float("nan")
    metrics = {
        "sweep_s": sweep_s,
        "p50_ms": statistics.median(lat) * 1e3 if lat else float("nan"),
        "p99_ms": statistics.median(slowest) * 1e3 if slowest else float("nan"),
        "slo_rps": len(GRID) / sweep_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": tracing.peak_rss_mb(),
    }
    return {"metrics": metrics, "attempted": run.attempted, "failed": run.failed,
            "detail": {"setup_s": setups, "rep_s": walls}}


def measure_traced(seed: int, work: Path) -> dict:
    """Traced run: one untraced repetition, one traced, one untraced.

    Returns the span aggregates of the traced repetition, its overhead
    against the mean of the two untraced ones, and the parallel-layer
    counters.
    """
    executor, _ = set_up()
    run = SweepRun(seed, work)
    tracer = tracing.Tracer()
    try:
        plain_a, _ = run.rep(executor)
        tracing.import_all()
        tracer.install(pool=True)
        try:
            traced, _ = run.rep(executor)
        finally:
            spans = tracer.snapshot()
            parallel = {
                "parallel.shards": tracer.shards,
                "parallel.ipc_bytes": tracer.ipc_bytes,
                "parallel.worker_peak_rss_mb": tracer.worker_peak_rss_mb,
            }
            tracer.uninstall()
        plain_b, _ = run.rep(executor)
        run.check_against_serial()
    finally:
        executor.close()
    tracing.assert_unwrapped()
    return {
        "spans": spans,
        "parallel": parallel,
        "overhead_frac": traced / ((plain_a + plain_b) / 2) - 1.0,
        "attempted": run.attempted,
        "failed": run.failed,
    }
