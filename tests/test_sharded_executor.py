"""Sharded-executor suite: bit-exact shard merging, protocol units, pool.

Three layers:

* **Property tests** — for every shardable experiment, sharded execution
  (1 / 2 / uneven / prime shard splits, evaluated in-process through the
  exact shard/merge/finalize path the executor drives) reproduces the
  serial ``rows``/``extra``/``notes`` bit for bit, at dev scale and at a
  tiny forced scale.
* **Merge-protocol units** — RunConcat/RunList/DigestSet/
  Invariant semantics, nested payload merging, shard planning.
* **Process tests** — a real spawn pool (workers=2) reproduces the serial
  results and the golden pins of ``test_golden_experiments``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import get_experiment
from repro.experiments.sharding import (
    DigestSet,
    Invariant,
    RunConcat,
    RunList,
    merge_payloads,
    plan_shards,
    run_digest,
)
from repro.harness import parallel
from repro.harness.parallel import ShardedExecutor, default_workers
from repro.harness.results import result_digest
from repro.runtime import RunContext

from test_golden_experiments import GOLDEN_SHA256, _OVERRIDES as GOLDEN_OVERRIDES


def _digest(rows, extra) -> str:
    doc = {"rows": rows, "extra": extra}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _serial(eid: str, overrides: dict, seed: int = 0):
    return get_experiment(eid).run(ctx=RunContext(seed=seed), **overrides)


def _sharded(eid: str, overrides: dict, splits, seed: int = 0):
    """Drive the executor's shard/merge/finalize path in-process."""
    exp = get_experiment(eid)
    params = exp.resolve_params("default", overrides)
    parts = [
        exp.shard_run(RunContext(seed=seed), dict(params), lo, hi)
        for lo, hi in splits
    ]
    payload = exp.merge_shards(params, parts)
    return exp.finalize(RunContext(seed=seed), params, payload)


#: (experiment id, dev-scale overrides, tiny forced-scale overrides).
#: Both override sets keep the property sweep fast while still spanning
#: every shardable code path (sweep cells, CG lockstep, OpenMP trials,
#: GNN population, PDF arrays).
SHARDABLE_CASES = [
    ("fig1", {"n_runs": 9}, {"n_elements": 2_000, "n_arrays": 2, "n_runs": 9, "bins": 5}),
    ("fig2", {"n_runs": 9, "n_arrays": 2}, {
        "n_elements": 1_920, "spa_n_elements": 2_560, "n_arrays": 2,
        "n_runs": 9, "bins": 5,
    }),
    ("figS1", {"n_runs": 9}, {
        "devices": ("v100", "mi300a", "lpu"), "n_elements": 2_000,
        "n_arrays": 2, "n_runs": 9, "bins": 5,
    }),
    ("maxvs", {"n_runs": 9}, {"sizes": (1_000, 2_000), "n_arrays": 2, "n_runs": 9}),
    ("table8", {"check_runs": 9}, {"check_nodes": 48, "check_runs": 9}),
    ("fig3", {"n_runs": 9}, {"sr_dims": (1_000,), "ia_dims": (10,), "ratios": (0.5, 1.0), "n_runs": 9}),
    ("fig4", {"n_runs": 9}, {"ratios": (0.2, 1.0), "sr_dim": 500, "ia_dim": 20, "n_runs": 9}),
    ("fig5", {"n_runs": 9}, {"ratios": (0.2, 1.0), "sr_dim": 500, "ia_dim": 20, "n_runs": 9}),
    ("warpsweep", {"n_runs": 9}, {"n_elements": 256, "n_arrays": 2, "n_runs": 9}),
    ("collsweep", {"n_runs": 9}, {
        "devices": ("v100", "gh200", "cpu"), "n_elements": 512, "n_runs": 9,
    }),
    ("seedens", {"seeds": tuple(range(9)), "n_elements": 4_000, "n_arrays": 2, "n_runs": 24}, {
        "seeds": tuple(range(9)), "devices": ("v100", "lpu"),
        "n_elements": 500, "n_arrays": 2, "n_runs": 5,
    }),
    ("table3", {"n_trials": 9}, {"n_elements": 1_000, "n_trials": 9, "num_threads": 8}),
    ("table5", {"n_runs": 9}, {"n_runs": 9}),
    ("cgdiv", {"n_runs": 9}, {"n": 50, "cond": 1e3, "n_runs": 9, "n_iter": 8}),
    ("table7", {"n_models": 9, "epochs": 2}, {
        "num_nodes": 60, "num_edges": 120, "num_features": 12,
        "num_classes": 4, "hidden": 4, "epochs": 2, "n_models": 9,
    }),
]

#: Shard splits of a 9-run axis: single, halves, uneven, prime count,
#: and fully scattered (one run per shard).
SPLITS_9 = {
    "single": [(0, 9)],
    "halves": plan_shards(9, 2),
    "uneven": [(0, 1), (1, 6), (6, 9)],
    "prime": plan_shards(9, 3),
    "scattered": plan_shards(9, 9),
}


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("eid,dev,tiny", SHARDABLE_CASES, ids=[c[0] for c in SHARDABLE_CASES])
    @pytest.mark.parametrize("split", sorted(SPLITS_9))
    def test_dev_scale(self, eid, dev, tiny, split):
        serial = _serial(eid, dev)
        rows, notes, extra = _sharded(eid, dev, SPLITS_9[split])
        assert _digest(rows, extra) == _digest(serial.rows, serial.extra)
        assert notes == serial.notes

    @pytest.mark.parametrize("eid,dev,tiny", SHARDABLE_CASES, ids=[c[0] for c in SHARDABLE_CASES])
    def test_tiny_forced_scale(self, eid, dev, tiny):
        serial = _serial(eid, tiny)
        for split in ("halves", "prime"):
            rows, notes, extra = _sharded(eid, tiny, SPLITS_9[split])
            assert _digest(rows, extra) == _digest(serial.rows, serial.extra)

    @pytest.mark.parametrize("eid,dev,tiny", SHARDABLE_CASES, ids=[c[0] for c in SHARDABLE_CASES])
    def test_nonzero_seed(self, eid, dev, tiny):
        serial = _serial(eid, tiny, seed=1234)
        rows, notes, extra = _sharded(eid, tiny, SPLITS_9["halves"], seed=1234)
        assert _digest(rows, extra) == _digest(serial.rows, serial.extra)


class TestPlanShards:
    def test_even_split(self):
        assert plan_shards(8, 2) == [(0, 4), (4, 8)]

    def test_uneven_puts_larger_windows_first(self):
        assert plan_shards(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_shards_than_runs_clamps(self):
        assert plan_shards(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_min_per_shard_reduces_shard_count(self):
        assert plan_shards(10, 4, min_per_shard=4) == [(0, 5), (5, 10)]
        assert plan_shards(3, 4, min_per_shard=4) == [(0, 3)]

    def test_windows_tile_the_axis(self):
        for total in (1, 2, 5, 7, 16, 97):
            for n in (1, 2, 3, 5, 8):
                windows = plan_shards(total, n)
                assert windows[0][0] == 0 and windows[-1][1] == total
                for (a, b), (c, d) in zip(windows, windows[1:]):
                    assert b == c and a < b and c < d

    def test_zero_total(self):
        assert plan_shards(0, 3) == [(0, 0)]

    def test_validation(self):
        with pytest.raises(ExperimentError):
            plan_shards(-1, 2)
        with pytest.raises(ExperimentError):
            plan_shards(4, 0)


class TestMergeProtocol:
    def test_run_concat_axis0_and_axis1(self):
        a = RunConcat(np.arange(6.0).reshape(2, 3), axis=1)
        b = RunConcat(np.arange(4.0).reshape(2, 2), axis=1)
        merged = merge_payloads([{"m": a}, {"m": b}])["m"]
        assert merged.shape == (2, 5)
        np.testing.assert_array_equal(merged[:, :3], np.arange(6.0).reshape(2, 3))
        c = merge_payloads([{"v": RunConcat(np.array([1, 2]))}, {"v": RunConcat(np.array([3]))}])
        np.testing.assert_array_equal(c["v"], [1, 2, 3])

    def test_run_concat_axis_mismatch_raises(self):
        with pytest.raises(ExperimentError):
            merge_payloads([
                {"m": RunConcat(np.zeros(2), axis=0)},
                {"m": RunConcat(np.zeros(2), axis=1)},
            ])

    def test_run_list(self):
        out = merge_payloads([{"l": RunList([1, 2])}, {"l": RunList([3])}])
        assert out["l"] == [1, 2, 3]

    def test_digest_set_union(self):
        out = merge_payloads([
            {"d": DigestSet({"a", "b"})},
            {"d": DigestSet({"b", "c"})},
        ])
        assert out["d"] == {"a", "b", "c"}

    def test_invariant_keeps_equal_values(self):
        arr = np.arange(4.0)
        out = merge_payloads([{"i": Invariant(arr)}, {"i": Invariant(arr.copy())}])
        np.testing.assert_array_equal(out["i"], arr)

    def test_invariant_mismatch_raises(self):
        with pytest.raises(ExperimentError):
            merge_payloads([{"i": Invariant(1.0)}, {"i": Invariant(2.0)}])
        # Same values, different bits (-0.0 vs +0.0) must also fail:
        with pytest.raises(ExperimentError):
            merge_payloads([
                {"i": Invariant(np.array([0.0]))},
                {"i": Invariant(np.array([-0.0]))},
            ])

    def test_nested_structures_merge_elementwise(self):
        out = merge_payloads([
            {"cells": [{"v": RunConcat(np.array([1.0]))}, {"v": RunConcat(np.array([2.0]))}]},
            {"cells": [{"v": RunConcat(np.array([3.0]))}, {"v": RunConcat(np.array([4.0]))}]},
        ])
        np.testing.assert_array_equal(out["cells"][0]["v"], [1.0, 3.0])
        np.testing.assert_array_equal(out["cells"][1]["v"], [2.0, 4.0])

    def test_mismatched_kinds_and_keys_raise(self):
        with pytest.raises(ExperimentError):
            merge_payloads([{"x": RunList([1])}, {"x": RunConcat(np.array([1]))}])
        with pytest.raises(ExperimentError):
            merge_payloads([{"x": RunList([1])}, {"y": RunList([1])}])
        with pytest.raises(ExperimentError):
            merge_payloads([{"x": [RunList([1])]}, {"x": [RunList([1]), RunList([2])]}])

    def test_untagged_leaves_rejected(self):
        with pytest.raises(ExperimentError):
            merge_payloads([{"x": 1.0}, {"x": 2.0}])
        with pytest.raises(ExperimentError):
            merge_payloads([{"x": 1.0}])

    def test_empty_parts_rejected(self):
        with pytest.raises(ExperimentError):
            merge_payloads([])

    def test_run_digest_distinguishes_bits_not_values(self):
        assert run_digest(np.array([0.0])) != run_digest(np.array([-0.0]))
        assert run_digest(np.array([1.0])) != run_digest(np.array([1.0], dtype=np.float32))
        assert run_digest(np.arange(4)) == run_digest(np.arange(4))
        # Shape is part of the identity even when the bytes agree.
        assert run_digest(np.zeros((2, 3))) != run_digest(np.zeros(6))


class TestExecutorDispatch:
    def test_non_shardable_experiment_falls_back_to_serial(self):
        with ShardedExecutor(workers=3) as ex:
            res = ex.run("table2", seed=0)
        assert res.meta["workers"] == 1 and res.meta["shards"] == 1

    def test_workers_one_is_serial(self):
        with ShardedExecutor(workers=1) as ex:
            res = ex.run("fig4", seed=0, n_runs=4)
        assert res.meta["shards"] == 1

    def test_plan_respects_min_per_shard(self):
        exp = get_experiment("fig4")
        with ShardedExecutor(workers=8) as ex:
            params = exp.resolve_params("default", {"n_runs": 3})
            assert ex.plan(exp, params) == [(0, 1), (1, 2), (2, 3)]
            params = exp.resolve_params("default", {"n_runs": 1})
            assert ex.plan(exp, params) is None

    def test_env_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert default_workers() == 5
        assert ShardedExecutor().workers == 5
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert default_workers() == 1

    def test_env_malformed_workers_rejected(self, monkeypatch):
        # A typo'd REPRO_WORKERS must fail loudly by name, not silently
        # degrade to serial execution.
        for bad in ("junk", "2.5", "0", "-3"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
                default_workers()
            with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
                ShardedExecutor()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ExperimentError):
            ShardedExecutor(workers=0)


def _cpu_share(workers: int) -> int:
    """Each pool worker's BLAS/OpenMP thread budget on this host."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count()
    return max(1, cpus // workers)


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestCpuBudget:
    """Spawn workers start with their share of the CPUs as their BLAS/
    OpenMP thread count, through the environment they inherit; the
    parent's environment is left exactly as it was."""

    @pytest.fixture(autouse=True)
    def _unset_thread_vars(self, monkeypatch):
        for name in _THREAD_VARS:
            monkeypatch.delenv(name, raising=False)

    @staticmethod
    def _worker_env(workers: int) -> dict:
        """The thread variables a fresh pool's worker started with; the
        pool start must leave the parent's environment as it was."""
        before = dict(os.environ)
        with ShardedExecutor(workers=workers) as ex:
            pool = ex._get_pool()
            after = dict(os.environ)
            seen = {
                name: pool.apply_async(os.getenv, (name,)).get(timeout=60)
                for name in _THREAD_VARS
            }
        assert after == before
        return seen

    def test_worker_gets_its_share_of_the_cpus(self):
        share = str(_cpu_share(2))
        seen = self._worker_env(2)
        assert seen["OPENBLAS_NUM_THREADS"] == share
        assert seen["OMP_NUM_THREADS"] == share
        assert seen["MKL_NUM_THREADS"] == share

    def test_user_setting_passes_through(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        seen = self._worker_env(2)
        assert seen["OPENBLAS_NUM_THREADS"] == "3"
        assert seen["OMP_NUM_THREADS"] == str(_cpu_share(2))

    def test_more_workers_than_cpus_get_one_thread_each(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        seen = self._worker_env(2)
        assert set(seen.values()) == {"1"}

    def test_environment_restored_when_the_pool_start_raises(self, monkeypatch):
        seen = {}

        def failing_pool(*args, **kwargs):
            seen.update({name: os.environ.get(name) for name in _THREAD_VARS})
            raise OSError("cannot start workers")

        monkeypatch.setattr(
            multiprocessing.get_context(parallel._START_METHOD), "Pool", failing_pool
        )
        before = dict(os.environ)
        ex = ShardedExecutor(workers=2)
        with pytest.raises(OSError, match="cannot start workers"):
            ex._get_pool()
        assert dict(os.environ) == before
        assert seen == dict.fromkeys(_THREAD_VARS, str(_cpu_share(2)))
        assert ex._pool is None and ex.pools_created == 0


@pytest.fixture(scope="module")
def pool2():
    """One spawn pool shared by every real-process test in this module."""
    with ShardedExecutor(workers=2) as ex:
        yield ex


class TestProcessPool:
    def test_sharded_result_matches_serial(self, pool2):
        overrides = {"n_runs": 6}
        serial = _serial("fig4", overrides)
        res = pool2.run("fig4", seed=0, **overrides)
        assert res.meta == {
            "workers": 2, "shards": 2, "worker_threads": _cpu_share(2),
        }
        assert _digest(res.rows, res.extra) == _digest(serial.rows, serial.extra)
        # Provenance never enters the digest space.
        assert res.meta != serial.meta
        assert result_digest(res) == result_digest(serial)
        assert res.notes == serial.notes
        assert res.seed == 0

    def test_pool_is_reused_across_experiments(self, pool2):
        pool2.run("table3", seed=0)
        pool = pool2._pool
        pool2.run("table3", seed=1)
        assert pool2._pool is pool

    @pytest.mark.parametrize("experiment_id", sorted(GOLDEN_SHA256))
    def test_golden_pins_reproduce_under_workers(self, pool2, experiment_id):
        """The CI sharded-equivalence smoke: every golden-pinned experiment
        hashes identically under a real 2-worker pool."""
        res = pool2.run(experiment_id, scale="default", seed=0,
                        **GOLDEN_OVERRIDES[experiment_id])
        assert _digest(res.rows, res.extra) == GOLDEN_SHA256[experiment_id], (
            f"{experiment_id} drifted from its golden pin under sharded "
            "execution — shard merging is no longer bit-exact"
        )


class TestReusedContextContinuesLadder:
    """Running an experiment twice on ONE context must keep advancing the
    scheduler ladder (fresh ND draws), exactly like the pre-sharding
    experiments: shard anchoring is relative to the context's position on
    entry, never absolute."""

    CASES = [
        ("table3", {"n_elements": 1_000, "n_trials": 5, "num_threads": 8}),
        ("fig4", {"ratios": (1.0,), "sr_dim": 500, "ia_dim": 20, "n_runs": 5}),
        ("cgdiv", {"n": 50, "cond": 1e3, "n_runs": 3, "n_iter": 8}),
        ("fig1", {"n_elements": 2_000, "n_arrays": 2, "n_runs": 9, "bins": 5}),
        ("fig2", {"n_elements": 1_920, "spa_n_elements": 2_560, "n_arrays": 2,
                  "n_runs": 9, "bins": 5}),
        ("maxvs", {"sizes": (1_000, 2_000), "n_arrays": 2, "n_runs": 9}),
        ("warpsweep", {"n_elements": 256, "n_arrays": 2, "n_runs": 9}),
        ("table5", {"n_runs": 4}),
        ("table8", {"check_nodes": 48, "check_runs": 9}),
    ]

    @pytest.mark.parametrize("eid,ov", CASES, ids=[c[0] for c in CASES])
    def test_second_run_draws_fresh_streams(self, eid, ov):
        ctx = RunContext(seed=0)
        exp = get_experiment(eid)
        first = exp.run(ctx=ctx, **ov)
        second = exp.run(ctx=ctx, **ov)
        assert _digest(first.rows, first.extra) != _digest(second.rows, second.extra)
        # And a fresh context replays the first run exactly.
        replay = exp.run(ctx=RunContext(seed=0), **ov)
        assert _digest(first.rows, first.extra) == _digest(replay.rows, replay.extra)

    def test_offset_context_is_not_rewound(self):
        # A context declaring run_offset=k must draw from k onward even
        # through a shard-structured experiment.
        exp = get_experiment("table3")
        ov = {"n_elements": 1_000, "n_trials": 5, "num_threads": 8}
        plain = exp.run(ctx=RunContext(seed=0), **ov)
        offset = exp.run(ctx=RunContext(seed=0, run_offset=5), **ov)
        assert plain.rows != offset.rows
        # ... and offset k equals a plain context wound forward k runs.
        wound = RunContext(seed=0)
        wound.seek_runs(5)
        assert exp.run(ctx=wound, **ov).rows == offset.rows


class TestExecutorLongevity:
    """A daemon holds ONE executor for its whole lifetime.  Sequential
    job submissions must reuse the spawn pool — not churn worker
    processes, not leak file descriptors."""

    @staticmethod
    def _open_fds():
        import os

        try:
            return len(os.listdir("/proc/self/fd"))
        except OSError:  # pragma: no cover - non-Linux
            return None

    def test_sequential_job_submissions_reuse_the_pool(self, pool2, tmp_path):
        from repro.harness.jobs import JobRunner, JobSpec
        from repro.harness.results import ResultCache

        runner = JobRunner(pool2, ResultCache(tmp_path))
        spec = lambda seed: JobSpec("fig4", seed=seed,
                                    overrides={"n_runs": 4})  # noqa: E731
        # Warm-up dispatch: creates the pool if no earlier test in the
        # module has, and opens its (fixed) pipe descriptors.
        runner.run(spec(100))
        pool = pool2._pool
        pools_before = pool2.pools_created
        dispatches_before = pool2.dispatches
        fds_before = self._open_fds()
        expected_dispatches = 0
        for seed in range(101, 109):
            out = runner.run(spec(seed))
            assert not out.cached
            expected_dispatches += out.n_cells - out.n_hits
        # A replayed job is all cache hits: zero new dispatches.
        replay = runner.run(spec(101))
        assert replay.cached and replay.n_hits == replay.n_cells
        assert pool2._pool is pool, "spawn pool churned across submissions"
        assert pool2.pools_created == pools_before
        assert pool2.dispatches == dispatches_before + expected_dispatches
        fds_after = self._open_fds()
        if fds_before is not None:
            assert fds_after <= fds_before, (
                f"fd count grew {fds_before} -> {fds_after} across "
                "sequential job submissions"
            )


#: Bound on a refused sharded job: a pool spawn plus one import of the
#: library per worker (a few seconds on a 2-CPU container), never a hang.
_GUARD_BOUND_S = 60.0


class TestPoolTreeGuard:
    """Workers pin their own tree digest and report it with each shard;
    the parent refuses shards of any tree but the one it keyed under."""

    def test_initializer_never_raises(self, monkeypatch):
        from repro import backend
        from repro.harness import fingerprint, parallel

        def unreadable(*args, **kwargs):
            raise OSError("package tree vanished")

        monkeypatch.setattr(parallel, "_WORKER_TREE", None)
        monkeypatch.setattr(fingerprint, "snapshot", unreadable)
        before = backend.backend_mode()
        try:
            parallel._worker_initializer("numpy")  # must not raise
        finally:
            backend.set_backend(before)
        assert parallel._WORKER_TREE.startswith("unreadable (OSError")

    def test_foreign_tree_skips_the_work(self, monkeypatch):
        from repro.harness import parallel

        monkeypatch.setattr(parallel, "_WORKER_TREE", "a" * 64)
        monkeypatch.setattr(parallel, "get_experiment", None)  # not reached
        task = ("fig4", "default", 0, {"n_runs": 4}, 0, 2, "b" * 64)
        assert parallel._shard_task(task) == ("a" * 64, None)

    def test_worker_on_an_edited_tree_fails_fast_and_stores_nothing(
        self, tmp_path, monkeypatch
    ):
        import shutil
        import threading
        import time
        from pathlib import Path

        import repro
        from repro.harness import fingerprint
        from repro.harness.jobs import JobRunner, JobSpec
        from repro.harness.parallel import CodeMismatchError
        from repro.harness.results import ResultCache

        copy = tmp_path / "src" / "repro"
        shutil.copytree(
            Path(repro.__file__).resolve().parent, copy,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        monkeypatch.setattr(fingerprint, "package_root", lambda: (copy, "repro"))
        # Spawn workers take the parent's sys.path, so they import the copy.
        monkeypatch.syspath_prepend(str(copy.parent))
        cache = ResultCache(tmp_path / "cache")
        spec = JobSpec("fig4", overrides={"n_runs": 6})
        fingerprint.repin()  # the parent pins the unedited copy
        target = copy / "experiments" / "ratio_sweep.py"
        target.write_text(target.read_text() + "\n# edited after the pin\n")

        outcome: dict = {}
        with ShardedExecutor(workers=2) as ex:
            def job():
                try:
                    outcome["job"] = JobRunner(ex, cache).run(spec)
                except Exception as exc:  # noqa: BLE001 - asserted below
                    outcome["error"] = exc

            start = time.monotonic()
            thread = threading.Thread(target=job, daemon=True)
            thread.start()
            thread.join(_GUARD_BOUND_S)
            elapsed = time.monotonic() - start
            assert not thread.is_alive(), f"guard hung for {elapsed:.0f}s"
            assert ex._pool is None  # the mismatched pool was shut down
        assert isinstance(outcome.get("error"), CodeMismatchError), outcome
        assert "restart" in str(outcome["error"])
        assert not list(cache.directory.glob("*.json"))  # nothing stored
