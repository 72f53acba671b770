"""Tests for the transport-agnostic job core (:mod:`repro.harness.jobs`).

The contract under test is **zero drift** with the pre-extraction CLI:
specs canonicalise exactly like the CLI's cache-key inputs, the
probe/dispatch/store lifecycle lands on byte-identical keys, and
decomposed experiments reassemble bit-exactly.  The service and the CLI
both ride this module, so these tests are the compatibility floor for
every transport.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import get_experiment
from repro.harness import JobOutcome, JobRunner, JobSpec, ResultCache, cache_key
from repro.harness import fingerprint
from repro.harness.parallel import ShardedExecutor
from repro.runtime import RunContext


class TestJobSpecValidation:
    def test_minimal_spec_defaults(self):
        spec = JobSpec("table2")
        assert spec.scale == "default" and spec.seed == 0
        assert spec.devices is None and spec.overrides == {}
        assert spec.backend is None and spec.workers is None

    def test_bad_experiment_id(self):
        for bad in ("", None, 3):
            with pytest.raises(ConfigurationError, match="experiment_id"):
                JobSpec(bad)

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError, match="scale"):
            JobSpec("table2", scale="huge")

    def test_bad_seed(self):
        for bad in (True, 1.5, "0"):
            with pytest.raises(ConfigurationError, match="seed"):
                JobSpec("table2", seed=bad)

    def test_negative_seed_rejected(self):
        # Rejected up front, not as a SeedSequence traceback mid-run.
        for bad in (-1, -(2**40)):
            with pytest.raises(ConfigurationError, match="seed must be >= 0"):
                JobSpec("table3", seed=bad)

    def test_devices_lowercased_and_tupled(self):
        spec = JobSpec("figS1", devices=("V100", "LPU"))
        assert spec.devices == ("v100", "lpu")

    def test_bad_devices(self):
        # A bare string would silently iterate into characters.
        with pytest.raises(ConfigurationError, match="devices"):
            JobSpec("figS1", devices="v100")
        with pytest.raises(ConfigurationError, match="devices"):
            JobSpec("figS1", devices=("v100", ""))

    def test_bad_workers_and_backend(self):
        with pytest.raises(ConfigurationError, match="workers"):
            JobSpec("table2", workers=0)
        with pytest.raises(ConfigurationError, match="workers"):
            JobSpec("table2", workers=True)
        with pytest.raises(ConfigurationError, match="backend"):
            JobSpec("table2", backend="cuda")

    def test_overrides_canonicalise_eagerly(self):
        # NumPy scalars and tuple spellings collapse at construction, so
        # two spellings of the same submission are *equal specs* — and a
        # non-serialisable override fails at submission, not mid-dispatch.
        a = JobSpec("fig4", overrides={"cond": np.float64(2.0),
                                       "n_runs": np.int32(3)})
        b = JobSpec("fig4", overrides={"cond": 2.0, "n_runs": 3})
        assert a == b
        assert a.overrides == {"cond": 2.0, "n_runs": 3}
        with pytest.raises(ConfigurationError, match="opts"):
            JobSpec("fig4", overrides={"opts": {"fn": lambda: None}})


class TestJobSpecFromDict:
    def test_round_trip(self):
        spec = JobSpec("seedens", scale="default", seed=3,
                       devices=("v100",), overrides={"n_runs": 6})
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ConfigurationError, match="overides"):
            JobSpec.from_dict({"experiment_id": "table2", "overides": {}})

    def test_missing_experiment_id(self):
        with pytest.raises(ConfigurationError, match="experiment_id"):
            JobSpec.from_dict({"seed": 1})
        with pytest.raises(ConfigurationError, match="JSON object"):
            JobSpec.from_dict(["table2"])

    def test_devices_comma_string_splits(self):
        # The service accepts the CLI's --devices spelling verbatim.
        spec = JobSpec.from_dict(
            {"experiment_id": "figS1", "devices": "V100, lpu"}
        )
        assert spec.devices == ("v100", "lpu")
        with pytest.raises(ConfigurationError, match="devices"):
            JobSpec.from_dict({"experiment_id": "figS1", "devices": " , "})


class TestPlanAndProbe:
    def test_unknown_experiment_fails_at_plan(self):
        runner = JobRunner(None, None)
        with pytest.raises(ExperimentError, match="nope"):
            runner.plan_overrides(JobSpec("nope"))

    def test_unknown_device_fails_at_plan(self):
        runner = JobRunner(None, None)
        with pytest.raises(ConfigurationError, match="warp9"):
            runner.plan_overrides(JobSpec("figS1", devices=("warp9",)))

    def test_devices_fold_into_overrides(self):
        runner = JobRunner(None, None)
        ov = runner.plan_overrides(JobSpec("figS1", devices=("v100", "lpu")))
        assert ov["devices"] == ("v100", "lpu")
        # Strict mode mirrors the CLI run path: a device list that does
        # not fit the experiment raises; run-all's lenient mode drops it.
        spec = JobSpec("table2", devices=("v100",))
        with pytest.raises(ConfigurationError, match="device"):
            runner.plan_overrides(spec)
        assert runner.plan_overrides(spec, strict_devices=False) == {}

    def test_probe_keys_match_cli_cache_keys(self, tmp_path):
        # The compatibility pin: the job core must derive byte-identical
        # keys to a direct cache_key call on the same inputs, so caches
        # warmed before the refactor stay warm after it.
        runner = JobRunner(None, ResultCache(tmp_path))
        spec = JobSpec("fig4", seed=2, overrides={"n_runs": 3})
        probed = runner.probe(spec)
        assert probed == [
            (cache_key("fig4", "default", 2, {"n_runs": 3}), False)
        ]

    def test_probe_is_metadata_only_and_flips_on_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = JobRunner(None, cache)
        spec = JobSpec("table2")
        [(key, hit)] = runner.probe(spec)
        assert not hit
        cache.store(key, get_experiment("table2").run(ctx=RunContext(seed=0)))
        assert runner.probe(spec) == [(key, True)]

    def test_probe_without_cache_is_all_misses(self):
        runner = JobRunner(None, None)
        assert runner.probe(JobSpec("table2")) == [
            (cache_key("table2", "default", 0), False)
        ]

    def test_probe_decomposed_lists_every_cell(self):
        overrides = {"seeds": (0, 1), "devices": ("v100", "lpu"),
                     "n_elements": 1_000, "n_arrays": 2, "n_runs": 6}
        runner = JobRunner(None, None)
        probed = runner.probe(JobSpec("seedens", overrides=overrides))
        cells = get_experiment("seedens").cache_cells("default", 0, overrides)
        assert [k for k, _ in probed] == [
            cache_key("seedens", "default", 0, cell) for cell in cells
        ]
        assert len(probed) == 4


class TestLayering:
    def test_job_core_does_not_import_the_farm(self):
        # The farm is a thin client of the job core, never its dependency
        # (function-local imports count: the graph walks the whole AST).
        graph = fingerprint.import_graph()
        assert "repro.harness.farm" not in graph["repro.harness.jobs"]
        assert "repro.harness.farm" not in fingerprint.transitive_closure(
            "repro.harness.jobs", graph
        )


class TestJobRunnerLifecycle:
    def _runner(self, tmp_path):
        return JobRunner(ShardedExecutor(workers=1), ResultCache(tmp_path))

    def test_cold_then_warm_monolithic(self, tmp_path):
        runner = self._runner(tmp_path)
        spec = JobSpec("table2")
        cold = runner.run(spec)
        assert isinstance(cold, JobOutcome)
        assert not cold.cached and cold.n_cells == 1 and cold.n_hits == 0
        assert not cold.cells[0].hit
        warm = runner.run(spec)
        assert warm.cached and warm.n_hits == warm.n_cells == 1
        assert warm.result.rows == cold.result.rows
        assert warm.digest == cold.digest
        assert warm.cells[0].key == cold.cells[0].key

    def test_result_matches_direct_execution(self, tmp_path):
        runner = self._runner(tmp_path)
        out = runner.run(JobSpec("fig4", seed=1, overrides={"n_runs": 3}))
        direct = get_experiment("fig4").run(ctx=RunContext(seed=1), n_runs=3)
        assert out.result.rows == direct.rows
        assert out.result.extra == direct.extra

    def test_no_cache_runner_always_recomputes(self, tmp_path):
        runner = JobRunner(ShardedExecutor(workers=1), None)
        spec = JobSpec("table2")
        assert not runner.run(spec).cached
        again = runner.run(spec)
        assert not again.cached and again.n_hits == 0

    def test_execute_stores_cell_overrides_in_metadata(self, tmp_path):
        # The farm's previous-generation scan matches entries on their
        # recorded overrides; the job core's store path must record them.
        cache = ResultCache(tmp_path)
        runner = JobRunner(ShardedExecutor(workers=1), cache)
        runner.execute("fig4", "default", 0, {"n_runs": 3})
        key = cache_key("fig4", "default", 0, {"n_runs": 3})
        meta = cache.read_meta(key)
        assert meta is not None
        assert meta["overrides"] == {"n_runs": 3}

    def test_partial_warm_decomposed_job(self, tmp_path):
        # Two of four seedens cells pre-warmed: the job recomputes only
        # the stale half and still reassembles bit-exactly.
        overrides = {"seeds": (0, 1), "devices": ("v100", "lpu"),
                     "n_elements": 1_000, "n_arrays": 2, "n_runs": 6}
        spec = JobSpec("seedens", overrides=overrides)
        exp = get_experiment("seedens")
        cells = exp.cache_cells("default", 0, overrides)
        runner = self._runner(tmp_path)
        for cell in cells[:2]:
            runner.execute("seedens", "default", 0, cell)
        out = runner.run(spec)
        assert not out.cached
        assert out.n_cells == 4 and out.n_hits == 2
        assert [c.hit for c in out.cells] == [True, True, False, False]
        mono = exp.run(scale="default", **overrides)
        assert out.result.rows == mono.rows
        assert out.result.extra == mono.extra


class TestJobOutcomeShape:
    def test_status_line_states(self, tmp_path):
        runner = JobRunner(ShardedExecutor(workers=1), ResultCache(tmp_path))
        cold = runner.run(JobSpec("table2"))
        assert cold.status_line().startswith("table2: computed in ")
        warm = runner.run(JobSpec("table2"))
        assert warm.status_line().startswith("table2: cached in ")

    def test_status_line_partial(self):
        # Partial-hit jobs name the recomputed fraction.
        out = JobRunner(None, None)  # noqa: F841 - structure-only test
        spec = JobSpec("seedens")
        from repro.harness.jobs import CellOutcome

        cells = [
            CellOutcome(key="a" * 64, overrides={}, hit=True, digest="d",
                        elapsed_s=0.1),
            CellOutcome(key="b" * 64, overrides={}, hit=False, digest="d",
                        elapsed_s=0.2),
        ]
        outcome = JobOutcome(spec=spec, result=None, cells=cells,
                             cached=False, elapsed_s=1.0)
        assert "computed 1/2 cells" in outcome.status_line()

    def test_as_dict_is_json_shaped(self, tmp_path):
        import json

        runner = JobRunner(ShardedExecutor(workers=1), ResultCache(tmp_path))
        out = runner.run(JobSpec("table2"))
        doc = out.as_dict(include_result=False)
        json.dumps(doc)  # must serialise as-is
        assert doc["n_cells"] == 1 and doc["n_hits"] == 0
        assert doc["cached"] is False
        assert doc["spec"]["experiment_id"] == "table2"
        assert "result" not in doc
        full = out.as_dict()
        assert full["result"]["rows"] == out.result.as_dict()["rows"]
