"""Tests for the transport-agnostic job core (:mod:`repro.harness.jobs`).

The contract under test is **zero drift** across transports: specs
canonicalise exactly like the cache-key inputs, ``plan_cells`` derives
byte-identical keys to direct ``cache_key`` calls, the
probe/dispatch/store lifecycle stores under those keys, and decomposed
experiments reassemble bit-exactly.  The service and the CLI
both ride this module, so these tests are the compatibility floor for
every transport.
"""

import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import get_experiment
from repro.harness import Cell, JobOutcome, JobRunner, JobSpec, ResultCache, cache_key
from repro.harness import fingerprint
from repro.harness.parallel import ShardedExecutor
from repro.runtime import RunContext


class TestJobSpecValidation:
    def test_minimal_spec_defaults(self):
        spec = JobSpec("table2")
        assert spec.scale == "default" and spec.seed == 0
        assert spec.devices is None and spec.overrides == {}

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
        # Worker count and backend belong to the process running the job,
        # so a body that sets them is told so, like a typo'd field.
        for name in ("overides", "workers", "backend"):
            with pytest.raises(ConfigurationError, match=name):
                JobSpec.from_dict({"experiment_id": "table2", name: {}})

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

    def test_wrongly_typed_overrides_and_devices_are_configuration_errors(self):
        # Passed through unchanged, so the mapping check names them — a
        # list of pairs is not silently coerced into a mapping.
        for bad in ("ab", 5, [["n_runs", 3]]):
            with pytest.raises(ConfigurationError, match="overrides"):
                JobSpec.from_dict({"experiment_id": "table2", "overrides": bad})
        for bad in (5, {"v100": 1}, ("v100",)):
            with pytest.raises(ConfigurationError, match="devices"):
                JobSpec.from_dict({"experiment_id": "figS1", "devices": bad})
        assert JobSpec.from_dict(
            {"experiment_id": "table2", "overrides": None}
        ).overrides == {}


class TestPlanCells:
    def test_unknown_experiment_fails_at_plan(self):
        runner = JobRunner(None, None)
        with pytest.raises(ExperimentError, match="nope"):
            runner.plan_overrides(JobSpec("nope"))

    def test_unknown_override_fails_at_plan(self):
        runner = JobRunner(None, None)
        with pytest.raises(ExperimentError, match="bogus"):
            runner.plan_overrides(JobSpec("table2", overrides={"bogus": 1}))
        with pytest.raises(ExperimentError, match="bogus"):
            runner.plan_cells(JobSpec("fig4", overrides={"bogus": 1}))

    @pytest.mark.parametrize("eid, overrides, fragment", [
        ("fig4", {"n_runs": "x"}, "'n_runs' must be of type int"),
        ("fig4", {"n_runs": True}, "'n_runs' must be of type int"),
        ("fig4", {"n_runs": 2.5}, "'n_runs' must be of type int"),
        ("fig4", {"ratios": 0.5}, "'ratios' must be a list of float"),
        ("fig4", {"ratios": ["a"]}, "'ratios' must be a list of float"),
        ("fig1", {"device": 3}, "'device' must be of type str"),
        ("table5", {"rich_grid": 1}, "'rich_grid' must be of type bool"),
        ("fig4", {"n_runs": -1}, "axis 'run' size must be >= 0"),
        ("seedens", {"n_runs": -2}, "must be >= 0"),
        # A None default is typed by the parameter's value at another scale.
        ("fig1", {"n_blocks": "x"}, "'n_blocks' must be of type int"),
    ])
    def test_bad_override_value_fails_at_plan(self, eid, overrides, fragment):
        runner = JobRunner(None, None)
        with pytest.raises(ConfigurationError, match=fragment):
            runner.plan_overrides(JobSpec(eid, overrides=overrides))
        with pytest.raises(ConfigurationError, match=fragment):
            runner.plan_cells(JobSpec(eid, overrides=overrides))

    @pytest.mark.parametrize("eid, overrides", [
        ("fig4", {"ratios": [0.5, 1], "n_runs": 0}),  # an int fits a float
        ("cgdiv", {"cond": 100, "tol": 1e-6}),
        ("fig1", {"n_blocks": 100}),  # typed by its paper-scale value
        ("table5", {"rich_grid": False}),
        ("seedens", {"seeds": [0, 1], "devices": ["v100", "lpu"],
                     "n_elements": 1000, "n_arrays": 2, "n_runs": 6}),
        ("fig1", {"n_blocks": None}),  # an explicit None stays accepted
    ])
    def test_well_typed_overrides_pass_planning(self, eid, overrides):
        planned = JobRunner(None, None).plan_overrides(
            JobSpec(eid, overrides=overrides)
        )
        assert planned == JobSpec(eid, overrides=overrides).overrides

    @pytest.mark.parametrize("scale, value, fragment", [
        ("paper", None, None),  # "derive it" is the default-scale value
        ("paper", 100, None),
        ("paper", "x", "'n_blocks' must be of type int"),
        ("default", 2.5, "'n_blocks' must be of type int"),
    ])
    def test_none_default_is_typed_at_either_scale(self, scale, value, fragment):
        """fig1's ``n_blocks`` is None at default scale and an int at
        paper scale: each scale admits the other's kind of value and
        nothing else."""
        spec = JobSpec("fig1", scale=scale, overrides={"n_blocks": value})
        runner = JobRunner(None, None)
        if fragment is None:
            assert runner.plan_overrides(spec) == {"n_blocks": value}
        else:
            with pytest.raises(ConfigurationError, match=fragment):
                runner.plan_overrides(spec)

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

    def test_plan_cells_keys_match_cli_cache_keys(self):
        # The compatibility pin: the job core must derive byte-identical
        # keys to a direct cache_key call on the same inputs, so caches
        # warmed before the refactor stay warm after it.
        runner = JobRunner(None, None)
        spec = JobSpec("fig4", seed=2, overrides={"n_runs": 3})
        assert runner.plan_cells(spec) == [
            Cell("fig4", "default", 2, {"n_runs": 3},
                 cache_key("fig4", "default", 2, {"n_runs": 3}))
        ]

    def test_plan_cells_touches_no_cache(self, tmp_path):
        # Planning is pure: the same cells before and after a store, and
        # nothing is written.
        cache = ResultCache(tmp_path)
        runner = JobRunner(None, cache)
        spec = JobSpec("table2")
        [cell] = runner.plan_cells(spec)
        assert not cache.contains(cell.key)
        assert not any(tmp_path.iterdir())
        cache.store(cell.key, get_experiment("table2").run(ctx=RunContext(seed=0)))
        assert runner.plan_cells(spec) == [cell]
        assert cache.contains(cell.key)

    def test_plan_cells_folds_devices_like_plan_overrides(self):
        runner = JobRunner(None, None)
        [cell] = runner.plan_cells(JobSpec("maxvs", devices=("V100",)))
        assert cell.overrides == {"device": "v100"}
        assert cell.cell_id == 'maxvs/default/seed0?{"device":"v100"}'
        spec = JobSpec("table2", devices=("v100",))
        with pytest.raises(ConfigurationError, match="device"):
            runner.plan_cells(spec)
        assert runner.plan_cells(spec, strict_devices=False) == [
            Cell("table2", "default", 0, {}, cache_key("table2", "default", 0))
        ]

    def test_plan_cells_decomposed_lists_every_cell(self):
        overrides = {"seeds": (0, 1), "devices": ("v100", "lpu"),
                     "n_elements": 1_000, "n_arrays": 2, "n_runs": 6}
        runner = JobRunner(None, None)
        cells = runner.plan_cells(JobSpec("seedens", overrides=overrides))
        expected = get_experiment("seedens").cache_cells("default", 0, overrides)
        assert [c.key for c in cells] == [
            cache_key("seedens", "default", 0, cell) for cell in expected
        ]
        assert len(cells) == 4


class TestLayering:
    def test_job_core_does_not_import_the_farm(self):
        # The farm is a thin client of the job core, never its dependency
        # (function-local imports count: the graph walks the whole AST).
        graph = fingerprint.import_graph()
        assert "repro.harness.farm" not in graph["repro.harness.jobs"]
        assert "repro.harness.farm" not in fingerprint.transitive_closure(
            "repro.harness.jobs", graph
        )


def count_digests(monkeypatch) -> list:
    """Record every ``result_digest`` call, through whichever ``repro``
    module imported the name."""
    from repro.harness import results

    calls = []
    original = results.result_digest

    def counted(result):
        calls.append(result.experiment_id)
        return original(result)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "result_digest", None) is original:
            monkeypatch.setattr(module, "result_digest", counted)
    return calls


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

    def test_each_cell_is_digested_once(self, tmp_path, monkeypatch):
        # A computed cell's one digest serves both its outcome and the
        # stored metadata; a hit digests what it read, once.
        runner = self._runner(tmp_path)
        calls = count_digests(monkeypatch)
        cold = runner.run(JobSpec("table2"))
        assert not cold.cached and cold.digest == cold.cells[0].digest
        assert len(calls) == 1
        assert runner.cache.read_meta(cold.cells[0].key)["digest"] == cold.digest
        warm = runner.run(JobSpec("table2"))
        assert warm.cached and warm.digest == cold.digest
        assert len(calls) == 2

    def test_a_hit_is_one_read(self, tmp_path, monkeypatch):
        runner = self._runner(tmp_path)
        spec = JobSpec("table2")
        runner.run(spec)
        calls = {"contains": 0, "read_meta": 0, "lookup": 0}
        for name in calls:
            original = getattr(ResultCache, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(ResultCache, name, counted)
        assert runner.run(spec).cached
        assert calls == {"contains": 0, "read_meta": 0, "lookup": 1}

    def test_corrupt_entry_warns_once_and_recomputes(self, tmp_path):
        import warnings

        runner = self._runner(tmp_path)
        spec = JobSpec("table2")
        cold = runner.run(spec)
        runner.cache.path_for(cold.cells[0].key).write_text("{not json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            again = runner.run(spec)
        corrupt = [w for w in caught if "corrupted result-cache" in str(w.message)]
        assert len(corrupt) == 1
        assert not again.cached and again.digest == cold.digest
        assert runner.run(spec).cached  # the recompute was stored

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
        [cell] = runner.plan_cells(JobSpec("fig4", overrides={"n_runs": 3}))
        runner.execute(cell)
        assert cell.key == cache_key("fig4", "default", 0, {"n_runs": 3})
        meta = cache.read_meta(cell.key)
        assert meta is not None
        assert meta["overrides"] == {"n_runs": 3}

    def test_partial_warm_decomposed_job(self, tmp_path):
        # Two of four seedens cells pre-warmed: the job recomputes only
        # the stale half and still reassembles bit-exactly.
        overrides = {"seeds": (0, 1), "devices": ("v100", "lpu"),
                     "n_elements": 1_000, "n_arrays": 2, "n_runs": 6}
        spec = JobSpec("seedens", overrides=overrides)
        exp = get_experiment("seedens")
        runner = self._runner(tmp_path)
        cells = runner.plan_cells(spec)
        for cell in cells[:2]:
            runner.execute(cell)
        out = runner.run(spec)
        assert not out.cached
        assert out.n_cells == 4 and out.n_hits == 2
        assert [c.hit for c in out.cells] == [True, True, False, False]
        assert [c.key for c in out.cells] == [c.key for c in cells]
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
