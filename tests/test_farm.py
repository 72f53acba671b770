"""Tests for the incremental sweep farm (:mod:`repro.harness.farm`).

Covers grid expansion (device crossing, cache-cell decomposition, key
identity with the CLI ``run`` path through the job core's
``plan_cells``, JobSpec validation of every grid point, the pinned
``cell_id`` spelling), cache-first execution (cold grid
recomputes everything, warm grid dispatches nothing), digest drift against
previous-generation entries and golden pins, module-granular invalidation
(a single-module edit recomputes only its dependents), and the ``farm``
CLI subcommand including its machine-readable report.
"""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import get_experiment
from repro.harness import (
    JobRunner,
    JobSpec,
    ResultCache,
    SweepFarm,
    cache_key,
    plan_grid,
    result_digest,
)
from repro.harness import fingerprint
from repro.harness.cli import main
from repro.harness.farm import load_pins
from repro.runtime import RunContext

from test_golden_experiments import GOLDEN_SHA256, _OVERRIDES
from test_jobs import count_digests


class FakeExecutor:
    """Serial stand-in for :class:`ShardedExecutor` — counts dispatches."""

    def __init__(self):
        self.calls: list[tuple] = []

    def run(self, experiment_id, *, scale="default", seed=0, **overrides):
        self.calls.append((experiment_id, scale, seed))
        return get_experiment(experiment_id).run(
            scale=scale, ctx=RunContext(seed=seed), **overrides
        )


class ExplodingExecutor:
    """Any dispatch is a test failure: the grid was supposed to be warm."""

    def run(self, *args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("farm dispatched work on a warm grid")


def _dummy_result(cell):
    from repro.experiments.base import ExperimentResult

    return ExperimentResult(
        experiment_id=cell.experiment_id,
        title="dummy",
        scale=cell.scale,
        params={},
        rows=[{"v": 1}],
        seed=cell.seed,
    )


class TestPlanGrid:
    def test_keys_match_the_cli_run_path(self):
        cells = plan_grid(["table2", "fig4"], seeds=(0, 1))
        assert len(cells) == 4
        for cell in cells:
            assert cell.key == cache_key(
                cell.experiment_id, cell.scale, cell.seed, cell.overrides
            )

    def test_unknown_experiment_fails_fast(self):
        with pytest.raises(ExperimentError, match="nosuch"):
            plan_grid(["nosuch"])

    def test_device_axis_expands_per_device(self):
        cells = plan_grid(["figS1", "table2"], devices=("v100", "lpu"))
        figs = [c for c in cells if c.experiment_id == "figS1"]
        t2 = [c for c in cells if c.experiment_id == "table2"]
        assert [c.overrides for c in figs] == [
            {"devices": ("v100",)}, {"devices": ("lpu",)},
        ]
        # No device parameter: one device-free cell, not one per device.
        assert len(t2) == 1 and t2[0].overrides == {}

    def test_decomposing_experiment_expands_cache_cells(self):
        ov = _OVERRIDES["seedens"]
        cells = plan_grid(["seedens"], overrides={"seedens": ov})
        expected = get_experiment("seedens").cache_cells("default", 0, dict(ov))
        assert [c.overrides for c in cells] == expected

    def test_default_grid_covers_every_experiment(self):
        from repro.experiments import list_experiments

        cells = plan_grid()
        assert {c.experiment_id for c in cells} == set(list_experiments())

    def test_cell_id_is_stable_and_readable(self):
        cell = plan_grid(["fig4"], overrides={"fig4": {"n_runs": 3}})[0]
        assert cell.cell_id == 'fig4/default/seed0?{"n_runs":3}'

    def test_cell_id_format_is_pinned(self):
        # Pin files key on cell_id, so its spelling is user-facing: these
        # literals must not move under any refactor of the planner.
        cells = plan_grid(["table2", "maxvs", "figS1"], devices=("v100",))
        assert [c.cell_id for c in cells] == [
            "table2/default/seed0",
            'maxvs/default/seed0?{"device":"v100"}',
            'figS1/default/seed0?{"devices":["v100"]}',
        ]
        ens = plan_grid(["seedens"], devices=("v100",),
                        overrides={"seedens": _OVERRIDES["seedens"]})
        assert ens[1].cell_id == (
            'seedens/default/seed0?{"devices":["v100"],"n_arrays":2,'
            '"n_elements":2000,"n_runs":12,"seeds":[1]}'
        )

    def test_plan_grid_is_the_job_core_plan_of_every_point(self):
        # The farm owns no planning of its own: its grid is exactly the
        # key-deduplicated concatenation of plan_cells over one JobSpec
        # per (experiment, seed, device name) point, registry-wide.
        from repro.experiments import list_experiments

        seeds, devices = (0, 3), ("v100", "lpu")
        runner = JobRunner(None, None)
        expected, seen = [], set()
        for eid in list_experiments():
            for seed in seeds:
                for name in devices:
                    spec = JobSpec(eid, seed=seed, devices=(name,),
                                   overrides=dict(_OVERRIDES.get(eid, {})))
                    for cell in runner.plan_cells(spec, strict_devices=False):
                        if cell.key not in seen:
                            seen.add(cell.key)
                            expected.append(cell)
        grid = plan_grid(seeds=seeds, devices=devices, overrides=_OVERRIDES)
        assert grid == expected

    def test_invalid_grid_points_fail_before_planning_finishes(self):
        # Validated through JobSpec: a bad seed or scale is a named
        # configuration error, not a stale cell that dies at dispatch.
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            plan_grid(["table2"], seeds=(0, -1))
        with pytest.raises(ConfigurationError, match="scale"):
            plan_grid(["table2"], scales=("huge",))

    def test_unknown_override_fails_planning_before_anything_is_stored(
        self, tmp_path
    ):
        # The override names are checked against the experiment's
        # parameters while planning, so the grid dies before its valid
        # table2 cell is dispatched or stored.
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ExperimentError, match="bogus"):
            cells = plan_grid(["table2", "fig4"], overrides={"fig4": {"bogus": 1}})
            SweepFarm(cache, ExplodingExecutor()).run(cells)
        assert not cache.directory.exists() or not any(cache.directory.iterdir())

    @pytest.mark.parametrize(
        "fig4_overrides, fragment",
        [({"n_runs": -1}, "must be >= 0"), ({"n_runs": "x"}, "n_runs")],
    )
    def test_bad_override_value_fails_planning_before_anything_is_stored(
        self, tmp_path, fig4_overrides, fragment
    ):
        # Values are checked while planning too: against the default's
        # type, then through the axis planner (a negative run count).
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ConfigurationError, match=fragment):
            cells = plan_grid(["table2", "fig4"], overrides={"fig4": fig4_overrides})
            SweepFarm(cache, ExplodingExecutor()).run(cells)
        assert not cache.directory.exists() or not any(cache.directory.iterdir())


class TestFarmRuns:
    def test_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = FakeExecutor()
        cells = plan_grid(
            ["fig4", "fig5"],
            overrides={"fig4": _OVERRIDES["fig4"], "fig5": _OVERRIDES["fig5"]},
        )
        cold = SweepFarm(cache, executor).run(cells)
        assert cold.n_executed == cold.n_cells == 2
        assert cold.n_hits == 0 and cold.recompute_fraction == 1.0
        assert len(executor.calls) == 2

        warm = SweepFarm(cache, ExplodingExecutor()).run(cells)
        assert warm.n_hits == 2 and warm.n_executed == 0
        assert warm.recompute_fraction == 0.0 and warm.drift == []

    def test_probe_only_never_dispatches(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = plan_grid(["table2"])
        report = SweepFarm(cache, ExplodingExecutor()).run(cells, probe_only=True)
        assert report.probe_only and report.n_misses == 1
        assert report.n_executed == 0
        assert "would recompute" in report.to_markdown()

    def test_directory_scan_only_on_passes_with_misses(self, tmp_path, monkeypatch):
        # The previous-generation index reads every entry's metadata head,
        # so only a pass that dispatches misses may build it: warm and
        # probe-only passes touch the grid's own cells alone.
        scans = []
        iter_meta = ResultCache.iter_meta

        def counting_iter_meta(self):
            scans.append(1)
            return iter_meta(self)

        monkeypatch.setattr(ResultCache, "iter_meta", counting_iter_meta)
        cache = ResultCache(tmp_path)
        cells = plan_grid(["table2"])
        SweepFarm(cache, ExplodingExecutor()).run(cells, probe_only=True)
        assert len(scans) == 0
        SweepFarm(cache, FakeExecutor()).run(cells)
        assert len(scans) == 1
        SweepFarm(cache, ExplodingExecutor()).run(cells)
        SweepFarm(cache, ExplodingExecutor()).run(cells, probe_only=True)
        assert len(scans) == 1

    def test_a_miss_is_digested_once(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cells = plan_grid(["table2"])
        calls = count_digests(monkeypatch)
        report = SweepFarm(cache, FakeExecutor()).run(cells)
        assert report.n_executed == 1 and len(calls) == 1

    def test_farm_entries_serve_cli_lookups(self, tmp_path):
        # The farm stores under exactly the key the CLI run path derives.
        cache = ResultCache(tmp_path)
        cells = plan_grid(["fig5"], overrides={"fig5": _OVERRIDES["fig5"]})
        SweepFarm(cache, FakeExecutor()).run(cells)
        key = cache_key("fig5", "default", 0, dict(_OVERRIDES["fig5"]))
        hit = cache.lookup(key)
        assert hit is not None and hit.experiment_id == "fig5"


class TestGoldenPinsViaFarm:
    def test_all_golden_pins_reproduce_under_the_farm(self, tmp_path):
        """Every pinned experiment, scheduled as farm cells, reproduces its
        golden digest bit for bit — decomposing experiments reassemble
        their per-cell cached results into the pinned full-grid bits."""
        cache = ResultCache(tmp_path)
        ids = sorted(GOLDEN_SHA256)
        cells = plan_grid(ids, overrides=_OVERRIDES)
        report = SweepFarm(cache, FakeExecutor()).run(cells)
        assert report.n_executed == report.n_cells
        for eid in ids:
            exp = get_experiment(eid)
            ov = dict(_OVERRIDES[eid])
            sub = exp.cache_cells("default", 0, ov)
            if sub is None:
                result = cache.lookup(cache_key(eid, "default", 0, ov))
            else:
                parts = [
                    cache.lookup(cache_key(eid, "default", 0, c)) for c in sub
                ]
                assert all(p is not None for p in parts)
                result = exp.combine_cells(
                    "default", exp.resolve_params("default", ov), 0, parts
                )
            assert result is not None
            assert result_digest(result) == GOLDEN_SHA256[eid], eid


class TestDrift:
    def _plant_previous_generation(self, cache, cell, *, perturb_module):
        """Store a doctored earlier-generation entry for ``cell``: same
        identity, different key (old fingerprint), perturbed payload bits
        and one rewritten closure-module hash."""
        result = get_experiment(cell.experiment_id).run(
            scale=cell.scale, ctx=RunContext(seed=cell.seed), **cell.overrides
        )
        old = copy.deepcopy(result)
        old.rows[0]["_stale_generation"] = 1  # bits an old code state made
        old_key = cache_key(
            cell.experiment_id, cell.scale, cell.seed, cell.overrides,
            fingerprint="0" * 64,
        )
        path = cache.store(old_key, old, overrides=cell.overrides)
        entry = json.loads(path.read_text())
        entry["cache"]["modules"][perturb_module] = "0" * 64
        path.write_text(json.dumps(entry))
        return old_key, result_digest(old)

    def test_previous_generation_drift_is_reported(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = plan_grid(["fig5"], overrides={"fig5": _OVERRIDES["fig5"]})[0]
        module = "repro.experiments.ratio_sweep"
        old_key, old_digest = self._plant_previous_generation(
            cache, cell, perturb_module=module
        )
        report = SweepFarm(cache, FakeExecutor()).run([cell])
        assert report.n_executed == 1  # old key does not serve the new cell
        assert len(report.drift) == 1
        drift = report.drift[0]
        assert drift.kind == "previous-generation"
        assert drift.cell_id == cell.cell_id
        assert drift.old_digest == old_digest
        assert drift.new_digest == cache.read_meta(cell.key)["digest"]
        assert drift.old_digest != drift.new_digest
        assert module in drift.changed_modules
        assert module in drift.describe()

    def test_bit_identical_previous_generation_is_quiet(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = plan_grid(["fig5"], overrides={"fig5": _OVERRIDES["fig5"]})[0]
        result = get_experiment("fig5").run(
            scale="default", ctx=RunContext(seed=0), **cell.overrides
        )
        old_key = cache_key(
            "fig5", "default", 0, cell.overrides, fingerprint="0" * 64
        )
        cache.store(old_key, result, overrides=cell.overrides)
        report = SweepFarm(cache, FakeExecutor()).run([cell])
        assert report.n_executed == 1 and report.drift == []

    def test_golden_pin_drift_on_execute_and_on_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = plan_grid(["table2"])[0]
        pins = {cell.cell_id: "0" * 64}
        cold = SweepFarm(cache, FakeExecutor(), pins=pins).run([cell])
        assert [d.kind for d in cold.drift] == ["golden-pin"]
        assert cold.drift[0].old_digest == "0" * 64
        warm = SweepFarm(cache, ExplodingExecutor(), pins=pins).run([cell])
        assert [d.kind for d in warm.drift] == ["golden-pin"]
        # A correct pin is quiet on both paths.
        good = {cell.cell_id: cache.read_meta(cell.key)["digest"]}
        assert SweepFarm(cache, ExplodingExecutor(), pins=good).run([cell]).drift == []

    def test_load_pins_flat_and_nested(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"a/default/seed0": "x" * 64}))
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"pins": {"b/default/seed0": "y" * 64}}))
        assert load_pins(flat) == {"a/default/seed0": "x" * 64}
        assert load_pins(nested) == {"b/default/seed0": "y" * 64}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pins": {"c": 3}}))
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="digest"):
            load_pins(bad)


class TestModuleGranularInvalidation:
    @pytest.fixture()
    def patched_root(self, tmp_path, monkeypatch):
        src = Path(repro.__file__).resolve().parent
        dst = tmp_path / "repro"
        shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(fingerprint, "package_root", lambda: (dst, "repro"))
        fingerprint.repin()
        return dst

    def test_single_module_edit_recomputes_only_dependents(
        self, tmp_path, patched_root
    ):
        """The tentpole property: warm the grid, edit ``_gnn.py``, and only
        the GNN tables' cells go stale — the recompute fraction after a
        single-module edit is far below 100%."""
        cache = ResultCache(tmp_path / "cache")
        ids = ["table7", "table8", "fig5", "table2", "maxvs"]
        cells = plan_grid(ids)
        for cell in cells:
            cache.store(cell.key, _dummy_result(cell))
        farm = SweepFarm(cache, ExplodingExecutor())
        assert farm.run(cells, probe_only=True).n_misses == 0

        gnn = patched_root / "experiments" / "_gnn.py"
        gnn.write_text(gnn.read_text() + "\n# farm-test edit\n")
        assert farm.run(plan_grid(ids), probe_only=True).n_misses == 0  # pinned
        fingerprint.repin()
        stale = farm.run(plan_grid(ids), probe_only=True)
        assert {c.experiment_id for c in stale.misses} == {"table7", "table8"}
        assert {c.experiment_id for c in stale.hits} == {"fig5", "table2", "maxvs"}
        assert 0 < stale.recompute_fraction < 1.0


class TestFarmCli:
    def test_cold_then_warm_via_cli(self, tmp_path, capsys):
        cache_dir, report = tmp_path / "cache", tmp_path / "report.json"
        argv = [
            "farm", "--experiments", "table2", "--cache-dir", str(cache_dir),
            "--report-json", str(report),
        ]
        assert main(argv) == 0
        cold = json.loads(report.read_text())
        assert cold["n_executed"] == 1 and cold["n_hits"] == 0
        assert main(argv) == 0
        warm = json.loads(report.read_text())
        assert warm["n_executed"] == 0 and warm["n_hits"] == 1
        assert warm["recompute_fraction"] == 0.0
        assert "sweep farm" in capsys.readouterr().out

    def test_probe_only_flag(self, tmp_path, capsys):
        assert main([
            "farm", "--experiments", "table2", "--probe-only",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "probed 1 cells" in out

    def test_fail_on_drift_exit_code(self, tmp_path, capsys):
        pins = tmp_path / "pins.json"
        pins.write_text(json.dumps({"table2/default/seed0": "0" * 64}))
        argv = [
            "farm", "--experiments", "table2", "--cache-dir",
            str(tmp_path / "cache"), "--pins", str(pins), "--fail-on-drift",
        ]
        assert main(argv) == 1
        assert "drift" in capsys.readouterr().out

    def test_bad_seeds_is_a_cli_error(self, tmp_path, capsys):
        assert main([
            "farm", "--experiments", "table2", "--seeds", "zero",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 1
        assert "--seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--experiments", "table2,table1", "--seeds", "0,-1"],
        ["--experiments", "table2", "--scales", "huge"],
    ])
    @pytest.mark.parametrize("probe_only", [False, True])
    def test_invalid_grid_point_exits_1_with_empty_cache(
        self, tmp_path, capsys, flags, probe_only
    ):
        # The whole grid is planned before any dispatch: one bad point
        # stores nothing (not even the valid seed-0 cells) and is never
        # listed as a stale cell.
        cache_dir = tmp_path / "cache"
        argv = ["farm", *flags, "--cache-dir", str(cache_dir)]
        assert main(argv + (["--probe-only"] if probe_only else [])) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "JobSpec" in captured.err
        assert "sweep farm" not in captured.out
        assert not cache_dir.exists() or not any(cache_dir.iterdir())

    def test_farm_warmed_cache_serves_run_command(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["farm", "--experiments", "table2", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["run", "table2", "--cache-dir", cache_dir]) == 0
        assert "[cache hit]" in capsys.readouterr().err

    def test_report_json_is_written_atomically(self, tmp_path, capsys):
        report = tmp_path / "nested" / "report.json"
        assert main([
            "farm", "--experiments", "table2", "--probe-only",
            "--cache-dir", str(tmp_path / "cache"),
            "--report-json", str(report),
        ]) == 0
        assert json.loads(report.read_text())["n_cells"] == 1
        # Same-dir temp + os.replace: no temp litter next to the report.
        assert [p.name for p in report.parent.iterdir()] == ["report.json"]

    def test_unknown_farm_device_fails_before_any_cell(self, tmp_path, capsys):
        assert main([
            "farm", "--experiments", "figS1", "--devices", "v100,nodev",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 1
        err = capsys.readouterr().err
        assert "unknown device name(s) ['nodev']" in err
        assert "registered devices" in err
        assert not (tmp_path / "cache").exists() or not list(
            (tmp_path / "cache").glob("*.json"))


class TestDeviceOverridesValidation:
    def test_unknown_names_raise_configuration_error_listing_registry(self):
        from repro.errors import ConfigurationError
        from repro.gpusim.device import list_devices
        from repro.harness.jobs import device_overrides_for

        with pytest.raises(ConfigurationError) as exc:
            device_overrides_for(
                "figS1", "default", ("gh200", "notta", "nodev"), strict=True
            )
        msg = str(exc.value)
        assert "['nodev', 'notta']" in msg
        for name in list_devices():
            assert name in msg

    def test_known_names_still_resolve(self):
        from repro.harness.jobs import device_overrides_for

        assert device_overrides_for(
            "figS1", "default", ("v100", "gh200"), strict=True
        ) == {"devices": ("v100", "gh200")}
