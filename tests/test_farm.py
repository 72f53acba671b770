"""Tests for the incremental sweep farm (:mod:`repro.harness.farm`).

Covers grid expansion (device crossing, cache-cell decomposition, key
identity with the CLI ``run`` path), cache-first execution (cold grid
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
from repro.errors import ExperimentError
from repro.experiments import get_experiment
from repro.harness import (
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

    def test_farm_entries_serve_cli_lookups(self, tmp_path):
        # The farm stores under exactly the key the CLI run path derives.
        cache = ResultCache(tmp_path)
        cells = plan_grid(["fig5"], overrides={"fig5": _OVERRIDES["fig5"]})
        SweepFarm(cache, FakeExecutor()).run(cells)
        key = cache_key("fig5", "default", 0, dict(_OVERRIDES["fig5"]))
        hit = cache.lookup(key)
        assert hit is not None and hit.experiment_id == "fig5"

    def test_estimated_cost_prefers_recorded_wall_clock(self, tmp_path):
        cache = ResultCache(tmp_path)
        farm = SweepFarm(cache, FakeExecutor())
        cell = plan_grid(["table2"])[0]
        assert farm.estimated_cost(cell, {}) == 1.0  # scale heuristic
        paper = plan_grid(["table2"], scales=("paper",))[0]
        assert farm.estimated_cost(paper, {}) > 1.0
        index = {cell.identity(): [{"elapsed_s": 42.5}]}
        assert farm.estimated_cost(cell, index) == 42.5

    def test_misses_dispatch_largest_cost_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = FakeExecutor()
        farm = SweepFarm(cache, executor)
        cells = plan_grid(
            ["fig4", "fig5"],
            overrides={"fig4": _OVERRIDES["fig4"], "fig5": _OVERRIDES["fig5"]},
        )
        # Seed a prior generation making fig5 the recorded long pole.
        index_entry = lambda c, s: {  # noqa: E731 - local table builder
            c.identity(): [{"elapsed_s": s, "key": "old"}]
        }
        index = {**index_entry(cells[0], 1.0), **index_entry(cells[1], 9.0)}
        schedule = sorted(
            cells, key=lambda c: farm.estimated_cost(c, index), reverse=True
        )
        assert [c.experiment_id for c in schedule] == ["fig5", "fig4"]


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
        module = "repro.experiments.fig5"
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
