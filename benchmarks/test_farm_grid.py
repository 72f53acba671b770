"""Bench FARM: cold vs warm sweep-farm grid, and stale-probe latency.

Three numbers go into ``BENCH_0007.json``:

* ``test_farm_cold_grid`` — a representative mixed grid (seven
  experiments, two of them GNN tables, the decomposing seed ensemble)
  computed from an empty cache: every cell dispatches, so this is the
  price of a from-scratch sweep.
* ``test_farm_warm_grid`` — the identical grid against the warmed cache:
  the farm answers every cell from metadata head-probes and performs
  **zero** experiment executions (asserted), so the mean is pure
  orchestration overhead — it must stay orders of magnitude below the
  cold mean.
* ``test_farm_probe_after_module_edit`` — probe latency of the same grid
  after a single-module edit (``experiments/_gnn.py`` in a throwaway
  copy of the package).  The probe itself stays warm-grid cheap, and the
  reported recompute fraction counts only the GNN tables' cells
  (asserted ``0 < fraction < 0.5``; recorded in the trajectory file's
  ``single_module_edit`` section) — the module-granular invalidation
  contract, measured.

The farm drives experiments through a serial in-process executor: worker
pools are benchmarked separately (``BENCH_0004``), and keeping dispatch
serial makes cold-vs-warm a pure cache effect instead of a pool effect.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro
from repro.experiments import get_experiment
from repro.harness import ResultCache, SweepFarm, plan_grid
from repro.harness import fingerprint
from repro.runtime import RunContext

from conftest import run_once

#: Mixed grid: summation figures, CG, the power-law ablation, both GNN
#: tables and the decomposing seed ensemble — small enough for CI, broad
#: enough that closures differ per experiment.
GRID_OVERRIDES = {
    "fig4": {"n_runs": 40},
    "fig5": {"n_runs": 40},
    "cgdiv": {"n": 80, "n_runs": 3, "n_iter": 12},
    "maxvs": {"sizes": (1_000, 4_000), "n_arrays": 2, "n_runs": 40},
    "table7": {"n_models": 4, "epochs": 3},
    "table8": {},
    "seedens": {"seeds": (0, 1), "devices": ("v100", "lpu"),
                "n_elements": 2_000, "n_arrays": 2, "n_runs": 12},
}
GRID_IDS = sorted(GRID_OVERRIDES)


class SerialExecutor:
    """In-process executor with the ShardedExecutor.run contract."""

    def run(self, experiment_id, *, scale="default", seed=0, **overrides):
        return get_experiment(experiment_id).run(
            scale=scale, ctx=RunContext(seed=seed), **overrides
        )


def _grid():
    return plan_grid(GRID_IDS, overrides=GRID_OVERRIDES)


def test_farm_cold_grid(benchmark, tmp_path):
    cells = _grid()

    def cold():
        cache_dir = tmp_path / f"cache-{len(list(tmp_path.iterdir()))}"
        farm = SweepFarm(ResultCache(cache_dir), SerialExecutor())
        return farm.run(cells)

    report = run_once(benchmark, cold)
    assert report.n_executed == report.n_cells == len(cells)
    assert report.recompute_fraction == 1.0


def test_farm_warm_grid(benchmark, tmp_path):
    cells = _grid()
    cache = ResultCache(tmp_path / "cache")
    SweepFarm(cache, SerialExecutor()).run(cells)  # warm outside the round

    farm = SweepFarm(cache, SerialExecutor())
    report = benchmark(lambda: farm.run(cells))
    assert report.n_executed == 0 and report.n_hits == report.n_cells
    assert report.recompute_fraction == 0.0


def test_farm_probe_after_module_edit(benchmark, tmp_path, monkeypatch):
    src = Path(repro.__file__).resolve().parent
    copy = tmp_path / "repro"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(fingerprint, "package_root", lambda: (copy, "repro"))

    cache = ResultCache(tmp_path / "cache")
    SweepFarm(cache, SerialExecutor()).run(_grid())  # warm under the copy
    gnn = copy / "experiments" / "_gnn.py"
    gnn.write_text(gnn.read_text() + "\n# bench: single-module edit\n")
    fingerprint.repin()
    cells = _grid()  # keys under the edited tree

    farm = SweepFarm(cache, SerialExecutor())
    report = benchmark(lambda: farm.run(cells, probe_only=True))
    stale = {c.experiment_id for c in report.misses}
    assert stale == {"table7", "table8"}
    assert 0 < report.recompute_fraction < 0.5
    benchmark.extra_info["recompute_fraction"] = report.recompute_fraction
    benchmark.extra_info["stale_cells"] = sorted(c.cell_id for c in report.misses)
