"""Incremental sweep farm: cache-first orchestration of experiment grids.

Paper-scale FPNA studies are grids of thousands of ``(experiment x scale
x seed x device)`` cells, and the dominant wall-clock cost of iterating
on the codebase is recomputing cells an edit could not have changed.  The
farm is the orchestration layer that makes those re-runs incremental:

1. **Expand** a declared grid into keyed cache cells
   (:class:`~repro.harness.jobs.Cell`, :func:`plan_grid`): every
   (experiment, scale, seed) point, crossed with the device axis where
   the experiment has one, becomes a :class:`~repro.harness.jobs.JobSpec`
   (so an invalid point — a negative seed, an unknown scale or device —
   fails before anything is dispatched) planned by the job core's
   :meth:`~repro.harness.jobs.JobRunner.plan_cells`, the planner the CLI
   ``run`` path uses too: same decomposition, same keys.
2. **Probe** the result cache for every cell up front
   (:meth:`ResultCache.contains` — metadata heads only, no payload
   deserialisation, no worker dispatch).
3. **Execute** only the miss cells, in plan order, on the persistent
   :class:`~repro.harness.parallel.ShardedExecutor` pool, storing each
   result as it lands.
4. **Report** digest drift: whenever a recomputed cell's payload digest
   differs from the newest previous-generation entry of the same cell
   identity (same id/scale/seed/overrides, different key — i.e. the
   same invocation under earlier code), or from a golden pin, the
   consolidated :class:`FarmReport` names the cell, both digests and the
   responsible fingerprint delta (which closure modules' hashes moved).

Because cache keys carry the **module-granular** code fingerprint
(:mod:`repro.harness.fingerprint`), an edit invalidates exactly the cells
whose experiment closure contains the edited module: a warm full-grid
re-run performs zero experiment executions, and a single-module edit
recomputes only that module's dependents.  ``BENCH_0007.json`` pins both
properties.

Example
-------
>>> from repro.harness import ResultCache, ShardedExecutor
>>> from repro.harness.farm import SweepFarm, plan_grid
>>> cells = plan_grid(["fig4", "table2"], seeds=(0, 1))
>>> [c.cell_id for c in cells]
['fig4/default/seed0', 'fig4/default/seed1', 'table2/default/seed0', 'table2/default/seed1']
>>> with ShardedExecutor(workers=2) as executor:
...     report = SweepFarm(ResultCache("~/.cache/repro"), executor).run(cells)
>>> report.n_executed, report.n_hits, len(report.drift)
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigurationError
from ..experiments import list_experiments
from . import fingerprint as _fingerprint
from .jobs import Cell, JobRunner, JobSpec
from .results import ResultCache

__all__ = [
    "DriftEntry",
    "FarmReport",
    "SweepFarm",
    "plan_grid",
    "load_pins",
]


def plan_grid(
    experiment_ids=None,
    *,
    scales=("default",),
    seeds=(0,),
    devices: tuple[str, ...] | None = None,
    overrides: dict | None = None,
) -> list[Cell]:
    """Expand a declared grid into its cache cells.

    Every (experiment, scale, seed, device name or none) point becomes a
    :class:`~repro.harness.jobs.JobSpec` planned by
    :meth:`~repro.harness.jobs.JobRunner.plan_cells`, so farm keys and
    CLI keys coincide cell for cell and an invalid point raises
    :class:`~repro.errors.ConfigurationError` before any dispatch.
    ``devices`` is a farm axis: each name becomes its own cell for every
    experiment it fits (device-axis experiments run as a single-device
    subset — the anchored device-plane contract makes the subset rows
    bit-identical to the full sweep's), while experiments without a
    device parameter contribute one device-free cell per (scale, seed)
    point instead of one per device (cells dedupe by key).
    ``overrides`` maps experiment ids onto extra parameter overrides
    applied to every cell of that experiment.
    """
    if experiment_ids is None:
        experiment_ids = list_experiments()
    overrides = overrides or {}
    device_points = [(name,) for name in devices] if devices else [None]
    planner = JobRunner(None, None)
    cells: list[Cell] = []
    seen: set[str] = set()
    for eid in experiment_ids:
        for scale in scales:
            for seed in seeds:
                for names in device_points:
                    spec = JobSpec(
                        eid, scale=scale, seed=seed, devices=names,
                        overrides=dict(overrides.get(eid, {})),
                    )
                    for cell in planner.plan_cells(spec, strict_devices=False):
                        if cell.key not in seen:
                            seen.add(cell.key)
                            cells.append(cell)
    return cells


@dataclass
class DriftEntry:
    """One digest disagreement surfaced by a farm run."""

    cell_id: str
    key: str
    #: ``"previous-generation"`` (recomputed bits differ from the newest
    #: earlier-code entry of the same cell identity) or ``"golden-pin"``
    #: (bits differ from an explicitly pinned digest).
    kind: str
    old_digest: str
    new_digest: str
    #: Closure modules whose hashes differ between the generations — the
    #: responsible fingerprint delta (empty when unknown, e.g. pins).
    changed_modules: tuple[str, ...] = ()

    def describe(self) -> str:
        line = (
            f"{self.cell_id} [{self.kind}] "
            f"{self.old_digest[:12]}… -> {self.new_digest[:12]}…"
        )
        if self.changed_modules:
            line += f" (modules: {', '.join(self.changed_modules)})"
        return line


@dataclass
class FarmReport:
    """Consolidated outcome of one farm pass over a grid."""

    cells: list[Cell]
    hits: list[Cell]
    misses: list[Cell]
    #: Miss cells in the order they were dispatched (plan order); empty
    #: on a fully warm grid or a probe-only pass.
    executed: list[Cell]
    drift: list[DriftEntry]
    elapsed_s: float = 0.0
    probe_only: bool = False

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_hits(self) -> int:
        return len(self.hits)

    @property
    def n_misses(self) -> int:
        return len(self.misses)

    @property
    def n_executed(self) -> int:
        return len(self.executed)

    @property
    def recompute_fraction(self) -> float:
        """Fraction of the grid that needs a worker — 0.0 on a warm
        re-run, ≪ 1.0 after a single-module edit.  Defined over the miss
        cells, so a ``probe_only`` pass reports the same fraction the
        dispatching pass would (in a full pass every miss is executed)."""
        return self.n_misses / self.n_cells if self.cells else 0.0

    def as_dict(self) -> dict:
        return {
            "n_cells": self.n_cells,
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "n_executed": self.n_executed,
            "recompute_fraction": self.recompute_fraction,
            "elapsed_s": self.elapsed_s,
            "probe_only": self.probe_only,
            "hits": [c.cell_id for c in self.hits],
            "executed": [c.cell_id for c in self.executed],
            "drift": [
                {
                    "cell_id": d.cell_id,
                    "key": d.key,
                    "kind": d.kind,
                    "old_digest": d.old_digest,
                    "new_digest": d.new_digest,
                    "changed_modules": list(d.changed_modules),
                }
                for d in self.drift
            ],
        }

    def to_markdown(self) -> str:
        verb = "probed" if self.probe_only else "ran"
        lines = [
            f"# sweep farm: {verb} {self.n_cells} cells in {self.elapsed_s:.2f}s",
            "",
            f"| cells | hits | executed | recompute | drift |",
            f"|---|---|---|---|---|",
            f"| {self.n_cells} | {self.n_hits} | {self.n_executed} "
            f"| {self.recompute_fraction:.0%} | {len(self.drift)} |",
        ]
        if self.probe_only and self.misses:
            lines += ["", "## stale cells (would recompute)"]
            lines += [f"- {c.cell_id}" for c in self.misses]
        if self.executed:
            lines += ["", "## executed"]
            lines += [f"- {c.cell_id}" for c in self.executed]
        if self.drift:
            lines += ["", "## drift"]
            lines += [f"- {d.describe()}" for d in self.drift]
        return "\n".join(lines)


def load_pins(path: str | Path) -> dict[str, str]:
    """Golden-pin file: JSON mapping cell ids onto expected digests.

    Accepts either a flat ``{cell_id: digest}`` document or one nested
    under a ``"pins"`` key (room for provenance metadata alongside).
    """
    doc = json.loads(Path(path).read_text())
    pins = doc.get("pins", doc) if isinstance(doc, dict) else None
    if not isinstance(pins, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in pins.items()
    ):
        raise ConfigurationError(
            f"pin file {path} must map cell ids onto digest strings"
        )
    return pins


class SweepFarm:
    """Cache-first scheduler of experiment grids.

    Parameters
    ----------
    cache:
        The :class:`~repro.harness.results.ResultCache` probed for hits
        and fed with recomputed cells.
    executor:
        A :class:`~repro.harness.parallel.ShardedExecutor`; only miss
        cells ever reach it.
    pins:
        Optional ``{cell_id: digest}`` golden pins; any executed or hit
        cell whose digest disagrees lands in the drift report.
    """

    def __init__(self, cache: ResultCache, executor, pins: dict[str, str] | None = None):
        self.cache = cache
        self.executor = executor
        self.pins = dict(pins or {})
        #: Shared job core: the farm's miss path is the same
        #: dispatch-and-store primitive the CLI and the service ride.
        self.runner = JobRunner(executor, cache)

    # ------------------------------------------------------------- probing
    def probe(self, cells: list[Cell]) -> tuple[list[Cell], list[Cell]]:
        """Split ``cells`` into (hits, misses) — metadata probes only."""
        hits, misses = [], []
        for cell in cells:
            (hits if self.cache.contains(cell.key) else misses).append(cell)
        return hits, misses

    def _generation_index(self) -> dict[tuple, list[dict]]:
        """All cache entries grouped by cell identity, one directory scan."""
        index: dict[tuple, list[dict]] = {}
        for meta in self.cache.iter_meta():
            ident = (
                meta.get("experiment_id"),
                meta.get("scale"),
                meta.get("seed"),
                json.dumps(meta.get("overrides") or {}, sort_keys=True),
            )
            index.setdefault(ident, []).append(meta)
        return index

    @staticmethod
    def _previous_generation(cell: Cell, index: dict) -> dict | None:
        """Newest entry sharing ``cell``'s identity under a different key
        — the same invocation as computed by an earlier code state."""
        candidates = [
            meta
            for meta in index.get(cell.identity(), [])
            if meta.get("key") != cell.key
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda m: m.get("created_at") or "")

    # ------------------------------------------------------------- running
    def run(self, cells: list[Cell], *, probe_only: bool = False) -> FarmReport:
        """One farm pass: probe everything, recompute only the misses,
        consolidate drift.  With ``probe_only`` nothing is dispatched —
        the report just names the stale cells."""
        start = time.perf_counter()
        hits, misses = self.probe(cells)
        drift: list[DriftEntry] = []
        executed: list[Cell] = []
        if self.pins:
            for cell in hits:
                meta = self.cache.read_meta(cell.key) or {}
                self._check_pin(cell, meta.get("digest"), drift)
        if misses and not probe_only:
            # Built before the first store, so this pass's own entries
            # never count as a previous generation; warm and probe-only
            # passes skip the whole-directory scan.
            index = self._generation_index()
            for cell in misses:
                _, digest = self.runner.execute(cell)
                executed.append(cell)
                self._check_drift(cell, digest, index, drift)
                self._check_pin(cell, digest, drift)
        return FarmReport(
            cells=list(cells),
            hits=hits,
            misses=misses,
            executed=executed,
            drift=drift,
            elapsed_s=time.perf_counter() - start,
            probe_only=probe_only,
        )

    # --------------------------------------------------------------- drift
    def _check_drift(
        self, cell: Cell, digest: str, index: dict, drift: list[DriftEntry]
    ) -> None:
        prev = self._previous_generation(cell, index)
        if prev is not None and prev.get("digest") and prev["digest"] != digest:
            try:
                current = _fingerprint.closure_hashes(cell.experiment_id)
            except Exception:  # noqa: BLE001 - delta is best-effort context
                current = {}
            drift.append(
                DriftEntry(
                    cell_id=cell.cell_id,
                    key=cell.key,
                    kind="previous-generation",
                    old_digest=prev["digest"],
                    new_digest=digest,
                    changed_modules=_fingerprint.fingerprint_delta(
                        prev.get("modules") or {}, current
                    ),
                )
            )

    def _check_pin(
        self, cell: Cell, digest: str | None, drift: list[DriftEntry]
    ) -> None:
        pin = self.pins.get(cell.cell_id)
        if pin is not None and digest and digest != pin:
            drift.append(
                DriftEntry(
                    cell_id=cell.cell_id,
                    key=cell.key,
                    kind="golden-pin",
                    old_digest=pin,
                    new_digest=digest,
                )
            )
