"""Transport-agnostic experiment job core.

One submission -> cache probe -> executor dispatch -> store -> outcome
lifecycle, shared by every entry point.  Before this module the CLI
``run`` path, ``run-all`` and the sweep farm each re-implemented slices
of that lifecycle inline, so a long-running service could not reuse it
without copy-paste; now they all ride :class:`JobRunner`, and so does the
asyncio daemon (:mod:`repro.harness.service`).

The contract is **zero drift** with the pre-extraction CLI:

* :class:`JobSpec` canonicalises its identity exactly like the CLI's
  cache-key inputs (``_canonical_override`` over the overrides, device
  names lowercased, seeds as ``int``), so a job's cells land on byte-for-
  byte the same :func:`~repro.harness.results.cache_key` values the CLI
  ``run`` path derives — caches warmed before the refactor stay warm
  after it, and entries stored by a daemon serve CLI hits.
* The execution path is the executor's
  (:meth:`~repro.harness.parallel.ShardedExecutor.run`), so results are
  bit-identical to the one-shot CLI, golden pins included.
* Experiments whose axis declaration decomposes
  (:meth:`~repro.experiments.base.Experiment.cache_cells`, e.g. the
  seed-ensemble grid) run and cache **per cell** under per-cell keys and
  reassemble via ``combine_cells`` — the same decomposition the CLI and
  the farm perform.

:class:`JobOutcome` carries everything an observer needs without
re-deriving it: the assembled result, per-cell hit/miss with payload
digests and elapsed wall-clock, and whether the whole job was answered
from cache (the service's "no worker was touched" signal; the CLI's
``cached``/``computed`` status line).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..experiments import get_experiment
from ..experiments.base import ExperimentResult
from .results import ResultCache, _canonical_override, cache_key, result_digest

__all__ = ["JobSpec", "CellOutcome", "JobOutcome", "JobRunner"]


@dataclass(frozen=True)
class JobSpec:
    """One experiment submission, canonicalised like a cache-key input.

    Parameters mirror the CLI ``run`` flags: ``devices`` is the raw
    ``--devices`` name tuple (translated into parameter overrides against
    the experiment's device axis at plan time), ``overrides`` are direct
    parameter overrides, and ``backend``/``workers`` are *execution*
    preferences — they select how a job runs, never what it computes
    (backends are bit-identical and sharding merges bit-exactly), so they
    are validated here but take effect through the runner's executor and
    the process-wide backend selection, exactly like the CLI flags.
    """

    experiment_id: str
    scale: str = "default"
    seed: int = 0
    devices: tuple[str, ...] | None = None
    overrides: dict = field(default_factory=dict)
    backend: str | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.experiment_id, str) or not self.experiment_id:
            raise ConfigurationError("JobSpec.experiment_id must be a non-empty string")
        if self.scale not in ("default", "paper"):
            raise ConfigurationError(
                f"JobSpec.scale must be 'default' or 'paper', got {self.scale!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(f"JobSpec.seed must be an int, got {self.seed!r}")
        if self.devices is not None:
            if isinstance(self.devices, str) or not all(
                isinstance(d, str) and d for d in self.devices
            ):
                raise ConfigurationError(
                    "JobSpec.devices must be a sequence of device names"
                )
            object.__setattr__(
                self, "devices", tuple(d.lower() for d in self.devices)
            )
        if not isinstance(self.overrides, dict):
            raise ConfigurationError("JobSpec.overrides must be a mapping")
        # Canonicalise eagerly: a non-serialisable override fails at
        # submission (a 400 at the service boundary), not mid-dispatch.
        object.__setattr__(
            self,
            "overrides",
            {k: _canonical_override(v, k) for k, v in self.overrides.items()},
        )
        if self.workers is not None:
            if isinstance(self.workers, bool) or not isinstance(self.workers, int):
                raise ConfigurationError(
                    f"JobSpec.workers must be an int, got {self.workers!r}"
                )
            if self.workers < 1:
                raise ConfigurationError(
                    f"JobSpec.workers must be >= 1, got {self.workers}"
                )
        if self.backend is not None:
            from .. import backend as _backend

            if self.backend not in _backend.MODES:
                raise ConfigurationError(
                    f"JobSpec.backend must be one of {_backend.MODES}, "
                    f"got {self.backend!r}"
                )

    @classmethod
    def from_dict(cls, doc: dict) -> "JobSpec":
        """Build a spec from a JSON document (the service's POST body).

        Unknown fields fail by name — a typo'd ``"overides"`` must be a
        400, not a silently ignored key.
        """
        if not isinstance(doc, dict):
            raise ConfigurationError("job document must be a JSON object")
        known = {
            "experiment_id", "scale", "seed", "devices", "overrides",
            "backend", "workers",
        }
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown job field(s) {unknown}; known fields: {sorted(known)}"
            )
        if "experiment_id" not in doc:
            raise ConfigurationError("job document needs an 'experiment_id'")
        devices = doc.get("devices")
        if devices is not None:
            if isinstance(devices, str):
                devices = tuple(
                    part.strip() for part in devices.split(",") if part.strip()
                )
            else:
                devices = tuple(devices)
            if not devices:
                raise ConfigurationError("job 'devices' needs at least one name")
        return cls(
            experiment_id=doc["experiment_id"],
            scale=doc.get("scale", "default"),
            seed=doc.get("seed", 0),
            devices=devices,
            overrides=dict(doc.get("overrides") or {}),
            backend=doc.get("backend"),
            workers=doc.get("workers"),
        )

    def as_dict(self) -> dict:
        """JSON-serialisable canonical form."""
        return {
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "seed": self.seed,
            "devices": list(self.devices) if self.devices is not None else None,
            "overrides": dict(self.overrides),
            "backend": self.backend,
            "workers": self.workers,
        }


@dataclass
class CellOutcome:
    """One cache cell of a job: hit/miss, digest, wall-clock.

    ``elapsed_s`` is the cell's *compute* wall-clock: the stored result's
    recorded elapsed time for hits (what the original computation cost),
    the fresh execution's for misses.
    """

    key: str
    overrides: dict
    hit: bool
    digest: str
    elapsed_s: float

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "overrides": dict(self.overrides),
            "hit": self.hit,
            "digest": self.digest,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class JobOutcome:
    """Everything one job produced: result, per-cell provenance, timing."""

    spec: JobSpec
    result: ExperimentResult
    cells: list[CellOutcome]
    #: True iff every cell was answered from cache — no executor dispatch.
    cached: bool
    #: End-to-end job wall-clock (probes + dispatches + reassembly).
    elapsed_s: float
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_hits(self) -> int:
        return sum(1 for c in self.cells if c.hit)

    @property
    def digest(self) -> str:
        """Digest of the assembled result (the golden-pin digest space),
        computed at most once per outcome."""
        if self._digest is None:
            self._digest = result_digest(self.result)
        return self._digest

    def status_line(self) -> str:
        """Compact human status: ``cached``/``computed`` + wall-clock.

        The CLI observability rider: ``run``/``run-all`` print this per
        experiment so cache behaviour is visible without
        ``farm --report-json``.
        """
        if self.cached:
            status = "cached"
        elif self.n_hits:
            status = f"computed {self.n_cells - self.n_hits}/{self.n_cells} cells"
        else:
            status = "computed"
        return f"{self.spec.experiment_id}: {status} in {self.elapsed_s:.2f}s"

    def as_dict(self, *, include_result: bool = True) -> dict:
        doc = {
            "spec": self.spec.as_dict(),
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
            "digest": self.digest,
            "n_cells": self.n_cells,
            "n_hits": self.n_hits,
            "cells": [c.as_dict() for c in self.cells],
        }
        if include_result:
            doc["result"] = self.result.as_dict()
        return doc


class JobRunner:
    """Owner of the submission -> probe -> dispatch -> store lifecycle.

    Parameters
    ----------
    executor:
        Anything with the :meth:`~repro.harness.parallel.ShardedExecutor.run`
        contract; misses dispatch here.  One persistent executor serves
        every job a runner ever sees (the service keeps one alive for its
        whole lifetime; ``run-all`` reuses one across experiments).
    cache:
        The :class:`~repro.harness.results.ResultCache` probed for hits
        and fed with recomputed cells, or ``None`` to always recompute
        (the CLI ``--no-cache`` path).
    """

    def __init__(self, executor, cache: ResultCache | None) -> None:
        self.executor = executor
        self.cache = cache

    # ---------------------------------------------------------------- plan
    def plan_overrides(self, spec: JobSpec, *, strict_devices: bool = True) -> dict:
        """Resolve a spec's full override dict (devices folded in).

        Validates the experiment id against the registry by name and the
        device names against the device registry — both fail here, at
        submission, never mid-dispatch.  ``strict_devices`` mirrors the
        CLI: ``run`` (and the service) raise when a device list does not
        fit the experiment; ``run-all`` passes ``False`` and applies the
        list only where it fits.
        """
        from .farm import device_overrides_for

        get_experiment(spec.experiment_id)  # fail fast on unknown ids
        overrides = dict(spec.overrides)
        if spec.devices:
            overrides.update(
                device_overrides_for(
                    spec.experiment_id, spec.scale, spec.devices,
                    strict=strict_devices,
                )
            )
        return overrides

    def probe(self, spec: JobSpec, *, strict_devices: bool = True) -> list[tuple[str, bool]]:
        """Metadata-only hit probe: ``[(cell key, cached?), ...]``.

        Touches no worker and deserialises no payload — the service's
        ``GET /results`` path and capacity planning ride this.
        """
        overrides = self.plan_overrides(spec, strict_devices=strict_devices)
        exp = get_experiment(spec.experiment_id)
        cells = exp.cache_cells(spec.scale, spec.seed, overrides)
        out = []
        for cell_ov in [overrides] if cells is None else cells:
            key = cache_key(spec.experiment_id, spec.scale, spec.seed, cell_ov)
            hit = self.cache is not None and self.cache.contains(key)
            out.append((key, hit))
        return out

    # ----------------------------------------------------------------- run
    def run(self, spec: JobSpec, *, strict_devices: bool = True) -> JobOutcome:
        """Execute one job through the full lifecycle; returns the outcome.

        Bit- and key-compatible with the pre-extraction CLI ``run`` path:
        same cell decomposition, same cache keys, same executor dispatch,
        same ``combine_cells`` reassembly.  A cell deleted between the
        ``contains`` probe and the payload read (GC, a concurrent
        process) degrades to a clean recompute — a daemon under traffic
        hits that window.
        """
        start = time.perf_counter()
        overrides = self.plan_overrides(spec, strict_devices=strict_devices)
        exp = get_experiment(spec.experiment_id)
        cells = exp.cache_cells(spec.scale, spec.seed, overrides)
        if cells is None:
            result, outcome = self._run_cell(spec, overrides)
            job = JobOutcome(
                spec=spec,
                result=result,
                cells=[outcome],
                cached=outcome.hit,
                elapsed_s=time.perf_counter() - start,
            )
            job._digest = outcome.digest  # taken over this same result
            return job
        params = exp.resolve_params(spec.scale, dict(overrides))
        results: list[ExperimentResult] = []
        outcomes: list[CellOutcome] = []
        for cell_ov in cells:
            result, outcome = self._run_cell(spec, cell_ov)
            results.append(result)
            outcomes.append(outcome)
        combined = exp.combine_cells(spec.scale, params, spec.seed, results)
        return JobOutcome(
            spec=spec,
            result=combined,
            cells=outcomes,
            cached=all(o.hit for o in outcomes),
            elapsed_s=time.perf_counter() - start,
        )

    def _run_cell(
        self, spec: JobSpec, overrides: dict
    ) -> tuple[ExperimentResult, CellOutcome]:
        """One cache cell: probe, then dispatch + store on a miss."""
        key = cache_key(spec.experiment_id, spec.scale, spec.seed, overrides)
        if self.cache is not None and self.cache.contains(key):
            cached = self.cache.lookup(key)
            if cached is not None:
                return cached, CellOutcome(
                    key=key,
                    overrides=dict(overrides),
                    hit=True,
                    digest=result_digest(cached),
                    elapsed_s=cached.elapsed_s,
                )
        result = self.execute(
            spec.experiment_id, spec.scale, spec.seed, overrides, key=key
        )
        return result, CellOutcome(
            key=key,
            overrides=dict(overrides),
            hit=False,
            digest=result_digest(result),
            elapsed_s=result.elapsed_s,
        )

    def execute(
        self,
        experiment_id: str,
        scale: str,
        seed: int,
        overrides: dict,
        *,
        key: str | None = None,
    ) -> ExperimentResult:
        """Unconditional dispatch + store of one cell (no probe).

        The farm's miss path: it has already probed its grid, so it
        hands each stale cell here with the key it derived.
        """
        result = self.executor.run(
            experiment_id, scale=scale, seed=seed, **overrides
        )
        if self.cache is not None:
            if key is None:
                key = cache_key(experiment_id, scale, seed, overrides)
            self.cache.store(key, result, overrides=overrides)
        return result
