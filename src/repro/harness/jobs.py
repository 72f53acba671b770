"""Transport-agnostic experiment job core.

One submission -> cell plan -> cache probe -> executor dispatch -> store
-> outcome lifecycle, shared by every entry point: the CLI ``run`` and
``run-all`` paths, the sweep farm (:mod:`repro.harness.farm`) and the
asyncio daemon (:mod:`repro.harness.service`) all ride :class:`JobRunner`.

* :class:`JobSpec` validates and canonicalises a submission exactly like
  the cache-key inputs (``_canonical_override`` over the overrides,
  device names lowercased, seeds as non-negative ``int``), so every
  transport derives byte-for-byte the same
  :func:`~repro.harness.results.cache_key` values and entries stored by
  one serve hits for all the others.
* :meth:`JobRunner.plan_cells` is the one place a submission becomes
  keyed cache cells: it folds the device list into the overrides and
  checks every override name, value type and axis size against the
  experiment's parameters (:meth:`JobRunner.plan_overrides`, so a bad
  override fails before any work runs), decomposes the invocation
  through the experiment's axis declaration (:meth:`~repro.experiments.
  base.Experiment.cache_cells`, e.g. the seed-ensemble grid) and keys
  each :class:`Cell`.  Monolithic experiments plan exactly one cell.
* :meth:`JobRunner.run` reads every planned cell from the cache (one
  :meth:`~repro.harness.results.ResultCache.lookup` per cell),
  dispatches the misses through the executor (:meth:`~repro.harness.
  parallel.ShardedExecutor.run`, so results are bit-identical to a
  one-shot run, golden pins included), stores them, and reassembles a
  decomposed job with ``combine_cells``.  The farm plans its grid
  through the same :meth:`~JobRunner.plan_cells` and sends each stale
  cell to :meth:`JobRunner.execute`.

:class:`JobOutcome` carries everything an observer needs without
re-deriving it: the assembled result, per-cell hit/miss with payload
digests and elapsed wall-clock, and whether the whole job was answered
from cache (the service's "no worker was touched" signal; the CLI's
``cached``/``computed`` status line).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..experiments import get_experiment
from ..experiments.axes import plan_sweep
from ..experiments.base import ExperimentResult
from ..gpusim.device import list_devices
from .results import ResultCache, _canonical_override, cache_key, result_digest

__all__ = [
    "JobSpec", "Cell", "CellOutcome", "JobOutcome", "JobRunner",
    "device_overrides_for",
]


@dataclass(frozen=True)
class JobSpec:
    """One experiment submission, canonicalised like a cache-key input.

    Fields mirror the CLI ``run`` flags: ``devices`` is the raw
    ``--devices`` name tuple (translated into parameter overrides against
    the experiment's device axis at plan time) and ``overrides`` are
    direct parameter overrides, whose names are checked against the
    experiment's parameters at plan time too.  A spec says what a job
    computes, never how: worker count and backend belong to the process
    that runs it (``--workers``/``--backend``), and change wall-clock,
    never bits.
    """

    experiment_id: str
    scale: str = "default"
    seed: int = 0
    devices: tuple[str, ...] | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.experiment_id, str) or not self.experiment_id:
            raise ConfigurationError("JobSpec.experiment_id must be a non-empty string")
        if self.scale not in ("default", "paper"):
            raise ConfigurationError(
                f"JobSpec.scale must be 'default' or 'paper', got {self.scale!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(f"JobSpec.seed must be an int, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigurationError(f"JobSpec.seed must be >= 0, got {self.seed}")
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

    @classmethod
    def from_dict(cls, doc: dict) -> "JobSpec":
        """Build a spec from a JSON document (the service's POST body).

        Unknown fields fail by name — a typo'd ``"overides"`` must be a
        400, not a silently ignored key.
        """
        if not isinstance(doc, dict):
            raise ConfigurationError("job document must be a JSON object")
        known = {"experiment_id", "scale", "seed", "devices", "overrides"}
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
            elif isinstance(devices, list):
                devices = tuple(devices)
            else:
                raise ConfigurationError(
                    "job 'devices' must be a comma-separated string or a "
                    f"list of names, got {devices!r}"
                )
            if not devices:
                raise ConfigurationError("job 'devices' needs at least one name")
        overrides = doc.get("overrides")
        return cls(
            experiment_id=doc["experiment_id"],
            scale=doc.get("scale", "default"),
            seed=doc.get("seed", 0),
            devices=devices,
            # Passed through as sent, so a non-object fails the mapping
            # check in __post_init__ (a 400 at the service boundary).
            overrides={} if overrides is None else overrides,
        )

    def as_dict(self) -> dict:
        """JSON-serialisable canonical form."""
        return {
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "seed": self.seed,
            "devices": list(self.devices) if self.devices is not None else None,
            "overrides": dict(self.overrides),
        }


@dataclass(frozen=True, eq=True)
class Cell:
    """One cache cell of a job: a complete, independently cacheable
    invocation, keyed exactly as every transport keys it."""

    experiment_id: str
    scale: str
    seed: int
    overrides: dict = field(default_factory=dict)
    #: Result-cache key of this invocation (:func:`~repro.harness.
    #: results.cache_key`).
    key: str = ""

    def _canonical_json(self, **dumps_kwargs) -> str:
        canon = {k: _canonical_override(v, k) for k, v in self.overrides.items()}
        return json.dumps(canon, sort_keys=True, **dumps_kwargs)

    @property
    def cell_id(self) -> str:
        """Human-stable cell name: ``id/scale/seedN[?canonical overrides]``
        (the key of a golden-pin file)."""
        base = f"{self.experiment_id}/{self.scale}/seed{self.seed}"
        if not self.overrides:
            return base
        return f"{base}?{self._canonical_json(separators=(',', ':'))}"

    def identity(self) -> tuple:
        """Code-independent cell identity — what previous-generation
        entries share with this cell while their keys differ."""
        return (
            self.experiment_id, self.scale, self.seed, self._canonical_json()
        )


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


def device_overrides_for(
    experiment_id: str, scale: str, names: tuple[str, ...], *, strict: bool
) -> dict:
    """Parameter overrides pinning ``experiment_id`` to the devices ``names``.

    Experiments with a ``devices`` axis get the tuple; single-``device``
    experiments accept exactly one name.  ``strict`` raises on
    experiments without a device parameter (the CLI single-``run`` path);
    grid expansion passes ``strict=False`` and leaves them untouched.
    """
    if not names:
        return {}
    registry = list_devices()
    unknown = sorted({str(n).lower() for n in names} - set(registry))
    if unknown:
        # Named here, at entry, rather than deep in a dispatched sweep:
        # a farm grid or CLI run with a typo'd device must fail before
        # any cell executes.
        raise ConfigurationError(
            f"unknown device name(s) {unknown} in device list; "
            f"registered devices: {registry}"
        )
    params = get_experiment(experiment_id).params_for(scale)
    if "devices" in params:
        return {"devices": tuple(names)}
    if "device" in params:
        if len(names) == 1:
            return {"device": names[0]}
        if strict:
            raise ConfigurationError(
                f"experiment {experiment_id!r} models a single device; "
                f"--devices got {len(names)} names"
            )
        return {}
    if strict:
        raise ConfigurationError(
            f"experiment {experiment_id!r} has no device parameter to override"
        )
    return {}


def _fits(default, value) -> bool:
    """Whether an override ``value`` has its parameter ``default``'s type.

    Checked kinds are bool, int, float (an int also fits), str, and a
    list or tuple of those (every element must fit one of the default's
    elements).  A ``None`` default declares no type, so anything fits;
    :meth:`JobRunner.plan_overrides` first types it by the parameter's
    value at another scale, and admits a ``None`` value where either
    scale's default is ``None``.
    """
    if default is None:
        return True
    if isinstance(default, (list, tuple)):
        return isinstance(value, (list, tuple)) and (
            not default
            or all(any(_fits(d, v) for d in default) for v in value)
        )
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, str):
        return isinstance(value, str)
    return True


def _kind(default) -> str:
    """Human name of the type :func:`_fits` checks against ``default``."""
    if isinstance(default, (list, tuple)):
        inner = sorted({type(d).__name__ for d in default})
        return f"a list of {'/'.join(inner)}" if inner else "a list"
    return f"of type {type(default).__name__}"


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

        Validates the experiment id against the registry, the device
        names against the device registry, the override names against
        the experiment's parameters, each override value against its
        default's type (:func:`_fits`), and the resolved parameters
        against the experiment's axis declaration (a negative run count
        fails in :func:`~repro.experiments.axes.plan_sweep`) — all fail
        here, at submission, never mid-dispatch.  ``strict_devices``
        mirrors the CLI: ``run`` (and the service) raise when a device
        list does not fit the experiment; ``run-all`` passes ``False``
        and applies the list only where it fits.
        """
        exp = get_experiment(spec.experiment_id)  # fail fast on unknown ids
        overrides = dict(spec.overrides)
        if spec.devices:
            overrides.update(
                device_overrides_for(
                    spec.experiment_id, spec.scale, spec.devices,
                    strict=strict_devices,
                )
            )
        params = exp.resolve_params(spec.scale, overrides)  # unknown names
        defaults = exp.params_for(spec.scale) if overrides else {}
        for name, value in overrides.items():
            default = defaults[name]
            if default is None or value is None:
                # A None default ("derive it") declares no type: take the
                # parameter's type from its value at the other scale.  A
                # None value fits where either scale's default is None.
                other = "paper" if spec.scale == "default" else "default"
                other_default = exp.params_for(other)[name]
                if value is None and None in (default, other_default):
                    continue
                if default is None:
                    default = other_default
            if not _fits(default, value):
                raise ConfigurationError(
                    f"{spec.experiment_id}: override {name!r} must be "
                    f"{_kind(default)}, got {value!r}"
                )
        if exp.axes:
            plan_sweep(exp, params)  # axis sizes: a negative count fails
        return overrides

    def plan_cells(self, spec: JobSpec, *, strict_devices: bool = True) -> list[Cell]:
        """The job's keyed cache cells, in ``combine_cells`` order.

        One cell unless the experiment's axis declaration decomposes the
        invocation (:meth:`~repro.experiments.base.Experiment.
        cache_cells`).  Touches neither the cache nor a worker; the farm
        plans its grid through here with ``strict_devices=False``.
        """
        return self.plan(spec, strict_devices=strict_devices)[1]

    def plan(
        self, spec: JobSpec, *, strict_devices: bool = True
    ) -> tuple[dict, list[Cell]]:
        """:meth:`plan_cells` plus the job-level overrides that
        ``combine_cells`` resolves a decomposed job's params from.

        The daemon plans each job once, at admission, and hands this
        pair to :meth:`run`.
        """
        overrides = self.plan_overrides(spec, strict_devices=strict_devices)
        eid, scale, seed = spec.experiment_id, spec.scale, spec.seed
        decomposed = get_experiment(eid).cache_cells(scale, seed, overrides)
        cells = [
            Cell(eid, scale, seed, dict(cell_ov), cache_key(eid, scale, seed, cell_ov))
            for cell_ov in ([overrides] if decomposed is None else decomposed)
        ]
        return overrides, cells

    # ----------------------------------------------------------------- run
    def run(
        self,
        spec: JobSpec,
        *,
        strict_devices: bool = True,
        plan: tuple[dict, list[Cell]] | None = None,
    ) -> JobOutcome:
        """Execute one job through the full lifecycle; returns the outcome.

        Each planned cell is read from the cache and, on a miss,
        dispatched and stored; a decomposed job is reassembled bit-exactly
        with ``combine_cells``.  A missing entry is a clean miss; a
        corrupt one warns once (:meth:`~repro.harness.results.ResultCache.
        lookup`) and is recomputed.  ``plan`` is this spec's
        :meth:`plan`, when the caller already made it.
        """
        start = time.perf_counter()
        if plan is None:
            plan = self.plan(spec, strict_devices=strict_devices)
        overrides, cells = plan
        results: list[ExperimentResult] = []
        outcomes: list[CellOutcome] = []
        for cell in cells:
            result, outcome = self._run_cell(cell)
            results.append(result)
            outcomes.append(outcome)
        if len(cells) == 1:
            # The cell's digest is taken over this same result.
            result, digest = results[0], outcomes[0].digest
        else:
            exp = get_experiment(spec.experiment_id)
            params = exp.resolve_params(spec.scale, dict(overrides))
            result = exp.combine_cells(spec.scale, params, spec.seed, results)
            digest = None
        job = JobOutcome(
            spec=spec,
            result=result,
            cells=outcomes,
            cached=all(o.hit for o in outcomes),
            elapsed_s=time.perf_counter() - start,
        )
        job._digest = digest
        return job

    def _run_cell(self, cell: Cell) -> tuple[ExperimentResult, CellOutcome]:
        """One cache cell: one read, then dispatch + store on a miss."""
        result = None if self.cache is None else self.cache.lookup(cell.key)
        hit = result is not None
        if hit:
            digest = result_digest(result)
        else:
            result, digest = self.execute(cell)
        return result, CellOutcome(
            key=cell.key,
            overrides=dict(cell.overrides),
            hit=hit,
            digest=digest,
            elapsed_s=result.elapsed_s,
        )

    def execute(self, cell: Cell) -> tuple[ExperimentResult, str]:
        """Unconditional dispatch + store of one planned cell (no probe);
        returns the result and its digest, computed once for both the
        caller and the stored metadata.

        The farm's miss path: it has already probed its grid, so it
        hands each stale cell straight here.
        """
        result = self.executor.run(
            cell.experiment_id, scale=cell.scale, seed=cell.seed, **cell.overrides
        )
        digest = result_digest(result)
        if self.cache is not None:
            self.cache.store(cell.key, result, overrides=cell.overrides, digest=digest)
        return result, digest
