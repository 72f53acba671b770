"""Experiment framework: results, scaling, and the registry.

Every table/figure of the paper maps to one :class:`Experiment` subclass.
Experiments are pure functions of a :class:`~repro.runtime.RunContext` and
a scale:

* ``"default"`` — laptop-scale parameters (seconds), statistically smaller
  than the paper's but exercising identical code paths;
* ``"paper"`` — the published parameters (can take hours).

``run()`` returns an :class:`ExperimentResult` whose ``rows`` are plain
dicts — renderable as markdown (:mod:`repro.experiments.report`) and
JSON-serialisable for archival.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

from ..errors import ConfigurationError, ExperimentError
from ..runtime import RunContext
from .axes import AxisSpec, plan_sweep
from .sharding import merge_payloads

__all__ = [
    "ExperimentResult",
    "Experiment",
    "ShardableExperiment",
    "AxisSpec",
    "plan_sweep",
    "register",
    "get_experiment",
    "list_experiments",
]

_SCALES = ("default", "paper")


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    experiment_id:
        Registry key, e.g. ``"table1"``.
    title:
        Human-readable description (paper artifact reference).
    scale:
        Scale the run used.
    params:
        Fully resolved parameters.
    rows:
        List of dict rows — the regenerated table / figure series.
    notes:
        Free-form commentary (calibration provenance, paper-vs-measured).
    elapsed_s:
        Wall-clock the run took.
    seed:
        Master seed of the context the run used (``None`` for results
        predating seed tracking).  Part of the archive filename and the
        result-cache key.
    meta:
        Execution provenance (worker count, cache key, code fingerprint);
        never part of the scientific payload (``rows``/``extra``).
    """

    experiment_id: str
    title: str
    scale: str
    params: dict
    rows: list[dict]
    notes: str = ""
    elapsed_s: float = 0.0
    extra: dict = field(default_factory=dict)
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "scale": self.scale,
            "params": self.params,
            "rows": self.rows,
            "notes": self.notes,
            "elapsed_s": self.elapsed_s,
            "extra": self.extra,
            "seed": self.seed,
            "meta": self.meta,
        }


class Experiment(abc.ABC):
    """Base class: subclasses define ``experiment_id``, ``title``,
    ``params_for(scale)`` and ``_run(ctx, params)``."""

    experiment_id: str
    title: str

    #: Declared axis product (run x device x array x config x seed) in
    #: ladder-nesting order — see :mod:`repro.experiments.axes`.  The
    #: planner (:func:`~repro.experiments.axes.plan_sweep`) derives shard
    #: windows, stream-ladder bases, merge tags and cache-cell keys from
    #: this declaration; empty means the experiment always runs serially.
    axes: tuple[AxisSpec, ...] = ()

    @property
    def source_module(self) -> str:
        """Dotted name of the module defining this experiment — the root
        of its module-granular code-fingerprint closure
        (:mod:`repro.harness.fingerprint`): an edit invalidates this
        experiment's cache keys iff the edited module is reachable from
        here through the static import graph.
        """
        return type(self).__module__

    def axis_values(self, spec: AxisSpec, params: dict):
        """Resolve one declared axis against a parameter set.

        Returns an ``int`` size or a value sequence.  The default reads
        ``spec.values`` / ``params[spec.param]``; experiments with
        computed axes (e.g. a sweep-cell grid derived from several
        parameters) override this for those axes.
        """
        if spec.values is not None:
            return spec.values
        if spec.param is not None:
            value = params[spec.param]
            if isinstance(value, bool):
                raise ConfigurationError(
                    f"axis {spec.name!r}: parameter {spec.param!r} is a bool"
                )
            if isinstance(value, int):
                return value
            return tuple(value)
        raise ConfigurationError(
            f"axis {spec.name!r} of {self.experiment_id!r} has no param or "
            "values; the experiment must override axis_values for it"
        )

    @abc.abstractmethod
    def params_for(self, scale: str) -> dict:
        """Resolved parameter dict for a scale."""

    @abc.abstractmethod
    def _run(self, ctx: RunContext, params: dict) -> tuple[list[dict], str, dict]:
        """Execute; return (rows, notes, extra)."""

    def resolve_params(self, scale: str, overrides: dict | None = None) -> dict:
        """Scale resolution + override validation (shared with the
        sharded executor, which needs the run count before dispatch)."""
        if scale not in _SCALES:
            raise ExperimentError(f"unknown scale {scale!r}; choose from {_SCALES}")
        params = self.params_for(scale)
        overrides = overrides or {}
        unknown = set(overrides) - set(params)
        if unknown:
            raise ExperimentError(f"unknown parameter overrides: {sorted(unknown)}")
        params.update(overrides)
        return params

    # ------------------------------------------------------------- sharding
    def shard_run(self, ctx: RunContext, params: dict, lo: int, hi: int) -> dict:
        """Evaluate runs ``[lo, hi)`` of the shard axis; return a payload.

        The shard positions the scheduler ladder itself via
        :meth:`~repro.runtime.RunContext.seek_runs`, **relative to the
        context's ladder position on entry**, so its draws land exactly
        where the serial experiment's runs ``[lo, hi)`` land — and a
        reused context keeps continuing its ladder across calls, exactly
        like the pre-sharding experiments did.  Shards merged together
        must share one anchor (the executor gives every shard a fresh
        context of the same seed).  The returned payload's leaves are
        tagged merge values (:mod:`repro.experiments.sharding`).
        """
        raise ExperimentError(
            f"experiment {self.experiment_id!r} does not support sharded "
            "execution (no shard_run implementation)"
        )

    def merge_shards(self, params: dict, parts: list[dict]) -> dict:
        """Merge shard payloads (in run order) into the serial payload."""
        return merge_payloads(parts)

    def finalize(self, ctx: RunContext, params: dict, payload: dict) -> tuple[list[dict], str, dict]:
        """Turn the merged payload into ``(rows, notes, extra)``.

        Must not consume scheduler streams (it runs once, after the merge,
        on whatever context the caller provides) — deterministic
        recomputation from data/init streams is fine.
        """
        raise ExperimentError(
            f"experiment {self.experiment_id!r} does not implement finalize"
        )

    # ------------------------------------------------------- cache cells
    def cache_cells(self, scale: str, seed: int, overrides: dict) -> list[dict] | None:
        """Decompose one invocation into independently cacheable cells.

        Returns a list of per-cell override dicts (each a complete
        invocation of this experiment whose result is one grid cell), or
        ``None`` when the invocation does not decompose.  Derived from
        the axis declaration for seed-ensemble experiments
        (:meth:`~repro.experiments.axes.SweepPlan.cache_cells`); the
        default is monolithic.
        """
        return None

    def combine_cells(
        self, scale: str, params: dict, seed: int, results: list[ExperimentResult]
    ) -> ExperimentResult:
        """Reassemble per-cell results (in :meth:`cache_cells` order)
        into the full-grid result, bit-identical to a monolithic run."""
        raise ExperimentError(
            f"experiment {self.experiment_id!r} does not implement combine_cells"
        )

    def run(self, *, scale: str = "default", ctx: RunContext | None = None, **overrides) -> ExperimentResult:
        """Run the experiment.

        Parameters
        ----------
        scale:
            ``"default"`` or ``"paper"``.
        ctx:
            Run context; a fresh seed-0 context when omitted, so results
            are reproducible by default.
        overrides:
            Parameter overrides applied after scale resolution.
        """
        params = self.resolve_params(scale, overrides)
        ctx = ctx or RunContext(seed=0)
        start = time.perf_counter()
        rows, notes, extra = self._run(ctx, params)
        elapsed = time.perf_counter() - start
        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            scale=scale,
            params=params,
            rows=rows,
            notes=notes,
            elapsed_s=elapsed,
            extra=extra,
            seed=ctx.seed,
        )


class ShardableExperiment(Experiment):
    """Experiment whose serial path *is* the one-shard sharded path.

    Subclasses implement :meth:`shard_run` and :meth:`finalize` (instead
    of ``_run``) and declare one shardable axis in :attr:`axes`
    (:class:`~repro.experiments.axes.AxisSpec`).  Declaring it states
    that :meth:`shard_run` over any partition of the axis merges (via the
    :mod:`~repro.experiments.sharding` protocol) into the bit-exact
    serial payload.  ``_run`` evaluates the full window ``[0, R)`` as a
    single shard and merges it through the same protocol the parallel
    executor uses — so serial and sharded execution are the same code on
    the same bits, and bit-exact shard merging reduces to the run-offset
    stream contract (:mod:`repro.gpusim.scheduler`).
    """

    def shard_total(self, params: dict) -> int:
        """Size of the shard axis for one parameter set, from the planner
        (which also validates the declaration: a multi-shardable product
        or a negative axis size is a named error there)."""
        axis = plan_sweep(self, params).shard_axis
        if axis is None:
            raise ExperimentError(
                f"{type(self).__name__} declares no shardable axis"
            )
        return axis.size

    def _run(self, ctx: RunContext, params: dict) -> tuple[list[dict], str, dict]:
        total = self.shard_total(params)
        payload = self.merge_shards(params, [self.shard_run(ctx, params, 0, total)])
        return self.finalize(ctx, params, payload)


_REGISTRY: dict[str, Experiment] = {}


def register(exp: Experiment) -> Experiment:
    """Add an experiment instance to the registry (import-time)."""
    if exp.experiment_id in _REGISTRY:
        raise ExperimentError(f"experiment {exp.experiment_id!r} already registered")
    _REGISTRY[exp.experiment_id] = exp
    return exp


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (e.g. ``"table4"``, ``"fig2"``)."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def list_experiments() -> list[str]:
    """All registered experiment ids, sorted."""
    return sorted(_REGISTRY)
