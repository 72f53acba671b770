"""Declarative axis algebra: experiments declare their sweep product once.

The run axis (batched engine), the config axis (pooled sweep grids in
``_opruns``), the device axis (anchored device-plane streams) and the
shard axis (windows + merge protocol) are derived in one place: an
experiment declares its axis product (run x device x array x config x
seed) as a tuple of :class:`AxisSpec`, and :func:`plan_sweep` resolves
it against the experiment's parameters into a :class:`SweepPlan` from
which everything else is derived:

* the batching **shape** of the grid (:attr:`SweepPlan.shape`);
* the **shard windows** the parallel executor dispatches
  (:meth:`SweepPlan.shard_windows`) and the shard-axis size
  :meth:`~repro.experiments.base.ShardableExperiment.shard_total` reads;
* the **stream-ladder arithmetic** of the serial layout
  (:meth:`SweepPlan.run_block_base` / :meth:`SweepPlan.ladder_span`):
  declared order *is* ladder nesting order, outer axes row-major, one
  contiguous block of run-axis streams per outer coordinate;
* the **device-plane anchoring** exclusion — ``anchored`` device axes
  draw from :meth:`~repro.runtime.RunContext.device_stream` planes and
  consume no ladder streams, so they drop out of the span;
* the **merge tag axis** for shard concatenation
  (:meth:`SweepPlan.merge_axis`);
* the per-cell **result-cache decomposition** of seed-ensemble grids
  (:meth:`SweepPlan.cache_cells`): every (seed value x device value)
  cell is an independently cacheable invocation whose overrides pin the
  axes to one value each.

The ladder helpers assume the *uniform-block* layout (every outer
coordinate consumes exactly ``run_axis.size`` streams).  Experiments with
irregular blocks (``table5``'s scatter_reduce configs consume
``n_runs + 1`` streams; the ``fig3``-``fig5`` sweep kernel manages its
own ladder) still declare their axes — the declaration drives shard
windows, merge tags and validation — and keep their block walk local.

At most **one** axis may be shardable; :func:`plan_sweep` rejects
multi-shardable declarations with a named
:class:`~repro.errors.ConfigurationError` instead of silently sharding
the first.

``tests/test_axes.py`` pins, per declaring experiment, that the derived
windows, stream bases and cache keys equal the hand-wired arithmetic
they replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from .sharding import plan_shards

__all__ = [
    "AXIS_KINDS",
    "AxisSpec",
    "ResolvedAxis",
    "SweepPlan",
    "plan_sweep",
]

#: Legal axis kinds, outermost-to-innermost by convention.
#:
#: ``config``  grid/hyperparameter dimension (distribution, ratio, cell);
#: ``array``   independent input arrays sharing one parameter set;
#: ``device``  simulated device models (``anchored=True`` for plane draws);
#: ``seed``    ensemble members, each an independent master seed;
#: ``run``     simulated re-executions (the batched engine's axis).
AXIS_KINDS = ("config", "array", "device", "seed", "run")


@dataclass(frozen=True)
class AxisSpec:
    """One axis of an experiment's declared sweep product.

    Attributes
    ----------
    name:
        Unique axis name within the experiment (``"run"``, ``"device"``,
        ``"distribution"`` ...) — the key :meth:`SweepPlan.run_block_base`
        coordinates use.
    kind:
        One of :data:`AXIS_KINDS`.
    param:
        Resolved-parameter key backing the axis: an ``int`` value is the
        axis size (``"n_runs"``), a sequence value enumerates the axis
        (``"devices"``, ``"seeds"``).  ``None`` for axes whose values are
        static (``values``) or computed
        (:meth:`~repro.experiments.base.Experiment.axis_values`).
    values:
        Static value tuple for axes not backed by a parameter.
    shardable:
        Whether the parallel executor may window this axis.  At most one
        axis of a declaration may be shardable.
    min_per_shard:
        Smallest window a shard may receive (e.g. 2 when a statistic
        needs two runs per window — usually 1, because cross-run
        statistics are computed after the merge).
    anchored:
        Device axes only: the axis draws from anchored device-plane
        streams (:meth:`repro.runtime.RunContext.device_stream`) and
        consumes **no** scheduler-ladder streams, so it is excluded from
        :meth:`SweepPlan.ladder_span`.
    """

    name: str
    kind: str
    param: str | None = None
    values: tuple | None = None
    shardable: bool = False
    min_per_shard: int = 1
    anchored: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"axis name must be a non-empty str, got {self.name!r}")
        if self.kind not in AXIS_KINDS:
            raise ConfigurationError(
                f"axis {self.name!r}: unknown kind {self.kind!r}; choose from {AXIS_KINDS}"
            )
        if self.param is not None and self.values is not None:
            raise ConfigurationError(
                f"axis {self.name!r}: declare param or values, not both"
            )
        if self.min_per_shard < 1:
            raise ConfigurationError(
                f"axis {self.name!r}: min_per_shard must be >= 1, got {self.min_per_shard}"
            )
        if self.anchored and self.kind != "device":
            raise ConfigurationError(
                f"axis {self.name!r}: anchored stream planes are a device-axis "
                f"contract, not {self.kind!r}"
            )


@dataclass(frozen=True)
class ResolvedAxis:
    """An :class:`AxisSpec` resolved against one parameter set."""

    spec: AxisSpec
    size: int
    values: tuple | None = None

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass(frozen=True)
class SweepPlan:
    """The resolved axis product of one experiment invocation.

    Built by :func:`plan_sweep`; every derivation below is a pure
    function of the declaration plus the resolved parameters, so the
    serial path, the sharded executor and the result cache all consult
    the same object instead of re-deriving the layout by hand.
    """

    experiment_id: str
    axes: tuple[ResolvedAxis, ...]

    # ------------------------------------------------------------ structure
    @property
    def shape(self) -> tuple[int, ...]:
        """Grid shape in declared (ladder-nesting) order."""
        return tuple(a.size for a in self.axes)

    def axis(self, name: str) -> ResolvedAxis:
        """Look an axis up by name."""
        for a in self.axes:
            if a.name == name:
                return a
        raise ConfigurationError(
            f"{self.experiment_id}: no declared axis {name!r}; "
            f"axes: {[a.name for a in self.axes]}"
        )

    def _first(self, predicate) -> ResolvedAxis | None:
        for a in self.axes:
            if predicate(a):
                return a
        return None

    @property
    def run_axis(self) -> ResolvedAxis | None:
        return self._first(lambda a: a.spec.kind == "run")

    @property
    def seed_axis(self) -> ResolvedAxis | None:
        return self._first(lambda a: a.spec.kind == "seed")

    @property
    def device_axis(self) -> ResolvedAxis | None:
        return self._first(lambda a: a.spec.kind == "device")

    @property
    def shard_axis(self) -> ResolvedAxis | None:
        """The unique shardable axis (validated by :func:`plan_sweep`)."""
        return self._first(lambda a: a.spec.shardable)

    # ------------------------------------------------------------- sharding
    def shard_windows(self, n_shards: int) -> list[tuple[int, int]]:
        """Balanced ``(lo, hi)`` windows of the shardable axis."""
        axis = self.shard_axis
        if axis is None:
            raise ConfigurationError(
                f"{self.experiment_id}: no shardable axis declared"
            )
        return plan_shards(
            axis.size, n_shards, min_per_shard=axis.spec.min_per_shard
        )

    # -------------------------------------------------------------- ladder
    @property
    def ladder_axes(self) -> tuple[ResolvedAxis, ...]:
        """Axes consuming scheduler-ladder streams, in nesting order.

        Anchored device axes draw from device planes and seed axes own
        whole child contexts — neither consumes the caller's ladder.
        """
        return tuple(
            a for a in self.axes
            if not a.spec.anchored and a.spec.kind != "seed"
        )

    def ladder_span(self) -> int:
        """Total scheduler streams the serial uniform-block layout
        consumes: the product of the ladder axes' sizes."""
        return math.prod(a.size for a in self.ladder_axes)

    def run_block_base(self, anchor: int, **coords: int) -> int:
        """Ladder position of one outer coordinate's run block.

        The uniform-block serial layout: ladder axes nest in declared
        order with the run axis innermost, every outer coordinate owning
        one contiguous block of ``run_axis.size`` streams.  ``coords``
        names every non-run ladder axis; the base of that cell's block is
        ``anchor + row_major_flat(coords) * run_axis.size`` — exactly the
        hand arithmetic the migrated experiments used to inline.
        """
        ladder = self.ladder_axes
        if not ladder or ladder[-1].spec.kind != "run":
            raise ConfigurationError(
                f"{self.experiment_id}: run_block_base needs the run axis "
                "innermost among the ladder axes"
            )
        outer, run = ladder[:-1], ladder[-1]
        expected = {a.name for a in outer}
        if set(coords) != expected:
            raise ConfigurationError(
                f"{self.experiment_id}: run_block_base coordinates "
                f"{sorted(coords)} != declared outer ladder axes {sorted(expected)}"
            )
        flat = 0
        for a in outer:
            idx = int(coords[a.name])
            if not 0 <= idx < a.size:
                raise ConfigurationError(
                    f"{self.experiment_id}: axis {a.name!r} index {idx} "
                    f"outside [0, {a.size})"
                )
            flat = flat * a.size + idx
        return int(anchor) + flat * run.size

    # --------------------------------------------------------------- merge
    def merge_axis(self, *dims: str) -> int:
        """Position of the shard axis among an array's dimension names —
        the ``RunConcat`` axis a shard payload must be tagged with."""
        axis = self.shard_axis
        if axis is None:
            raise ConfigurationError(
                f"{self.experiment_id}: no shardable axis to merge along"
            )
        try:
            return dims.index(axis.name)
        except ValueError:
            raise ConfigurationError(
                f"{self.experiment_id}: shard axis {axis.name!r} not among "
                f"payload dimensions {dims}"
            ) from None

    # --------------------------------------------------------------- cache
    def cache_cells(self, base_overrides: dict | None = None) -> list[dict] | None:
        """Per-cell override sets decomposing a seed-ensemble grid.

        A declaration with a parameter-backed, value-enumerated seed axis
        decomposes into (seed value x device value) cells — each cell an
        independent invocation whose overrides pin both axes to a single
        value, and therefore an independent result-cache key.  Cells are
        seed-major, device-minor (the grid's row order).  Returns ``None``
        when the declaration has no seed axis to decompose (or a single
        cell, where decomposition buys nothing).

        Both the CLI ``run`` path and the sweep farm's grid planner
        (:func:`repro.harness.farm.plan_grid`) expand invocations through
        this decomposition, so farm-warmed cells serve CLI cache hits key
        for key — and growing the grid recomputes only the new cells.
        """
        seed_axis = self.seed_axis
        if seed_axis is None or seed_axis.spec.param is None or seed_axis.values is None:
            return None
        base = dict(base_overrides or {})
        device_axis = self.device_axis
        if device_axis is not None and (
            device_axis.spec.param is None or device_axis.values is None
        ):
            device_axis = None
        cells: list[dict] = []
        for s in seed_axis.values:
            if device_axis is None:
                cells.append({**base, seed_axis.spec.param: (s,)})
                continue
            for d in device_axis.values:
                cells.append({
                    **base,
                    seed_axis.spec.param: (s,),
                    device_axis.spec.param: (d,),
                })
        return cells if len(cells) > 1 else None


def plan_sweep(experiment, params: dict) -> SweepPlan:
    """Resolve ``experiment.axes`` against ``params`` into a :class:`SweepPlan`.

    Validates the declaration: unique axis names, at most one shardable
    axis (a multi-shardable product raises a named
    :class:`~repro.errors.ConfigurationError` instead of silently
    windowing the first axis).
    """
    specs = tuple(getattr(experiment, "axes", ()))
    eid = getattr(experiment, "experiment_id", type(experiment).__name__)
    if not specs:
        raise ConfigurationError(f"experiment {eid!r} declares no axes")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"experiment {eid!r}: duplicate axis names {names}")
    shardable = [s.name for s in specs if s.shardable]
    if len(shardable) > 1:
        raise ConfigurationError(
            f"experiment {eid!r} declares {len(shardable)} shardable axes "
            f"{shardable}; the executor windows exactly one — mark one axis "
            "shardable and fold the rest into the cell product"
        )
    resolved = []
    for spec in specs:
        value = experiment.axis_values(spec, params)
        if isinstance(value, bool) or value is None:
            raise ConfigurationError(
                f"experiment {eid!r}: axis {spec.name!r} resolved to {value!r}"
            )
        if isinstance(value, int):
            if value < 0:
                raise ConfigurationError(
                    f"experiment {eid!r}: axis {spec.name!r} size must be "
                    f">= 0, got {value}"
                )
            resolved.append(ResolvedAxis(spec, value))
        else:
            vals = tuple(value)
            resolved.append(ResolvedAxis(spec, len(vals), vals))
    return SweepPlan(experiment_id=eid, axes=tuple(resolved))
