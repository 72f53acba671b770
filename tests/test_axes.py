"""Axis-algebra suite: the planner's derivations equal the hand-wired paths.

The declarative sweep core (:mod:`repro.experiments.axes`) is the one
sharding path: every shardable experiment declares its axes, and these
tests pin, per experiment, that the derived quantities are *equal* to
the arithmetic they replaced:

* shard windows == ``plan_shards`` over the run-count parameter;
* ``run_block_base`` == the inlined ladder arithmetic;
* serial ladder consumption == ``ladder_span`` (uniform-block layout);
* seed-ensemble cache cells == hand-built per-cell override/key sets,
  and the cell-combined grid == the monolithic grid, bit for bit;
* multi-shardable declarations and negative shard-axis sizes are
  rejected by name.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import get_experiment, list_experiments
from repro.experiments.axes import AxisSpec, plan_sweep
from repro.experiments.base import ShardableExperiment
from repro.experiments.sharding import plan_shards
from repro.harness.jobs import JobRunner, JobSpec
from repro.harness.parallel import ShardedExecutor
from repro.harness.results import ResultCache, cache_key
from repro.runtime import RunContext

#: Declaring experiments and the run-count parameter their shard axis
#: windows.
DECLARED = [
    ("fig1", "n_runs"),
    ("fig2", "n_runs"),
    ("figS1", "n_runs"),
    ("fig3", "n_runs"),
    ("fig4", "n_runs"),
    ("fig5", "n_runs"),
    ("maxvs", "n_runs"),
    ("table5", "n_runs"),
    ("cgdiv", "n_runs"),
    ("warpsweep", "n_runs"),
    ("collsweep", "n_runs"),
    ("seedens", "seeds"),
    ("table3", "n_trials"),
    ("table7", "n_models"),
    ("table8", "check_runs"),
]

#: Every registered experiment whose serial path is the one-shard path.
SHARDABLE = [
    eid for eid in list_experiments()
    if isinstance(get_experiment(eid), ShardableExperiment)
]


def _int_shard_param(eid: str) -> str | None:
    """The parameter behind ``eid``'s shard axis when it is an int size
    (``n_runs``-style), else ``None`` (value-enumerated, e.g. seeds)."""
    exp = get_experiment(eid)
    axis = plan_sweep(exp, exp.params_for("default")).shard_axis
    return axis.spec.param if axis.values is None else None


INT_SHARD_AXES = [(eid, p) for eid in SHARDABLE if (p := _int_shard_param(eid))]


@pytest.mark.parametrize("eid,param", DECLARED, ids=[c[0] for c in DECLARED])
class TestPlannerEqualsHandWired:
    def test_shard_windows_match_legacy_plan(self, eid, param):
        exp = get_experiment(eid)
        params = exp.params_for("default")
        plan = plan_sweep(exp, params)
        value = params[param]
        total = value if isinstance(value, int) else len(value)
        assert plan.shard_axis is not None
        assert plan.shard_axis.size == total
        assert exp.shard_total(params) == total
        for n in (1, 2, 3, 7):
            assert plan.shard_windows(n) == plan_shards(
                total, n, min_per_shard=plan.shard_axis.spec.min_per_shard
            )

    def test_shard_axis_declares_param(self, eid, param):
        exp = get_experiment(eid)
        shardable = [s for s in exp.axes if s.shardable]
        assert len(shardable) == 1
        assert shardable[0].param == param


@pytest.mark.parametrize("eid", SHARDABLE)
def test_every_shardable_experiment_resolves_a_shard_axis(eid):
    exp = get_experiment(eid)
    params = exp.params_for("default")
    axis = plan_sweep(exp, params).shard_axis
    assert axis is not None
    assert exp.shard_total(params) == axis.size


@pytest.mark.parametrize("eid,param", INT_SHARD_AXES, ids=[c[0] for c in INT_SHARD_AXES])
def test_negative_shard_axis_size_is_a_named_error(eid, param):
    with pytest.raises(ConfigurationError, match="size must be >= 0, got -1"):
        get_experiment(eid).run(**{param: -1})


class TestRunBlockBase:
    def test_fig1_blocks(self):
        exp = get_experiment("fig1")
        params = exp.params_for("default")
        plan = plan_sweep(exp, params)
        A, R = params["n_arrays"], params["n_runs"]
        for d in range(2):
            for a in range(A):
                assert plan.run_block_base(7, distribution=d, array=a) == \
                    7 + (d * A + a) * R

    def test_fig2_blocks(self):
        exp = get_experiment("fig2")
        params = exp.params_for("default")
        plan = plan_sweep(exp, params)
        A, R = params["n_arrays"], params["n_runs"]
        for a in range(A):
            for i in range(2):
                assert plan.run_block_base(0, array=a, impl=i) == (a * 2 + i) * R

    def test_maxvs_blocks(self):
        exp = get_experiment("maxvs")
        params = exp.params_for("default")
        plan = plan_sweep(exp, params)
        S, A, R = len(params["sizes"]), params["n_arrays"], params["n_runs"]
        for d in range(2):
            for s in range(S):
                for a in range(A):
                    assert plan.run_block_base(3, distribution=d, size=s, array=a) \
                        == 3 + ((d * S + s) * A + a) * R

    def test_table7_blocks(self):
        exp = get_experiment("table7")
        params = exp.params_for("default")
        plan = plan_sweep(exp, params)
        n = params["n_models"]
        assert [plan.run_block_base(5, phase=k) for k in range(4)] == [
            5, 5 + n, 5 + 2 * n, 5 + 3 * n,
        ]

    def test_cgdiv_blocks(self):
        exp = get_experiment("cgdiv")
        params = exp.params_for("default")
        plan = plan_sweep(exp, params)
        assert plan.run_block_base(0, phase=0) == 0
        assert plan.run_block_base(0, phase=1) == params["n_runs"]

    def test_bad_coordinates_rejected(self):
        exp = get_experiment("fig1")
        plan = plan_sweep(exp, exp.params_for("default"))
        with pytest.raises(ConfigurationError, match="outer ladder axes"):
            plan.run_block_base(0, distribution=0)
        with pytest.raises(ConfigurationError, match="outside"):
            plan.run_block_base(0, distribution=5, array=0)


class TestLadderConsumption:
    #: Uniform-block experiments whose shard_run advances the ladder by
    #: exactly the declared span (anchored device axes excluded).
    CASES = [
        ("fig1", {"n_elements": 1_000, "n_arrays": 2, "n_runs": 5, "bins": 5}),
        ("fig2", {"n_elements": 1_920, "spa_n_elements": 2_560, "n_arrays": 2,
                  "n_runs": 5, "bins": 5}),
        ("figS1", {"devices": ("v100", "lpu"), "n_elements": 1_000,
                   "n_arrays": 2, "n_runs": 5, "bins": 5}),
        ("maxvs", {"sizes": (1_000, 2_000), "n_arrays": 2, "n_runs": 5}),
        ("warpsweep", {"n_elements": 256, "n_arrays": 2, "n_runs": 5}),
        ("table3", {"n_elements": 1_000, "n_trials": 5, "num_threads": 4}),
        ("table7", {"num_nodes": 40, "num_edges": 80, "num_features": 8,
                    "hidden": 4, "epochs": 2, "n_models": 5}),
        ("table8", {"check_nodes": 16, "check_runs": 5}),
    ]

    @pytest.mark.parametrize("eid,tiny", CASES, ids=[c[0] for c in CASES])
    def test_serial_shard_consumes_ladder_span(self, eid, tiny):
        exp = get_experiment(eid)
        params = exp.resolve_params("default", tiny)
        plan = plan_sweep(exp, params)
        ctx = RunContext(seed=0)
        base = ctx.peek_run_counter()
        exp.shard_run(ctx, params, 0, plan.shard_axis.size)
        assert ctx.peek_run_counter() == base + plan.ladder_span()

    def test_seedens_is_ladder_independent(self):
        # Members own child contexts; the master ladder must not move.
        exp = get_experiment("seedens")
        params = exp.resolve_params("default", {
            "seeds": (0, 1), "devices": ("v100",), "n_elements": 500,
            "n_arrays": 2, "n_runs": 4,
        })
        ctx = RunContext(seed=0)
        first = exp.shard_run(ctx, params, 0, 2)
        assert ctx.peek_run_counter() == 0
        assert exp.shard_run(ctx, params, 0, 2) == first


class TestMultiShardableRejection:
    class _TwoShardable(ShardableExperiment):
        experiment_id = "twoshard"
        title = "two shardable axes"
        axes = (
            AxisSpec("a", "config", param="n_a", shardable=True),
            AxisSpec("run", "run", param="n_runs", shardable=True),
        )

        def params_for(self, scale):
            return {"n_a": 4, "n_runs": 8}

    def test_plan_sweep_rejects_by_name(self):
        exp = self._TwoShardable()
        with pytest.raises(ConfigurationError, match="2 shardable axes.*exactly one"):
            plan_sweep(exp, exp.params_for("default"))

    def test_executor_rejects_declared_multi(self):
        exp = self._TwoShardable()
        with pytest.raises(ConfigurationError, match="shardable axes"):
            ShardedExecutor(workers=2).plan(exp, exp.params_for("default"))

    def test_shard_total_rejects_declared_multi(self):
        exp = self._TwoShardable()
        with pytest.raises(ConfigurationError, match="2 shardable axes"):
            exp.shard_total(exp.params_for("default"))


class TestSeedEnsembleCells:
    OVERRIDES = {
        "seeds": (0, 1), "devices": ("v100", "lpu"), "n_elements": 1_000,
        "n_arrays": 2, "n_runs": 6,
    }

    def test_cells_are_seed_major_device_minor(self):
        exp = get_experiment("seedens")
        cells = exp.cache_cells("default", 0, self.OVERRIDES)
        assert [(c["seeds"], c["devices"]) for c in cells] == [
            ((0,), ("v100",)), ((0,), ("lpu",)),
            ((1,), ("v100",)), ((1,), ("lpu",)),
        ]
        for cell in cells:
            rest = {k: v for k, v in cell.items() if k not in ("seeds", "devices")}
            assert rest == {k: v for k, v in self.OVERRIDES.items()
                            if k not in ("seeds", "devices")}

    def test_cell_keys_match_hand_computed(self):
        exp = get_experiment("seedens")
        cells = exp.cache_cells("default", 0, self.OVERRIDES)
        base = {k: v for k, v in self.OVERRIDES.items()
                if k not in ("seeds", "devices")}
        for cell in cells:
            hand = cache_key("seedens", "default", 0, {
                **base, "seeds": cell["seeds"], "devices": cell["devices"],
            })
            assert cache_key("seedens", "default", 0, cell) == hand

    def test_monolithic_experiments_do_not_decompose(self):
        assert get_experiment("fig1").cache_cells("default", 0, {}) is None
        assert get_experiment("figS1").cache_cells("default", 0, {}) is None
        # A single-cell grid decomposes to nothing as well.
        single = dict(self.OVERRIDES, seeds=(0,), devices=("v100",))
        assert get_experiment("seedens").cache_cells("default", 0, single) is None

    def test_cli_cell_caching_combines_bit_exact(self, tmp_path):
        exp = get_experiment("seedens")
        spec = JobSpec("seedens", scale="default", seed=0,
                       overrides=dict(self.OVERRIDES))
        cache = ResultCache(tmp_path)
        with ShardedExecutor(workers=1) as ex:
            outcome = JobRunner(ex, cache).run(spec)
        assert not outcome.cached
        assert outcome.n_cells == 4 and outcome.n_hits == 0
        for cell in exp.cache_cells("default", 0, self.OVERRIDES):
            assert cache.lookup(cache_key("seedens", "default", 0, cell)) is not None
        result = outcome.result
        mono = exp.run(scale="default", **self.OVERRIDES)
        assert result.rows == mono.rows
        assert result.extra == mono.extra
        assert result.notes == mono.notes
        with ShardedExecutor(workers=1) as ex:
            again = JobRunner(ex, cache).run(spec)
        assert again.cached and again.n_hits == again.n_cells == 4
        assert again.result.rows == result.rows
        assert again.result.extra == result.extra
