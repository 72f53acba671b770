"""Max |Vs| growth with array size — the paper's power-law fit (§III-C).

``Max |Vs|`` over many SPA runs, as a function of n, fits ``beta * n**alpha``
with ``alpha ~ 0.5`` for uniform U(0, 10) inputs and a larger exponent for
normal N(0, 1) inputs (near-cancelling sums make the relative metric
heavier-tailed) — "the range of the numbers also plays a role".

Each ``(distribution, size)`` cell runs as one batched ``(arrays, runs)``
pass on the run-axis engine (bit-identical to the per-array loop it
replaced — array-major stream consumption), and the run axis shards: the
serial ladder is one block of ``n_arrays * n_runs`` scheduler streams per
cell in sweep order, so a shard pre-draws its run window of every array's
sub-block (``seek`` + ``scheduler``) exactly like fig1.
"""

from __future__ import annotations

import numpy as np

from ..metrics.powerlaw import fit_power_law
from ..runtime import RunContext, RunStreams
from .axes import AxisSpec, plan_sweep
from .base import ShardableExperiment, register
from .sharding import RunConcat
from ._sumdist import sample_array, spa_vs_samples_arrays

__all__ = ["MaxVsPowerLaw"]


class MaxVsPowerLaw(ShardableExperiment):
    """Fits Max|Vs|(n) = beta * n^alpha for uniform and normal inputs.

    Axis declaration: (distribution x size x array x run) in
    ladder-nesting order — a four-deep uniform-block ladder whose block
    bases all come from
    :meth:`~repro.experiments.axes.SweepPlan.run_block_base`.
    """

    experiment_id = "maxvs"
    title = "Max |Vs| vs array size: power-law fit (paper SIII-C)"
    axes = (
        AxisSpec("distribution", "config", values=("uniform", "normal")),
        AxisSpec("size", "config", param="sizes"),
        AxisSpec("array", "array", param="n_arrays"),
        AxisSpec("run", "run", param="n_runs", shardable=True),
    )

    def params_for(self, scale: str) -> dict:
        if scale == "paper":
            return {
                "sizes": (1_000, 10_000, 100_000, 1_000_000),
                "n_arrays": 20, "n_runs": 1_000,
                "device": "v100", "threads_per_block": 64,
            }
        return {
            "sizes": (1_000, 4_000, 16_000, 64_000),
            "n_arrays": 4, "n_runs": 150,
            "device": "v100", "threads_per_block": 64,
        }

    def shard_run(self, ctx: RunContext, params: dict, lo: int, hi: int) -> dict:
        plan = plan_sweep(self, params)
        n_arrays, r = params["n_arrays"], hi - lo
        base = ctx.peek_run_counter()
        vs_axis = plan.merge_axis("array", "run")
        cells: dict = {}
        for d, dist in enumerate(plan.axis("distribution").values):
            data_rng = ctx.data(stream=11 + (dist == "normal"))
            per_size = []
            for s, n in enumerate(plan.axis("size").values):
                xs = np.stack([
                    sample_array(data_rng, n, dist) for _ in range(n_arrays)
                ])
                # Block bases from the declaration; pre-draw each array's
                # [lo, hi) window explicitly.
                windows = []
                for a in range(n_arrays):
                    ctx.seek_runs(
                        plan.run_block_base(base, distribution=d, size=s, array=a) + lo
                    )
                    windows.append(ctx.schedulers(r))
                rngs = RunStreams.concat(windows)
                vs_mat = spa_vs_samples_arrays(
                    xs, r, ctx,
                    device=params["device"],
                    threads_per_block=params["threads_per_block"],
                    rngs=rngs,
                )
                per_size.append({"vs": RunConcat(vs_mat, axis=vs_axis)})
            cells[dist] = per_size
        ctx.seek_runs(base + plan.ladder_span())
        return cells

    def finalize(self, ctx: RunContext, params: dict, payload: dict):
        rows: list[dict] = []
        fits: dict = {}
        for dist in ("uniform", "normal"):
            maxima = []
            for n, cell in zip(params["sizes"], payload[dist]):
                m = float(np.max(np.abs(cell["vs"])))
                maxima.append(m)
                rows.append({"distribution": dist, "size": n, "max_abs_vs": m})
            fit = fit_power_law(params["sizes"], maxima)
            fits[dist] = {"alpha": fit.alpha, "beta": fit.beta, "r_squared": fit.r_squared}
            rows.append(
                {
                    "distribution": dist,
                    "size": "FIT",
                    "max_abs_vs": f"alpha={fit.alpha:.3f}, beta={fit.beta:.3e}, R2={fit.r_squared:.3f}",
                }
            )
        notes = (
            "Shape check: alpha(uniform) ~ 0.5 (Max|Vs| proportional to sqrt(n)); "
            "alpha(normal) > alpha(uniform), as the paper reports."
        )
        return rows, notes, {"fits": fits}


register(MaxVsPowerLaw())
