"""Figure 2 — PDF of Vs for AO sums: *not* normal.

Under maximal atomic contention the retirement order is nearly a pure
function of the scheduler's discrete rotation mode, so the Vs distribution
is a spiky finite mixture — visibly non-Gaussian, wider than SPA's, exactly
the paper's observation (they note the NVIDIA runtime internals are
proprietary; our model offers contention serialization as a sufficient
mechanism).
"""

from __future__ import annotations

import numpy as np

from ..metrics.distribution import estimate_pdf, normality_report
from ..runtime import RunContext, RunStreams
from .axes import AxisSpec, plan_sweep
from .base import ShardableExperiment, register
from .sharding import RunConcat
from ._sumdist import ao_vs_samples_arrays, sample_array, spa_vs_samples_arrays

__all__ = ["Fig2AoPdf"]


class Fig2AoPdf(ShardableExperiment):
    """Regenerates Fig 2 (AO Vs PDF, uniform inputs, V100 model).

    Axis declaration: (array x impl x run) in ladder-nesting order — the
    serial ladder interleaves per array, ``n_runs`` AO streams then
    ``n_runs`` SPA streams, exactly the row-major block layout
    :meth:`~repro.experiments.axes.SweepPlan.run_block_base` derives.  A
    shard pre-draws its run window of every sub-block (``seek`` +
    ``scheduler``) and hands the explicit streams to the batched passes,
    reproducing the serial ``(A, R)`` Vs matrices column-window by
    column-window, bit for bit.
    """

    experiment_id = "fig2"
    title = "Fig 2: PDF of Vs for AO sums, uniform inputs (V100)"
    axes = (
        AxisSpec("array", "array", param="n_arrays"),
        AxisSpec("impl", "config", values=("AO", "SPA")),
        AxisSpec("run", "run", param="n_runs", shardable=True),
    )

    def params_for(self, scale: str) -> dict:
        if scale == "paper":
            return {
                "n_elements": 1_000_000, "spa_n_elements": 1_000_000,
                "n_runs": 500_000 // 100, "n_arrays": 100,
                "device": "v100", "threads_per_block": 64, "bins": 101,
            }
        # The SPA contrast row runs at fig1's larger size: at 20k elements
        # SPA's Vs ladder has too few ulp quanta for a meaningful KL.
        return {
            "n_elements": 20_000, "spa_n_elements": 100_000,
            "n_runs": 400, "n_arrays": 2,
            "device": "v100", "threads_per_block": 64, "bins": 21,
        }

    def shard_run(self, ctx: RunContext, params: dict, lo: int, hi: int) -> dict:
        plan = plan_sweep(self, params)
        data_rng = ctx.data(stream=7)
        n_arrays, r = params["n_arrays"], hi - lo
        base = ctx.peek_run_counter()
        # Draw the inputs in the exact order the per-array loop consumed
        # them (per array: the AO input, then the SPA input), and each
        # sub-block's [lo, hi) stream window explicitly (block bases from
        # the axis declaration), so the batched (arrays, runs, n) passes
        # reproduce the serial bits.
        xs: dict[str, list] = {"AO": [], "SPA": []}
        run_rngs: dict[str, list] = {"AO": [], "SPA": []}
        for a in range(n_arrays):
            xs["AO"].append(sample_array(data_rng, params["n_elements"], "uniform"))
            xs["SPA"].append(sample_array(data_rng, params["spa_n_elements"], "uniform"))
            for i, name in enumerate(plan.axis("impl").values):
                ctx.seek_runs(plan.run_block_base(base, array=a, impl=i) + lo)
                run_rngs[name].append(ctx.schedulers(r))
        vs_axis = plan.merge_axis("array", "run")
        payload = {
            "AO": RunConcat(ao_vs_samples_arrays(
                np.stack(xs["AO"]), r, ctx,
                device=params["device"],
                threads_per_block=params["threads_per_block"],
                rngs=RunStreams.concat(run_rngs["AO"]),
            ), axis=vs_axis),
            "SPA": RunConcat(spa_vs_samples_arrays(
                np.stack(xs["SPA"]), r, ctx,
                device=params["device"],
                threads_per_block=params["threads_per_block"],
                rngs=RunStreams.concat(run_rngs["SPA"]),
            ), axis=vs_axis),
        }
        ctx.seek_runs(base + plan.ladder_span())
        return payload

    def finalize(self, ctx: RunContext, params: dict, payload: dict):
        n_arrays, n_runs = params["n_arrays"], params["n_runs"]
        vs_mats = {name: payload[name] for name in ("AO", "SPA")}
        per_impl: dict[str, list] = {"AO": [], "SPA": []}
        reports: dict[str, list] = {"AO": [], "SPA": []}
        for a in range(n_arrays):
            for name in ("AO", "SPA"):
                vs_a = vs_mats[name][a]
                per_impl[name].append(vs_a)
                # Same bias-corrected KL threshold as fig1.
                thresh = 0.08 + (params["bins"] - 1) / n_runs
                reports[name].append(
                    normality_report(vs_a, bins=params["bins"], kl_threshold=thresh)
                )
        vs_ao = np.concatenate(per_impl["AO"])
        centers, density = estimate_pdf(vs_ao, bins=4 * params["bins"])
        rows = []
        for name in ("AO", "SPA"):
            vs = np.concatenate(per_impl[name])
            reps = reports[name]
            kls = np.array([r.kl_normal for r in reps])
            rows.append(
                {
                    "implementation": name,
                    "n_samples": int(vs.size),
                    "vs_mean_x1e16": float(np.mean([r.mean for r in reps])) * 1e16,
                    "vs_std_x1e16": float(np.mean([r.std for r in reps])) * 1e16,
                    "median_kl_to_normal": float(np.median(kls)),
                    "frac_arrays_normal_by_kl": float(np.mean([r.is_normal_kl for r in reps])),
                    "n_distinct_sums": int(np.unique(vs).size),
                }
            )
        notes = (
            "Shape check: KL(AO) >> KL(SPA); the AO PDF is a spiky mixture "
            "over discrete scheduling modes (few distinct sums per array), "
            "invalidating the Gaussian-noise assumption, as the paper found."
        )
        extra = {"pdf_ao": {"centers_x1e16": (centers * 1e16).tolist(), "density": density.tolist()}}
        return rows, notes, extra


register(Fig2AoPdf())
