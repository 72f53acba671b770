"""Figure 1 — probability density of Vs for SPA sums (normal vs uniform).

The paper: 100 arrays of 1M FP64, 10 000 SPA runs each, Vs against SPTR;
the PDFs converge to normal distributions (KL criterion) whose parameters
depend on the input distribution and GPU family.  We regenerate the
histogram series and the normality verdicts.
"""

from __future__ import annotations

import numpy as np

from ..metrics.distribution import estimate_pdf, normality_report
from ..runtime import RunContext, RunStreams
from .axes import AxisSpec, plan_sweep
from .base import ShardableExperiment, register
from .sharding import RunConcat
from ._sumdist import sample_array, spa_vs_samples_arrays

__all__ = ["Fig1SpaPdf"]


class Fig1SpaPdf(ShardableExperiment):
    """Regenerates Fig 1 (SPA Vs PDFs on the V100 model).

    Axis declaration: (distribution x array x run) in ladder-nesting
    order — the serial ladder is one block of ``n_runs`` scheduler
    streams per (distribution, array) coordinate, row-major, exactly
    the layout :meth:`~repro.experiments.axes.SweepPlan.run_block_base`
    derives.  A shard pre-draws its run window of every coordinate's
    block (``seek`` + ``scheduler``) and hands the explicit streams to
    the batched pass, so its ``(A, r)`` Vs slab is bit-identical to
    columns ``[lo, hi)`` of the serial ``(A, R)`` matrix.
    """

    experiment_id = "fig1"
    title = "Fig 1: PDF of Vs for SPA sums, normal and uniform inputs (V100)"
    axes = (
        AxisSpec("distribution", "config", values=("uniform", "normal")),
        AxisSpec("array", "array", param="n_arrays"),
        AxisSpec("run", "run", param="n_runs", shardable=True),
    )

    def params_for(self, scale: str) -> dict:
        if scale == "paper":
            return {
                "n_elements": 1_000_000, "n_arrays": 100, "n_runs": 10_000,
                "device": "v100", "threads_per_block": 64, "n_blocks": 7813,
                "bins": 101,
            }
        return {
            "n_elements": 100_000, "n_arrays": 4, "n_runs": 400,
            "device": "v100", "threads_per_block": 64, "n_blocks": None,
            "bins": 21,
        }

    def shard_run(self, ctx: RunContext, params: dict, lo: int, hi: int) -> dict:
        plan = plan_sweep(self, params)
        n_arrays, r = params["n_arrays"], hi - lo
        payload: dict = {}
        # Stream-block arithmetic comes from the axis declaration,
        # anchored at the context's ladder position on entry (reused
        # contexts keep continuing).
        base = ctx.peek_run_counter()
        for stream, (d, dist) in zip(
            (21, 22), enumerate(plan.axis("distribution").values)
        ):
            # NB: a fixed stream id per distribution — hash() would be
            # process-randomised and break replayability.
            data_rng = ctx.data(stream=stream)
            xs = np.stack([
                sample_array(data_rng, params["n_elements"], dist)
                for _ in range(n_arrays)
            ])
            # One (arrays, runs, n) pass on the batched engine — the
            # orders are drawn array-major in run order, bit-identical to
            # the per-array loop this replaces; pre-draw each block's
            # [lo, hi) window explicitly.
            windows = []
            for a in range(n_arrays):
                ctx.seek_runs(plan.run_block_base(base, distribution=d, array=a) + lo)
                windows.append(ctx.schedulers(r))
            rngs = RunStreams.concat(windows)
            vs_mat = spa_vs_samples_arrays(
                xs, r, ctx,
                device=params["device"],
                threads_per_block=params["threads_per_block"],
                n_blocks=params["n_blocks"],
                rngs=rngs,
            )
            payload[dist] = RunConcat(vs_mat, axis=plan.merge_axis("array", "run"))
        ctx.seek_runs(base + plan.ladder_span())
        return payload

    def finalize(self, ctx: RunContext, params: dict, payload: dict):
        rows: list[dict] = []
        extra: dict = {}
        for dist in ("uniform", "normal"):
            vs_mat = payload[dist]
            reports = []
            for a in range(params["n_arrays"]):
                # Normality is assessed per array, matching the paper's "a
                # normal whose mean and standard deviation depend on x_i":
                # pooling arrays would mix different (mu, sigma) and fake a
                # heavy tail.  The KL threshold is bias-corrected for the
                # histogram estimator (E[KL] ~ (bins-1)/(2N) for a true
                # normal sample).
                thresh = 0.08 + (params["bins"] - 1) / params["n_runs"]
                reports.append(
                    normality_report(vs_mat[a], bins=params["bins"], kl_threshold=thresh)
                )
            vs = vs_mat.reshape(-1)
            centers, density = estimate_pdf(vs, bins=4 * params["bins"])
            extra[f"pdf_{dist}"] = {
                "centers_x1e16": (centers * 1e16).tolist(),
                "density": density.tolist(),
            }
            kls = np.array([r.kl_normal for r in reports])
            rows.append(
                {
                    "distribution": dist,
                    "n_samples": int(vs.size),
                    "vs_mean_x1e16": float(np.mean([r.mean for r in reports])) * 1e16,
                    "vs_std_x1e16": float(np.mean([r.std for r in reports])) * 1e16,
                    "median_kl_to_normal": float(np.median(kls)),
                    "frac_arrays_normal_by_kl": float(np.mean([r.is_normal_kl for r in reports])),
                }
            )
        notes = (
            "Paper shape: per-array Vs PDFs approximately normal (low KL); "
            "the fitted (mean, std) depend on the input distribution. "
            "Compare with fig2 where AO is non-normal."
        )
        return rows, notes, extra


register(Fig1SpaPdf())
