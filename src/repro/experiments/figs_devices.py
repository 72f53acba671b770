"""Supplementary figure — SPA Vs statistics across GPU families.

The paper's Fig 1 shows the V100; its artifact repository carries the
MI250X and GH200 variants and the text states "the means and standard
deviations of Vs are different between the GPU types, while the shapes are
similar".  This experiment regenerates that comparison — same arrays, same
kernel parameters, one device model per row — and extends it with the
A100 and MI300A profiles plus the statically scheduled LPU model, whose
row shows **zero** run-to-run variability (the paper's hardware route to
reproducibility).

Execution model: the whole ``(device, array, run)`` grid folds through
the batched run-axis engine in one pass per device
(:func:`~repro.experiments._sumdist.spa_vs_samples_devices`).  Scheduler
randomness is **anchored per (device, array) cell**
(:meth:`repro.runtime.RunContext.device_stream`; cell contract catalogued
in :mod:`repro.gpusim.scheduler`), so any device's rows reproduce
bit-identically no matter which other devices are swept — a
``--devices gh200`` override replays exactly the gh200 row of the full
sweep.  The run axis shards (its ``AxisSpec`` is ``shardable``): a
shard evaluates a run window of every cell and windows concatenate
bit-exactly into the serial rows.
"""

from __future__ import annotations

import numpy as np

from ..lpu import device as _lpu_device  # noqa: F401  (registers "lpu")
from ..metrics.distribution import normality_report
from ..runtime import RunContext
from .axes import AxisSpec, plan_sweep
from .base import ShardableExperiment, register
from .sharding import RunConcat
from ._sumdist import sample_array, spa_vs_samples_devices

__all__ = ["FigSDevices"]

#: Default sweep: the paper's three measured families, the two registry
#: extensions, and the deterministic LPU row.
DEFAULT_DEVICES = ("v100", "gh200", "mi250x", "a100", "mi300a", "lpu")


class FigSDevices(ShardableExperiment):
    """SPA Vs moments per GPU family (supplementary to Fig 1).

    Axis declaration: (device x array x run) with the device axis
    **anchored** — it draws from per-(device, array) device-plane streams
    and consumes no ladder, so the declared ladder span is
    ``n_arrays * n_runs`` and any device subset replays bit-identically.
    """

    experiment_id = "figS1"
    title = "Supplementary: SPA Vs statistics across GPU families"
    axes = (
        AxisSpec("device", "device", param="devices", anchored=True),
        AxisSpec("array", "array", param="n_arrays"),
        AxisSpec("run", "run", param="n_runs", shardable=True),
    )

    def params_for(self, scale: str) -> dict:
        if scale == "paper":
            return {
                "devices": DEFAULT_DEVICES,
                "n_elements": 1_000_000, "n_arrays": 20, "n_runs": 2_000,
                "threads_per_block": 64, "bins": 41,
            }
        return {
            "devices": DEFAULT_DEVICES,
            "n_elements": 100_000, "n_arrays": 3, "n_runs": 300,
            "threads_per_block": 64, "bins": 21,
        }

    def shard_run(self, ctx: RunContext, params: dict, lo: int, hi: int) -> dict:
        plan = plan_sweep(self, params)
        devices = plan.axis("device").values
        n_arrays, n_runs = params["n_arrays"], params["n_runs"]
        # Anchor the device planes at the context's ladder position on
        # entry (reused contexts keep drawing fresh planes), then advance
        # the ladder by the declared span exactly once (the anchored
        # device axis consumes no ladder streams).
        base = ctx.peek_run_counter()
        data_rng = ctx.data(stream=0xF16D)
        xs = np.stack([
            sample_array(data_rng, params["n_elements"], "uniform")
            for _ in range(n_arrays)
        ])
        vs = spa_vs_samples_devices(
            xs, n_runs, ctx,
            devices=devices,
            threads_per_block=params["threads_per_block"],
            run_lo=lo, run_hi=hi, anchor=base,
        )
        ctx.seek_runs(base + plan.ladder_span())
        vs_axis = plan.merge_axis("array", "run")
        return {"devices": {d: RunConcat(vs[d], axis=vs_axis) for d in devices}}

    def finalize(self, ctx: RunContext, params: dict, payload: dict):
        from ..gpusim.device import get_device

        rows: list[dict] = []
        thresh = 0.08 + (params["bins"] - 1) / params["n_runs"]
        for device in tuple(params["devices"]):
            vs_mat = payload["devices"][device]
            deterministic = get_device(device).deterministic
            reports = [
                normality_report(vs_mat[a], bins=params["bins"], kl_threshold=thresh)
                for a in range(params["n_arrays"])
            ]
            rows.append(
                {
                    "device": device,
                    "deterministic": bool(deterministic),
                    "vs_mean_x1e16": float(np.mean([r.mean for r in reports])) * 1e16,
                    "vs_std_x1e16": float(np.mean([r.std for r in reports])) * 1e16,
                    "median_kl_to_normal": float(np.median([r.kl_normal for r in reports])),
                    "frac_arrays_normal_by_kl": float(np.mean([r.is_normal_kl for r in reports])),
                    "distinct_sums_per_array": float(
                        np.mean([np.unique(vs_mat[a]).size for a in range(params["n_arrays"])])
                    ),
                }
            )
        nd_stds = [r["vs_std_x1e16"] for r in rows if not r["deterministic"]]
        spread = (
            f"(std spread {min(nd_stds):.2f}..{max(nd_stds):.2f} x1e-16) "
            if nd_stds
            else "(no FPNA device in this sweep) "
        )
        notes = (
            "Shape checks: every FPNA family's per-array PDFs stay normal "
            "by the KL criterion while the moments differ across families "
            f"{spread}- the paper's cross-GPU observation; statically "
            "scheduled rows (deterministic=True) show exactly zero "
            "variability and a single distinct sum per array."
        )
        return rows, notes, {}


register(FigSDevices())
