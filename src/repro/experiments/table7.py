"""Table 7 — GraphSAGE variability under D/ND training x inference (§V-B).

N models are trained from identical initial weights on the Cora-like
dataset; the only divergence source is the ``index_add`` aggregation
kernel.  Four combinations are measured: deterministic/non-deterministic
training crossed with deterministic/non-deterministic inference, with the
D-training + D-inference output as the global reference (its own row is
exactly 0(0), as in the paper).

Also regenerates the section's prose results: per-epoch weight-Vermv drift
(mean and std increase with epoch) and the headline "all N models have
bitwise-unique weights after training" check.

All N runs of each combination execute in lockstep on the batched
run-axis engine (:func:`~repro.experiments._gnn.train_graphsage_runs` /
:func:`~repro.experiments._gnn.run_inference_runs`): per combination the
N trainings happen first and the N inference passes second, each run
drawing from its own scheduler stream in run order, bit-identical per run
to a scalar train-then-infer loop under the one-stream-per-run contract.
Deterministic populations (identical by construction) collapse to one
training/inference whose results are broadcast.
"""

from __future__ import annotations

import numpy as np

from ..graph.datasets import cora_like
from ..metrics.array import count_variability, ermv
from ..runtime import RunContext
from .base import AxisSpec, ShardableExperiment, plan_sweep, register
from .sharding import DigestSet, RunConcat, run_digest
from ._gnn import (
    gnn_training_cost_s,
    run_inference,
    run_inference_runs,
    train_graphsage,
    train_graphsage_runs,
)

__all__ = ["Table7GnnVariability"]


class Table7GnnVariability(ShardableExperiment):
    """Regenerates Table 7 (+ epoch-drift and uniqueness results).

    Axis declaration: (phase x model).  The model population is the
    shardable run axis; the serial stream ladder is one ``n_models``
    block per phase that draws — D/ND inference, ND/D training, ND/ND
    training, ND/ND inference (deterministic phases draw nothing) — so a
    shard seeks to its window of each block
    (:meth:`~repro.experiments.axes.SweepPlan.run_block_base`) and its
    per-model metrics merge by concatenation.
    """

    experiment_id = "table7"
    title = "Table 7: Vermv and Vc for D/ND training-inference combinations"
    axes = (
        AxisSpec("phase", "config", values=(
            "D/ND inference", "ND/D training", "ND/ND training", "ND/ND inference",
        )),
        AxisSpec("model", "run", param="n_models", shardable=True),
    )

    def params_for(self, scale: str) -> dict:
        if scale == "paper":
            return {
                "num_nodes": 2708, "num_edges": 5429, "num_features": 1433,
                "num_classes": 7, "hidden": 16, "epochs": 10, "lr": 0.01,
                "n_models": 1000,
            }
        # epochs=8: at dev scale an FPNA perturbation below a weight's
        # float32 ulp rounds away (Adam's first steps are sign-like), so
        # the paper's bitwise-uniqueness headline needs enough epochs for
        # one surviving bit flip per run to compound; 8 is seed-robust.
        return {
            "num_nodes": 220, "num_edges": 440, "num_features": 48,
            "num_classes": 7, "hidden": 8, "epochs": 8, "lr": 0.01,
            "n_models": 6,
        }

    _COMBOS = (("D", "D"), ("D", "ND"), ("ND", "D"), ("ND", "ND"))

    def _reference(self, ctx: RunContext, params: dict):
        """Dataset + deterministic reference (no scheduler draws)."""
        ds = cora_like(
            num_nodes=params["num_nodes"],
            num_edges=params["num_edges"],
            num_features=params["num_features"],
            num_classes=params["num_classes"],
            ctx=ctx,
        )
        ref_run = train_graphsage(
            ds, hidden=params["hidden"], epochs=params["epochs"],
            lr=params["lr"], deterministic=True, ctx=ctx,
        )
        ref_logits = run_inference(ref_run.model, ds, deterministic=True, ctx=ctx)
        return ds, ref_run, ref_logits

    def shard_run(self, ctx: RunContext, params: dict, lo: int, hi: int) -> dict:
        ds, ref_run, ref_logits = self._reference(ctx, params)
        plan = plan_sweep(self, params)
        r = hi - lo

        combo_stats = []
        nd_population = None
        # Block origin: the context's ladder position on entry (a reused
        # context keeps continuing its ladder, like the pre-sharding loop).
        base = ctx.peek_run_counter()
        for train_mode, infer_mode in self._COMBOS:
            if train_mode == "D":
                # The D population is one model, r times over: reuse the
                # reference training and run only the inference window.
                if infer_mode == "D":
                    logits_runs = np.broadcast_to(
                        ref_logits, (r,) + ref_logits.shape
                    )
                else:
                    ctx.seek_runs(plan.run_block_base(base, phase=0) + lo)
                    logits_runs = run_inference_runs(
                        ref_run.model, ds, deterministic=False, ctx=ctx,
                        n_runs=r,
                    )
            else:
                phase = 1 if infer_mode == "D" else 2
                ctx.seek_runs(plan.run_block_base(base, phase=phase) + lo)
                runs = train_graphsage_runs(
                    ds, hidden=params["hidden"], epochs=params["epochs"],
                    lr=params["lr"], deterministic=False, ctx=ctx,
                    n_runs=r,
                )
                if infer_mode == "ND":
                    ctx.seek_runs(plan.run_block_base(base, phase=3) + lo)
                logits_runs = run_inference_runs(
                    runs.model, ds, deterministic=infer_mode == "D", ctx=ctx,
                    n_runs=r,
                )
                if infer_mode == "ND":
                    nd_population = runs
            ermvs = [ermv(ref_logits, logits_runs[m]) for m in range(r)]
            vcs = [count_variability(ref_logits, logits_runs[m]) for m in range(r)]
            combo_stats.append(
                {"ermvs": RunConcat(np.asarray(ermvs)), "vcs": RunConcat(np.asarray(vcs))}
            )

        # Epoch drift + uniqueness carriers over the ND-trained window.
        ref_epochs = ref_run.epoch_weights
        drift = [
            RunConcat(np.asarray([
                ermv(ref_epochs[ep], nd_population.epoch_weights[ep][m])
                for m in range(r)
            ]))
            for ep in range(params["epochs"])
        ]
        return {
            "combos": combo_stats,
            "drift": drift,
            "weight_digests": DigestSet(run_digest(w) for w in nd_population.weights),
            "final_losses": RunConcat(np.asarray(nd_population.losses[-1])),
        }

    def finalize(self, ctx: RunContext, params: dict, payload: dict):
        n_models = params["n_models"]
        rows: list[dict] = []
        for (train_mode, infer_mode), stats in zip(self._COMBOS, payload["combos"]):
            e = np.asarray(stats["ermvs"])
            e = e[np.isfinite(e)]
            v = np.asarray(stats["vcs"])
            rows.append(
                {
                    "training": train_mode,
                    "inference": infer_mode,
                    "ermv_mean": float(e.mean()) if e.size else float("inf"),
                    "ermv_std": float(e.std()) if e.size else float("nan"),
                    "vc_mean": float(v.mean()),
                    "vc_std": float(v.std()),
                }
            )

        drift_rows = []
        for ep, vals in enumerate(payload["drift"]):
            vals = np.asarray(vals)
            vals = vals[np.isfinite(vals)]
            drift_rows.append(
                {
                    "epoch": ep + 1,
                    "weight_ermv_mean": float(vals.mean()) if vals.size else 0.0,
                    "weight_ermv_std": float(vals.std()) if vals.size else 0.0,
                }
            )
        # Bitwise uniqueness via content digests — the cross-process form
        # of metrics.array.runs_all_unique (digest set size == population).
        all_unique = (
            len(payload["weight_digests"]) == n_models if n_models > 1 else None
        )
        final_losses = list(payload["final_losses"])

        # Training-cost note at the paper's full-Cora dimensions (the
        # scaled-down default graph is overhead-dominated and uninformative).
        cost_dims = dict(
            epochs=10, n_nodes=2708, n_directed_edges=2 * 5429,
            n_features=1433, hidden=16, n_classes=7,
        )
        t_det = gnn_training_cost_s("h100", deterministic=True, **cost_dims)
        t_nd = gnn_training_cost_s("h100", deterministic=False, **cost_dims)
        notes = (
            "Shape checks: D/D row is exactly 0(0); ND training dominates "
            "the variability, ND inference adds a non-negligible amount; "
            f"ND-trained weights all bitwise-unique: {all_unique}; "
            f"final losses agree to ~1e-2 (spread {np.ptp(final_losses):.3e}) "
            "despite bit-level divergence; weight Vermv mean/std grow with "
            f"epoch. Cost-model training time: D {t_det:.3f}s vs ND {t_nd:.3f}s "
            "(paper: 0.48 s vs 0.18 s for 10 epochs on Cora)."
        )
        extra = {
            "epoch_drift": drift_rows,
            "all_weights_unique": all_unique,
            "final_loss_spread": float(np.ptp(final_losses)),
            "training_cost_s": {"D": t_det, "ND": t_nd},
        }
        return rows, notes, extra


register(Table7GnnVariability())
