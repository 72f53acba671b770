"""Figures 4 and 5 — run-to-run variability vs reduction ratio.

Both figures run one sweep: ``scatter_reduce`` (sum and mean) on
2 000-element 1-D arrays and ``index_add`` on 100x100 arrays, over a
ladder of reduction ratios R.  Fig 4 reports the count variability
``Vc``, Fig 5 the tensor variability ``Vermv``.

Paper shapes: Fig 4's scatter_reduce is roughly flat (0.005-0.01) below
R = 1 with a jump (~0.10) at R = 1, and index_add rises approximately
linearly with R; Fig 5's values sit in the 1e-8 .. 2e-7 band, rising with
R, with inconsistently sized error bars.
"""

from __future__ import annotations

from ..runtime import RunContext
from .axes import AxisSpec
from .base import ShardableExperiment, register
from ._opruns import SweepCell, sweep_run_payloads, variability_from_payload

__all__ = ["RatioSweep"]


class RatioSweep(ShardableExperiment):
    """Regenerates one of Figs 4/5 (``metric`` Vc or Vermv vs R for
    scatter_reduce and index_add).

    Axis declaration: (cell x run) with the computed (ratio x op) cell
    grid; the sweep kernel manages the per-cell ladder, so the
    declaration drives shard windows and merge tags only.
    """

    axes = (
        AxisSpec("cell", "config"),
        AxisSpec("run", "run", param="n_runs", shardable=True),
    )

    def __init__(self, experiment_id: str, title: str, metric: str, notes: str) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.metric = metric  # "vc" or "ermv": the row keys' suffix
        self.notes = notes

    def axis_values(self, spec, params):
        if spec.name == "cell":
            return tuple(self._cells(params))
        return super().axis_values(spec, params)

    def params_for(self, scale: str) -> dict:
        if scale == "paper":
            return {
                "ratios": tuple(round(0.1 * i, 1) for i in range(1, 11)),
                "sr_dim": 2_000, "ia_dim": 100, "n_runs": 1_000,
            }
        return {
            "ratios": (0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
            "sr_dim": 2_000, "ia_dim": 100, "n_runs": 40,
        }

    def _cells(self, params: dict) -> list[SweepCell]:
        return [
            SweepCell(*spec)
            for r in params["ratios"]
            for spec in (
                ("scatter_reduce", params["sr_dim"], r, "sum"),
                ("scatter_reduce", params["sr_dim"], r, "mean"),
                ("index_add", params["ia_dim"], r),
            )
        ]

    def shard_run(self, ctx: RunContext, params: dict, lo: int, hi: int) -> dict:
        # Configuration-axis batching: the ratio sweep's cells (sum, mean,
        # index_add per ratio — the scalar loop's order) go through one
        # windowed sweep pass with plans built up front.
        return {
            "cells": sweep_run_payloads(
                self._cells(params), params["n_runs"], ctx, lo=lo, hi=hi
            )
        }

    def finalize(self, ctx: RunContext, params: dict, payload: dict):
        results = [variability_from_payload(p) for p in payload["cells"]]
        m = self.metric
        rows: list[dict] = []
        for i, r in enumerate(params["ratios"]):
            row = {"R": r}
            for name, res in zip(
                ("scatter_reduce_sum", "scatter_reduce_mean", "index_add"),
                results[3 * i : 3 * i + 3],
            ):
                row[f"{name}_{m}"] = getattr(res, f"{m}_mean")
                row[f"{name}_{m}_std"] = getattr(res, f"{m}_std")
            rows.append(row)
        return rows, self.notes, {}


register(RatioSweep(
    "fig4", "Fig 4: count variability vs reduction ratio", "vc",
    "Shape checks: scatter_reduce Vc roughly flat below R=1 and "
    "jumping at R=1; index_add Vc rising ~linearly with R.",
))
register(RatioSweep(
    "fig5", "Fig 5: tensor variability (Vermv) vs reduction ratio", "ermv",
    "Shape checks: Vermv rises with R for index_add; magnitudes in "
    "the fp32 1e-10 .. 1e-6 band (Vermv averages over all elements, "
    "so it scales as Vc times the ~1e-7 per-element relative flip).",
))
