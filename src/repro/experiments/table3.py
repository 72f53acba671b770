"""Table 3 — OpenMP normal vs ordered reductions on CPU.

Ten trials of the same sum under (a) a plain ``reduction(+:sum)`` — thread
partials combined in completion order, so trailing digits wobble — and (b)
the ``ordered`` construct — a strict serial fold, identical every trial.

The paper's data sums to ~2.35e-07; we use a similar workload (many small
positive FP32-magnitude terms accumulated in FP64) so the wobble appears in
the same digit positions.
"""

from __future__ import annotations

import numpy as np

from ..openmp import OpenMPRuntime
from ..runtime import RunContext
from .base import AxisSpec, ShardableExperiment, register
from .sharding import RunConcat

__all__ = ["Table3OpenMP"]


class Table3OpenMP(ShardableExperiment):
    """Regenerates Table 3 (normal vs ordered OpenMP reductions)."""

    experiment_id = "table3"
    title = "Table 3: normal and ordered reductions using OpenMP on CPU"
    axes = (AxisSpec("trial", "run", param="n_trials", shardable=True),)

    def params_for(self, scale: str) -> dict:
        if scale == "paper":
            return {"n_elements": 1_000_000, "n_trials": 10, "num_threads": 64}
        return {"n_elements": 100_000, "n_trials": 10, "num_threads": 32}

    def shard_run(self, ctx: RunContext, params: dict, lo: int, hi: int) -> dict:
        rng = ctx.data(stream=3)
        # Small positive terms around 2.35e-12 so the total lands near the
        # paper's 2.35e-07 magnitude.
        x = rng.uniform(1.0, 4.0, params["n_elements"]) * 2.35e-07 / params["n_elements"]
        rt = OpenMPRuntime(num_threads=params["num_threads"], ctx=ctx)
        # Batched run-axis engine: the static-schedule thread partials are
        # folded once and only the per-trial combine orders are sampled —
        # bit-identical to looping reduce_sum per trial.  Trial t consumes
        # the t-th stream after the context's current ladder position, so
        # the shard's window is streams [base + lo, base + hi); the
        # ordered fold draws nothing and is trial-invariant.
        ctx.seek_runs(ctx.peek_run_counter() + lo)
        normal = rt.reduce_many(x, hi - lo, ordered=False) if hi > lo else np.empty(0)
        ordered = rt.reduce_many(x, hi - lo, ordered=True) if hi > lo else np.empty(0)
        return {"normal": RunConcat(normal), "ordered": RunConcat(ordered)}

    def finalize(self, ctx: RunContext, params: dict, payload: dict):
        normal, ordered = payload["normal"], payload["ordered"]
        # Full 17-significant-digit strings: the variability lives in the
        # last couple of digits, exactly like the paper's Table 3.
        rows = [
            {
                "trial": i + 1,
                "normal_reduction": f"{n:.16e}",
                "ordered_reduction": f"{o:.16e}",
            }
            for i, (n, o) in enumerate(zip(normal, ordered))
        ]
        n_unique_normal = len(set(normal.tolist()))
        n_unique_ordered = len(set(ordered.tolist()))
        notes = (
            f"normal reduction produced {n_unique_normal} distinct values over "
            f"{params['n_trials']} trials; ordered produced {n_unique_ordered} "
            "(paper: ordered is bitwise stable, normal varies in trailing digits)."
        )
        return rows, notes, {"n_unique_normal": n_unique_normal, "n_unique_ordered": n_unique_ordered}


register(Table3OpenMP())
