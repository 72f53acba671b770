"""Experiment registry: one module per paper table/figure.

Figs 4 and 5 run one ratio sweep and share one module
(:mod:`~repro.experiments.ratio_sweep`), which registers both ids.

=========  ==================================================================
id         paper artifact
=========  ==================================================================
table1     Table 1 — permutation effects on FP64 sums
table2     Table 2 — parallel-sum implementation properties
table3     Table 3 — OpenMP normal vs ordered reductions
table4     Table 4 — per-device sum timings and Ps penalties
table5     Table 5 — per-op min/max Vermv hyperparameter sweep
table6     Table 6 — scatter_reduce / index_add runtimes, H100 vs LPU
table7     Table 7 — GraphSAGE D/ND training x inference variability
table8     Table 8 — GraphSAGE inference runtimes, H100 vs LPU
fig1       Fig 1 — PDF of Vs for SPA (normal vs uniform inputs)
fig2       Fig 2 — PDF of Vs for AO (non-normal)
fig3       Fig 3 — Vc heatmaps vs (input dim, reduction ratio)
fig4       Fig 4 — Vc vs reduction ratio (ratio_sweep)
fig5       Fig 5 — Vermv vs reduction ratio (ratio_sweep)
maxvs      §III-C — Max |Vs| power-law fit
figS1      supplementary — SPA Vs across GPU families (paper repo artifact)
cgdiv      extension — CG iterate divergence (§I narrative)
warpsweep  extension — AO variability under the warp-32/64 ablation pair
seedens    extension — seed-ensemble SPA Vs grid (seeds x devices)
collsweep  extension — collective allreduce variability (topology x precision)
=========  ==================================================================

Run from Python::

    from repro.experiments import get_experiment
    result = get_experiment("table1").run()

or the CLI::

    repro-experiments run table1 --scale default
"""

from .base import Experiment, ExperimentResult, get_experiment, list_experiments, register
from .report import to_json, to_markdown

# Import for registration side effects.
from . import (  # noqa: F401
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    fig1,
    fig2,
    fig3,
    ratio_sweep,
    maxvs,
    figs_devices,
    cgdiv,
    warp_sweep,
    seed_ensemble,
    collective_sweep,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "register",
    "to_json",
    "to_markdown",
]
