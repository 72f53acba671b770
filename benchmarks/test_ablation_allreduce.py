"""Ablation 6 (paper future work): multi-rank allreduce variability.

The conclusions note inter-node communication adds run-to-run variation in
distributed settings.  This bench sweeps rank counts for the
arrival-ordered tree allreduce of :mod:`repro.gpusim.collectives` and
verifies (a) variability grows with rank count and (b) in-order arrival
fixes the combine order: one result at any scale, bit-identical across
ring, tree and butterfly.
"""

from repro.gpusim.collectives import TOPOLOGIES, arrival_orders, collective_fold_runs
from repro.runtime import RunContext

from conftest import run_once


def _distinct_sums(n_ranks, ctx, *, topology="tree", policy="uniform"):
    """Distinct allreduce results over 64 runs of one configuration."""
    partials = RunContext(5).data().standard_normal(n_ranks)
    orders = arrival_orders(topology, n_ranks, 64, ctx, policy=policy)
    return {s.tobytes() for s in collective_fold_runs(partials, orders)}


def test_allreduce_variability_grows_with_ranks(benchmark):
    def ablate():
        ctx = RunContext(0)
        return len(_distinct_sums(4, ctx)), len(_distinct_sums(64, ctx))

    n4, n64 = run_once(benchmark, ablate)
    assert n64 > n4


def test_inorder_allreduce_is_stable(benchmark, ctx):
    outs = benchmark(lambda: {
        s for name in TOPOLOGIES
        for s in _distinct_sums(64, ctx, topology=name, policy="inorder")
    })
    assert len(outs) == 1
