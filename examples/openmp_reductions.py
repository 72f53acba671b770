#!/usr/bin/env python
"""OpenMP ordered reductions and MPI-style allreduce (paper SIII-B + future work).

Reproduces the Table 3 demonstration — a plain `reduction(+:sum)` wobbles
in its trailing digits while the `ordered` construct is bitwise stable —
and extends it to the paper's "future work": multi-rank allreduce.  The
per-rank partials fold in the order their messages arrive, so with
random arrival every topology (ring, tree, butterfly) varies run to run;
in-order arrival fixes the combine order and gives one result — the same
fixed-order mitigation as the `ordered` construct, one level up.

Run:  python examples/openmp_reductions.py
"""

import repro
from repro.gpusim.collectives import TOPOLOGIES, arrival_orders, collective_fold_runs
from repro.openmp import OpenMPRuntime


def main() -> None:
    ctx = repro.seed_all(3)

    # -- Table 3: normal vs ordered ------------------------------------------
    x = ctx.data(1).uniform(1.0, 4.0, 200_000) * 2.35e-07 / 200_000
    rt = OpenMPRuntime(num_threads=32, ctx=ctx)
    print("trial |        normal reduction |       ordered reduction")
    print("-" * 60)
    for i in range(10):
        normal = rt.reduce_sum(x, ordered=False)
        ordered = rt.reduce_sum(x, ordered=True)
        print(f"{i + 1:5d} | {normal:.16e} | {ordered:.16e}")
    print("\nnote the trailing-digit wobble on the left, stability on the right")
    print("(the ordered construct serialises the combine in iteration order).")

    # -- schedules -------------------------------------------------------------
    print("\nschedule comparison (same data, 10 trials each):")
    for schedule, chunk in (("static", None), ("dynamic", 64), ("guided", 16)):
        rt = OpenMPRuntime(num_threads=16, schedule=schedule, chunk=chunk, ctx=ctx)
        vals = rt.reduce_many(x, 10)
        print(f"  {schedule:>8}: {len(set(vals.tolist()))} distinct values")

    # -- multi-rank allreduce (the paper's future-work direction) --------------
    print("\nMPI-style allreduce of 64 per-rank partials, 64 runs each:")
    partials = ctx.data(2).standard_normal(64)
    for policy in ("uniform", "inorder"):
        for topology in TOPOLOGIES:
            orders = arrival_orders(topology, 64, 64, ctx, policy=policy)
            sums = collective_fold_runs(partials, orders)
            print(f"  {topology:>9} allreduce, {policy:>7} arrival: "
                  f"distinct sums = {len(set(sums.tolist()))}")
    print("\nin-order arrival fixes the combine order (rank order, as in the")
    print("ordered construct): one result for every topology -- the standard")
    print("software mitigation for inter-node FPNA variability.")

if __name__ == "__main__":
    main()
