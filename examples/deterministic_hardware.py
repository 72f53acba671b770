#!/usr/bin/env python
"""Scenario: moving inference to statically-scheduled hardware (paper SIV-V).

The paper evaluates the Groq LPU as a *hardware* route to reproducibility:
deterministic by construction, with cycle-exact compile-time runtimes.
This example:

1. runs the same `index_add` aggregation on the simulated GPU (variable
   bits, variable timing) and on the LPU model (fixed bits, fixed cycles),
2. compiles a two-layer GraphSAGE inference program for the LPU and prints
   its static schedule,
3. reproduces the Table 6/8 runtime comparisons from the cost models.

Run:  python examples/deterministic_hardware.py
"""

import numpy as np

import repro
from repro.experiments._gnn import build_lpu_gnn_program, gnn_inference_cost_us
from repro.lpu import LPUCompiler, LPUExecutor, Program
from repro.ops import index_add
from repro.ops.nondet import ContentionModel


def main() -> None:
    ctx = repro.seed_all(0)
    rng = ctx.data()

    # -- 1. same kernel, two targets ---------------------------------------
    idx = rng.integers(0, 128, 8192)
    src = rng.standard_normal((8192, 16)).astype(np.float32)
    base = rng.standard_normal((128, 16)).astype(np.float32)
    force = ContentionModel(q0=1.0, gamma=0.0, n0=1e-9)

    gpu_outputs = {
        index_add(base, 0, idx, src, model=force, ctx=ctx).tobytes()
        for _ in range(8)
    }
    print(f"simulated GPU: {len(gpu_outputs)} distinct bit patterns over 8 runs")

    prog = Program()
    prog.op("agg", "index_add", n_elements=src.size,
            fn=lambda env: index_add(base, 0, idx, src))
    ex = LPUExecutor()
    lpu_outputs = set()
    runtime_us = None
    for _ in range(8):
        out, compiled = ex.run(prog)
        lpu_outputs.add(out.tobytes())
        runtime_us = compiled.runtime_us
    print(f"LPU model:     {len(lpu_outputs)} distinct bit pattern over 8 runs, "
          f"runtime fixed at {runtime_us:.2f} us")

    # -- 2. a compiled GNN program ------------------------------------------
    gnn = build_lpu_gnn_program(
        n_nodes=2708, n_directed_edges=2 * 5429,
        n_features=1433, hidden=16, n_classes=7,
    )
    compiled = LPUCompiler().compile(gnn)
    print("\nLPU GraphSAGE static schedule (cycles):")
    for s in compiled.schedule:
        print(f"  {s.node.name:<8} on {s.unit:<3} "
              f"[{s.start_cycle:>9.0f} .. {s.end_cycle:>9.0f}]")
    print(f"total: {compiled.total_cycles:,.0f} cycles = {compiled.runtime_us:.1f} us "
          "(known before the first run - the paper reports LPU times without "
          "error bars for exactly this reason)")

    # -- 3. Table 8 comparison ----------------------------------------------
    dims = dict(n_nodes=2708, n_directed_edges=2 * 5429,
                n_features=1433, hidden=16, n_classes=7)
    t_nd = gnn_inference_cost_us("h100", deterministic=False, **dims)
    t_d = gnn_inference_cost_us("h100", deterministic=True, **dims)
    print("\nGraphSAGE inference (cost models):")
    print(f"  H100 non-deterministic: {t_nd / 1e3:6.2f} ms")
    print(f"  H100 deterministic:     {t_d / 1e3:6.2f} ms "
          "(index_add sort fallback)")
    print(f"  LPU (deterministic):    {compiled.runtime_us / 1e3:6.3f} ms "
          f"({t_nd / compiled.runtime_us:.0f}x faster than the GPU)")


if __name__ == "__main__":
    main()
