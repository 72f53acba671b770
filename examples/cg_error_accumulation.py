#!/usr/bin/env python
"""Iterative-solver error accumulation under FPNA (paper SI motivation).

The paper's introduction cites conjugate gradient on massively
multithreaded machines, where FPNA errors compound across iterations
(Villa et al. measured up to ~20% divergence after 6-7 iterations on the
Cray XMT).  This example solves one SPD system repeatedly with

* a deterministic reduction (SPTR) — trajectories bitwise identical,
* the non-deterministic SPA reduction — trajectories diverge, and the
  run-to-run divergence grows with iteration count,

and prints the divergence curve plus the effect on a tolerance-based
convergence test (iteration counts can differ run to run).

Run:  python examples/cg_error_accumulation.py
"""

import numpy as np

import repro
from repro.solvers import conjugate_gradient, iterate_divergence, spd_test_matrix


def main() -> None:
    ctx = repro.seed_all(0)
    n = 400
    A = spd_test_matrix(n, cond=1e4, rng=ctx.data(1))
    b = ctx.data(2).standard_normal(n)

    det = repro.get_reduction("sptr", threads_per_block=64)
    nondet = repro.get_reduction("spa", threads_per_block=64)

    # -- deterministic baseline: bitwise identical trajectories ------------
    runs = [
        conjugate_gradient(A, b, reduction=det, tol=1e-10, ctx=ctx)
        for _ in range(3)
    ]
    identical = all(np.array_equal(r.x, runs[0].x) for r in runs)
    print(f"deterministic CG: {runs[0].n_iter} iterations, "
          f"3 runs bitwise identical: {identical}")

    # -- non-deterministic: growing divergence ------------------------------
    div = iterate_divergence(A, b, reduction=nondet, n_runs=5, n_iter=40, ctx=ctx)
    print("\nrun-to-run iterate divergence (max relative L2 vs run 0):")
    for k in range(0, len(div), 5):
        bar = "#" * int(min(60, 2 * max(0, np.log10(max(div[k], 1e-18)) + 18)))
        print(f"  iter {k + 1:3d}: {div[k]:.3e} {bar}")
    diverged = np.flatnonzero(div)
    if diverged.size:
        # Growth is measured from the first iteration where the runs part:
        # before it every run agrees bit for bit and the divergence is 0.
        first = int(diverged[0])
        print(f"\ndivergence grew {div[-1] / div[first]:.1f}x "
              f"from iteration {first + 1} (the first to diverge) to {len(div)}")
    else:
        print(f"\nall runs agreed bit for bit for {len(div)} iterations")

    # -- consequence: convergence verdicts can flicker ----------------------
    iters = [
        conjugate_gradient(A, b, reduction=nondet, tol=1e-13, ctx=ctx).n_iter
        for _ in range(10)
    ]
    print(f"\nND iteration counts to tol=1e-13 over 10 runs: {sorted(set(iters))}")
    print("(a deterministic reduction pins this to a single number;")
    print(" flickering counts are what breaks iteration-budget CI checks)")


if __name__ == "__main__":
    main()
