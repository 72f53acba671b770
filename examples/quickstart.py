#!/usr/bin/env python
"""Quickstart: measure FPNA-induced run-to-run variability in 60 seconds.

Demonstrates the core loop of the library:

1. generate a workload from a replayable run context,
2. sum it with a non-deterministic GPU strategy (SPA) and a deterministic
   one (SPTR) on the simulated V100,
3. quantify the variability with the paper's metrics (Vs, Vermv, Vc),
4. flip the global determinism switch and watch the variability vanish.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro


def main() -> None:
    ctx = repro.seed_all(0)

    # -- 1. a workload ----------------------------------------------------
    x = ctx.data().uniform(0.0, 10.0, 1_000_000)
    print(f"workload: {x.size:,} FP64 values ~ U(0, 10)")

    # -- 2. deterministic vs non-deterministic parallel sums ---------------
    spa = repro.get_reduction("spa", device="v100", threads_per_block=64)
    sptr = repro.get_reduction("sptr", device="v100", threads_per_block=64)

    s_det = sptr.sum(x)
    print(f"\nSPTR (deterministic):      {s_det:.15e}")
    print("SPA  (non-deterministic), five runs:")
    vs_values = []
    for i in range(5):
        s = spa.sum(x, ctx=ctx)
        vs = repro.scalar_variability(s, s_det)
        vs_values.append(vs)
        print(f"  run {i}: {s:.15e}   Vs = {vs:+.2e}")

    print(f"\n|Vs| spread across runs: {np.ptp(vs_values):.2e}")
    print("CP2K-style correctness tests use tolerances down to 1e-14 -- this")
    print("wobble is the debugging hazard the paper documents (SIII).")

    # -- 3. tensor-kernel variability (paper SIV) -------------------------
    from repro.ops import index_add

    rng = ctx.data(stream=1)
    idx = rng.integers(0, 500, 1_000)
    src = rng.standard_normal((1_000, 64)).astype(np.float32)
    base = rng.standard_normal((500, 64)).astype(np.float32)

    reference = index_add(base, 0, idx, src, deterministic=True)
    runs = [index_add(base, 0, idx, src, ctx=ctx) for _ in range(10)]
    report = repro.variability_report(reference, runs)
    print(f"\nindex_add over 10 ND runs:  Vermv = {report.ermv_mean:.2e}"
          f"   Vc = {report.vc_mean:.4f}   unique outputs = {report.n_unique}")

    # -- 4. the determinism switch -----------------------------------------
    repro.use_deterministic_algorithms(True)
    runs = [index_add(base, 0, idx, src, ctx=ctx) for _ in range(10)]
    report = repro.variability_report(reference, runs)
    print(f"with use_deterministic_algorithms(True):  Vermv = "
          f"{report.ermv_mean:.1e}   Vc = {report.vc_mean:.1f}   "
          f"unique outputs = {report.n_unique}")
    repro.use_deterministic_algorithms(False)

    # -- 5. sharded execution + the result cache ---------------------------
    # Experiments shard their simulated runs across worker processes and
    # merge the shards BIT-EXACTLY (streams are pure functions of
    # (seed, run index)), so --workers changes wall-clock, never results.
    # The same run is content-addressed by (id, scale, seed, code
    # fingerprint), so repeating it is a cache hit.  CLI equivalent:
    #
    #   repro-experiments run fig4 --workers 4
    #   repro-experiments run-all --workers 4 --cache-dir ~/.cache/repro
    #
    import tempfile

    from repro.experiments import get_experiment
    from repro.harness import ResultCache, ShardedExecutor, cache_key

    serial = get_experiment("fig4").run(ctx=repro.RunContext(seed=0))
    with ShardedExecutor(workers=2) as executor:
        sharded = executor.run("fig4", seed=0)
    assert sharded.rows == serial.rows, "sharded merge must be bit-exact"
    print(f"\nfig4 over {sharded.meta['shards']} shards: rows identical to "
          f"serial ({serial.elapsed_s:.2f}s serial, "
          f"{sharded.elapsed_s:.2f}s sharded)")

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        key = cache_key("fig4", "default", 0)
        cache.store(key, sharded)
        hit = cache.lookup(key)
        print(f"result cache: hit = {hit is not None}, "
              f"rows match = {hit.rows == serial.rows}")

    # -- 6. the device axis -------------------------------------------------
    # figS1 sweeps one (device, array, run) grid through the batched
    # engine.  Scheduler streams are anchored per (device, array) cell, so
    # sweeping a subset of devices reproduces exactly the rows the full
    # sweep produces for those devices — and the statically scheduled LPU
    # model shows zero run-to-run variability.  CLI equivalent:
    #
    #   repro-experiments run figS1 --devices gh200,mi300a,lpu
    #
    figs1 = get_experiment("figS1").run(
        ctx=repro.RunContext(seed=0),
        devices=("gh200", "mi300a", "lpu"),
        n_elements=20_000, n_arrays=2, n_runs=60,
    )
    print("\nSPA Vs across architectures (anchored device planes):")
    for row in figs1.rows:
        tag = "deterministic" if row["deterministic"] else "FPNA"
        print(f"  {row['device']:>7s} [{tag:>13s}]  "
              f"Vs std = {row['vs_std_x1e16']:.2f}e-16  "
              f"distinct sums/array = {row['distinct_sums_per_array']:.0f}")

    # -- 7. the compiled backend --------------------------------------------
    # The fold primitives every experiment runs on (permuted sums, tree
    # folds, atomic folds, segmented folds, blocked cumsum) have compiled C
    # kernels that replay the NumPy engine's accumulation orders BIT FOR
    # BIT — same dtype widths, same -0.0/NaN/inf behaviour — so switching
    # backends changes wall-clock only, never a single result bit.
    # Selection: REPRO_BACKEND=numpy|compiled|auto (default auto: compiled
    # when a C toolchain is present, silent numpy fallback otherwise), the
    # --backend CLI flag, or repro.backend.use_backend(...) in code.  The
    # result cache keys on the backend identity + kernel-source
    # fingerprint, so cached numpy and compiled results never alias.
    from repro import backend

    print(f"\ncompute backend: mode={backend.backend_mode()!r}, "
          f"compiled available: {backend.compiled_available()}")
    x_small = repro.RunContext(seed=0).data().standard_normal(10_000)
    perms = np.stack([np.random.default_rng(i).permutation(10_000)
                      for i in range(8)])
    from repro.fp.summation import permuted_sums
    with backend.use_backend("numpy"):
        sums_np = permuted_sums(x_small, perms)
    if backend.compiled_available():
        with backend.use_backend("compiled"):
            sums_c = permuted_sums(x_small, perms)
        same = np.array_equal(sums_np.view(np.int64), sums_c.view(np.int64))
        print(f"permuted_sums numpy vs compiled: bit-identical = {same}")

    # -- 8. declared axis products: warp sweeps + seed ensembles ------------
    # Experiments declare their axis product (config x array x device x
    # seed x run) once as Experiment.axes; the sweep planner derives the
    # ladder layout, shard windows, merge tags and cache cells from the
    # declaration (repro.experiments.axes).  Two consumers:
    #
    # (a) warpsweep — the warp-32-vs-64 device ablation.  Both profiles
    # draw IDENTICAL per-(array, run) streams from one shared device
    # plane, so every difference below is warp retirement granularity.
    warp = get_experiment("warpsweep").run(
        ctx=repro.RunContext(seed=0),
        n_elements=1_024, n_arrays=2, n_runs=60,
    )
    print("\nAO Vs under the warp-width ablation (shared stream plane):")
    for row in warp.rows:
        print(f"  {row['device']:>7s} (warp={row['warp_size']:2d})  "
              f"Vs std = {row['vs_std_x1e16']:.2f}e-16  "
              f"distinct Vs/array = {row['distinct_vs_per_array']:.1f}")
    frac = warp.extra["pair_bitwise_divergence_fraction"]
    print(f"  cells where the pair diverges bitwise: {frac:.0%}")

    # (b) seedens — seed promoted to a shardable ensemble axis: one
    # invocation evaluates an (N seeds x N devices) grid, each member in
    # its own child context, each (seed, device) cell bit-identical to
    # figS1 at that seed/device.  The CLI caches every cell separately
    # (growing the grid recomputes only new cells).  CLI equivalent:
    #
    #   repro-experiments run seedens --devices v100,mi250x,lpu
    #
    ens = get_experiment("seedens").run(
        ctx=repro.RunContext(seed=0),
        seeds=(0, 1, 2), devices=("v100", "lpu"),
        n_elements=10_000, n_arrays=2, n_runs=40,
    )
    print("\nseed-ensemble grid (3 seeds x 2 devices, one invocation):")
    for row in ens.rows:
        print(f"  seed {row['seed']}  {row['device']:>5s}  "
              f"Vs std = {row['vs_std_x1e16']:.2f}e-16")
    for dev, s in ens.extra["per_device"].items():
        print(f"  {dev}: member spread of Vs std = "
              f"{s['member_spread_x1e16']:.2f}e-16 over {s['n_members']} seeds")

    # -- 9. the incremental sweep farm --------------------------------------
    # The farm orchestrates whole (experiment x scale x seed x device)
    # grids cache-first: plan_grid expands the declared grid into exactly
    # the cells the CLI `run` path caches, every cell's key is probed
    # with a metadata-only head read before any worker is touched, and
    # only the misses dispatch, in plan order.  Because
    # cache keys carry module-granular code fingerprints (each experiment
    # hashes only the modules in its static import closure), a warm grid
    # re-runs with ZERO executions, and editing one module recomputes
    # only the cells of experiments that can reach it — a `_gnn.py` edit
    # leaves every summation experiment hot.  Recomputed cells whose
    # payload digest differs from the previous generation (or a golden
    # pin) land in the consolidated drift report, together with the
    # closure modules whose hashes moved.  CLI equivalent:
    #
    #   repro-experiments farm --experiments fig4,fig5,table7 \
    #       --seeds 0,1 --workers 4 --report-json farm.json
    #
    from repro.harness import SweepFarm, plan_grid

    class _Serial:  # any object with the executor .run contract works
        def run(self, eid, *, scale="default", seed=0, **ov):
            return get_experiment(eid).run(
                scale=scale, ctx=repro.RunContext(seed=seed), **ov
            )

    with tempfile.TemporaryDirectory() as tmp:
        cells = plan_grid(
            ["fig4", "fig5"],
            seeds=(0, 1),
            overrides={"fig4": {"n_runs": 10}, "fig5": {"n_runs": 10}},
        )
        farm = SweepFarm(ResultCache(tmp), _Serial())
        cold = farm.run(cells)
        warm = farm.run(cells)
        print(f"\nsweep farm over {cold.n_cells} cells: "
              f"cold executed {cold.n_executed}, "
              f"warm executed {warm.n_executed} "
              f"(hits {warm.n_hits}, drift {len(warm.drift)})")

    # -- 10. multi-device collectives ---------------------------------------
    # collsweep stacks the cross-device layer on top of the intra-kernel
    # story: every participating device SPA-sums its chunk of one array,
    # then a collective (ring / tree / butterfly allreduce) folds the
    # per-device partials in a message-arrival order drawn from a
    # pluggable policy — in-order (deterministic), uniform-random, or
    # load-skewed.  Edge delays draw one f32 word per (run, edge) cell on
    # an anchored per-topology plane, partials draw per-(device, run)
    # cells, so any run window and any device subset replays
    # bit-identically, and the deterministic policy collapses all three
    # topologies to the same bit-exact result.  CLI equivalent:
    #
    #   repro-experiments run collsweep --devices v100,gh200,cpu --workers 2
    #
    coll = get_experiment("collsweep").run(
        ctx=repro.RunContext(seed=0),
        devices=("v100", "gh200", "cpu"),
        n_elements=4_096, n_runs=60,
    )
    print("\ncollective allreduce variability (uniform arrival policy):")
    for row in coll.rows:
        print(f"  {row['topology']:>9s}/{row['precision']:<4s}  "
              f"distinct sums = {row['distinct_sums']:3d}  "
              f"spread = {row['spread_ulps']:.0f} ulp")
    print("  deterministic in-order f64 reference bit-exact across "
          f"topologies: {coll.extra['deterministic_f64_topology_equivalent']}")

    # The building blocks are importable directly:
    from repro.gpusim import allreduce_runs

    x_c = repro.RunContext(seed=7).data().uniform(0, 10, 2_048)
    for topo in ("ring", "tree", "butterfly"):
        sums = allreduce_runs(x_c, ("v100", "mi250x", "cpu"), 5,
                              repro.RunContext(seed=7), topology=topo,
                              precision="bf16", policy="skewed", skew=2.0)
        print(f"  {topo:>9s} bf16 skewed-policy sums: {sums}")

    # -- 11. experiment-as-a-service ----------------------------------------
    # Every entry point — CLI run, farm cell, HTTP POST — rides one
    # transport-agnostic job core: a JobSpec canonicalised exactly like
    # the cache-key inputs, run through a JobRunner (probe -> dispatch ->
    # store -> bit-exact reassembly).  The asyncio daemon puts a bounded
    # admission queue and JSON endpoints on top; cache hits are answered
    # without touching a worker.  Standalone equivalent:
    #
    #   repro-experiments serve --port 8752 --workers 2
    #   curl -X POST localhost:8752/jobs?wait=1 \
    #        -d '{"experiment_id": "table2", "seed": 1}'
    #
    import json as _json
    import urllib.request

    from repro.harness import JobRunner, JobSpec
    from repro.harness.service import (
        ConstantRateArrival, LoadGenerator, ServiceThread,
    )

    with tempfile.TemporaryDirectory() as tmp:
        runner = JobRunner(_Serial(), ResultCache(tmp))
        outcome = runner.run(JobSpec("table2", seed=1))     # cold: computes
        print(f"\njob core: [{outcome.status_line()}]")
        print(f"  warm replay: [{runner.run(JobSpec('table2', seed=1)).status_line()}]")

        with ServiceThread(runner, queue_limit=16) as svc:  # a live daemon
            req = urllib.request.Request(
                svc.base_url + "/jobs?wait=1",
                data=_json.dumps({"experiment_id": "table2", "seed": 1}).encode(),
                method="POST",
            )
            record = _json.load(urllib.request.urlopen(req))
            print(f"  POST /jobs -> {record['status']}, "
                  f"cached={record['outcome']['cached']} (a CLI-warmed hit)")

            # Seeded synthetic traffic: the arrival schedule replays
            # bit-identically per seed (BENCH_0009 pins the outcomes).
            gen = LoadGenerator(svc.base_url, ConstantRateArrival(30, seed=4),
                                [{"experiment_id": "table2", "seed": 1}], seed=4)
            report = gen.run(0.5)
            stats = _json.load(urllib.request.urlopen(svc.base_url + "/stats"))
            print(f"  {report.n_ok} requests in {report.duration_s:.2f}s: "
                  f"hit rate {report.hit_rate:.0%}, "
                  f"p99 {report.percentile_ms(0.99):.1f}ms, "
                  f"queue depth {stats['queue_depth']}")


if __name__ == "__main__":
    main()
