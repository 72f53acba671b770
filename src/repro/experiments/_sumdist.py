"""Shared machinery for the Vs-distribution experiments (Figs 1-2, MaxVs).

The paper's protocol (§III-C): generate arrays, apply the non-deterministic
reduction many times per array, and compute ``Vs`` against the
deterministic SPTR result.  Because the per-block stage of SPA is
deterministic, its partials are computed **once** per array and only the
combine order is re-sampled per run — the honest shortcut that makes the
scaled experiments fast without changing a single result bit.

All helpers run on the batched run-axis engine, batched across **arrays as
well as runs**: an experiment's whole ``(arrays, runs)`` grid is one pass
(:func:`spa_vs_samples_arrays` / :func:`ao_vs_samples_arrays`) — the block
partials of every array evaluate in lockstep
(:func:`~repro.fp.summation.block_partials_runs`), all ``A x R`` execution
orders are sampled through one :class:`~repro.gpusim.scheduler.
WaveSchedulerBatch` (in run order, or from explicit pre-drawn per-run
streams when the caller interleaves several batches' draws), and the folds
run through :func:`~repro.gpusim.atomics.batched_atomic_fold`'s per-run
values mode, processed in run chunks so memory stays bounded at
``n = 10**6``.  Per-(array, run) results are bit-identical to looping
``WaveScheduler`` + ``atomic_fold`` (or the reduction classes) —
``tests/test_experiment_helpers.py`` and ``tests/test_batched_engine.py``
pin this.  The single-array :func:`spa_vs_samples` / :func:`ao_vs_samples`
are the ``A = 1`` special case of the same pass.

:func:`spa_vs_samples_devices` adds the **device axis** (figS1): one
``(device, array, run)`` grid per call, drawing from anchored device-plane
streams (:meth:`repro.runtime.RunContext.device_stream`) instead of the
shared sequential ladder, pooling same-geometry partials/baselines across
devices and pooling a deterministic device's single schedule across the
whole run axis.  ``tests/test_device_axis.py`` pins its cell contract.
"""

from __future__ import annotations

import numpy as np

from ..fp.summation import (
    DEFAULT_RUN_CHUNK_ELEMENTS,
    block_partials_runs,
    iter_run_chunks,
    tree_fold,
)
from ..gpusim.atomics import batched_atomic_fold
from ..gpusim.device import get_device
from ..gpusim.kernel import LaunchConfig
from ..gpusim.scheduler import WaveSchedulerBatch
from ..metrics.scalar import scalar_variability_many
from ..runtime import RunContext

__all__ = [
    "sample_array",
    "spa_vs_samples",
    "spa_vs_samples_arrays",
    "spa_vs_samples_devices",
    "ao_vs_samples",
    "ao_vs_samples_arrays",
    "ao_vs_samples_devices",
]


def sample_array(rng: np.random.Generator, n: int, distribution: str) -> np.ndarray:
    """Draw the experiment input (FP64)."""
    if distribution == "uniform":
        return rng.uniform(0.0, 10.0, n)
    if distribution == "normal":
        return rng.standard_normal(n)
    if distribution == "boltzmann":
        return rng.exponential(1.0, n)
    raise ValueError(f"unknown distribution {distribution!r}")


def _spa_launch(dev, n: int, threads_per_block: int, n_blocks: int | None) -> LaunchConfig:
    nb = n_blocks or (n + threads_per_block - 1) // threads_per_block
    return LaunchConfig(
        device=dev, n_blocks=nb, threads_per_block=threads_per_block,
        shared_mem_bytes=min(threads_per_block * 8, dev.shared_mem_per_block),
    )


def spa_vs_samples_arrays(
    xs: np.ndarray,
    n_runs: int,
    ctx: RunContext,
    *,
    device: str = "v100",
    threads_per_block: int = 64,
    n_blocks: int | None = None,
    rngs=None,
) -> np.ndarray:
    """``Vs`` of ``n_runs`` SPA sums of every row of ``xs``, vs SPTR.

    One ``(arrays, runs, n)`` pass: row partials in lockstep, all
    ``A x n_runs`` combine orders drawn through one scheduler batch
    (array-major run order — array 0's runs first — matching a per-array
    loop's stream consumption; explicit ``rngs`` override the stream
    source per run), and the combines folded with per-run values.  Entry
    ``[a, r]`` is bit-identical to run ``r`` of
    ``spa_vs_samples(xs[a], ...)``.  ``rngs`` is best a
    :class:`~repro.runtime.RunStreams` window (e.g. the per-array windows
    joined by :meth:`~repro.runtime.RunStreams.concat`), whose chunk views
    draw in one batched pass.

    Returns
    -------
    numpy.ndarray
        ``(A, n_runs)`` Vs samples.
    """
    xs = np.asarray(xs)
    n_arrays, n = xs.shape
    dev = get_device(device)
    launch = _spa_launch(dev, n, threads_per_block, n_blocks)
    nb = launch.n_blocks
    partials = block_partials_runs(xs, nb)  # (A, nb), deterministic
    s_d = np.array([tree_fold(partials[a]) for a in range(n_arrays)])
    batch = WaveSchedulerBatch(launch, ctx)
    total = n_arrays * n_runs
    sums = np.empty(total, dtype=np.float64)
    for lo, hi in iter_run_chunks(total, nb):
        orders = batch.block_completion_orders(
            hi - lo, contention=0.0,
            rngs=None if rngs is None else rngs[lo:hi],
        )
        arr_of_run = np.arange(lo, hi) // max(n_runs, 1)
        sums[lo:hi] = batched_atomic_fold(partials[arr_of_run], orders)
    return scalar_variability_many(sums.reshape(n_arrays, n_runs), s_d[:, None])


def spa_vs_samples_devices(
    xs: np.ndarray,
    n_runs: int,
    ctx: RunContext,
    *,
    devices,
    threads_per_block: int = 64,
    run_lo: int = 0,
    run_hi: int | None = None,
    anchor: int = 0,
) -> dict[str, np.ndarray]:
    """``Vs`` of SPA sums of every row of ``xs`` on every device at once.

    The device-axis batched sweep (figS1): one ``(device, array, run)``
    grid folded through the run-axis engine with **anchored device-plane
    streams** — every ``(device, array)`` cell draws its whole run axis
    from its own :meth:`~repro.runtime.RunContext.device_stream` under
    the cell contract catalogued in :mod:`repro.gpusim.scheduler` (raw
    rotations for all runs up front, then prefix-stable float32 block
    rows in run order).  Because no cell shares a stream, the returned
    rows of any device are bit-identical no matter which other devices
    are swept, and ``run_lo``/``run_hi`` select any window of the run
    axis bit-identically to slicing the full sweep — the shard
    derivation of the device experiments.

    Same-geometry work is pooled across devices: block partials and the
    deterministic SPTR baselines depend only on the grid size, so all
    devices sharing one (clamped) launch geometry compute them once.  A
    ``deterministic`` device draws nothing — its single schedule is
    evaluated once and pooled across the run axis (the zero-variability
    LPU row).

    Returns
    -------
    dict
        ``{device_name: (A, run_hi - run_lo) float64 Vs}`` in the order
        of ``devices``.
    """
    xs = np.asarray(xs)
    n_arrays, n = xs.shape
    if run_hi is None:
        run_hi = n_runs
    if not 0 <= run_lo <= run_hi <= n_runs:
        raise ValueError(
            f"run window [{run_lo}, {run_hi}) outside [0, {n_runs})"
        )
    window = run_hi - run_lo
    # Pool the deterministic per-array stage by launch geometry: partials
    # and SPTR baselines are pure functions of (xs, n_blocks).
    partial_pool: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _pooled(nb: int) -> tuple[np.ndarray, np.ndarray]:
        if nb not in partial_pool:
            partials = block_partials_runs(xs, nb)
            s_d = np.array([tree_fold(partials[a]) for a in range(n_arrays)])
            partial_pool[nb] = (partials, s_d)
        return partial_pool[nb]

    out: dict[str, np.ndarray] = {}
    for device in devices:
        dev = get_device(device)
        tpb = min(threads_per_block, dev.max_threads_per_block)
        launch = _spa_launch(dev, n, tpb, None)
        nb = launch.n_blocks
        partials, s_d = _pooled(nb)
        batch = WaveSchedulerBatch(launch, None)
        need_u = batch.needs_block_draw(0.0)
        rotate = batch.needs_rotation
        if not rotate and not need_u:
            # Statically scheduled hardware: the one schedule every run
            # produces, computed once and pooled over (arrays, runs).
            order = batch.block_completion_orders_from_draws(
                np.zeros(1, dtype=np.int64), None, 0.0
            )
            sums = batched_atomic_fold(partials, np.broadcast_to(order, (n_arrays, nb)))
            out[device] = np.ascontiguousarray(
                np.broadcast_to(
                    scalar_variability_many(sums, s_d)[:, None], (n_arrays, window)
                )
            )
            continue
        rngs = [
            ctx.device_stream(device, a, anchor=anchor) for a in range(n_arrays)
        ]
        rots = np.zeros((n_arrays, n_runs), dtype=np.int64)
        if rotate:
            for a, rng in enumerate(rngs):
                rots[a] = rng.integers(dev.num_gpcs, size=n_runs)
        if need_u:
            # Advance each cell stream past rows [0, run_lo) — row draws
            # are prefix-stable, so chunked discards reproduce the full
            # matrix's bits (the cell contract).
            scratch_rows = None
            for a, rng in enumerate(rngs):
                skip = run_lo
                while skip:
                    rows = min(skip, max(1, DEFAULT_RUN_CHUNK_ELEMENTS // nb))
                    if scratch_rows is None or len(scratch_rows) < rows:
                        scratch_rows = np.empty((rows, nb), dtype=np.float32)
                    rng.random(out=scratch_rows[:rows], dtype=np.float32)
                    skip -= rows
        sums = np.empty((n_arrays, window), dtype=np.float64)
        for lo, hi in iter_run_chunks(window, n_arrays * nb):
            rows = hi - lo
            if need_u:
                u = np.empty((n_arrays, rows, nb), dtype=np.float32)
                for a, rng in enumerate(rngs):
                    rng.random(out=u[a], dtype=np.float32)
                u_flat = u.reshape(n_arrays * rows, nb)
            else:
                u_flat = None
            orders = batch.block_completion_orders_from_draws(
                rots[:, run_lo + lo : run_lo + hi].reshape(-1), u_flat, 0.0
            ).reshape(n_arrays, rows, nb)
            for a in range(n_arrays):
                # Shared-values fold per array (cheaper than materialising
                # per-run value rows for the whole chunk).
                sums[a, lo:hi] = batched_atomic_fold(partials[a], orders[a])
        out[device] = scalar_variability_many(sums, s_d[:, None])
    return out


def spa_vs_samples(
    x: np.ndarray,
    n_runs: int,
    ctx: RunContext,
    *,
    device: str = "v100",
    threads_per_block: int = 64,
    n_blocks: int | None = None,
) -> np.ndarray:
    """``Vs`` of ``n_runs`` SPA sums of ``x`` against the SPTR result.

    Bit-identical to calling ``SinglePassAtomic.sum`` in a loop (the block
    partials are deterministic and hoisted out of the loop; the run axis is
    batched).  The ``A = 1`` case of :func:`spa_vs_samples_arrays`.
    """
    return spa_vs_samples_arrays(
        np.asarray(x)[None], n_runs, ctx,
        device=device, threads_per_block=threads_per_block, n_blocks=n_blocks,
    )[0]


def ao_vs_samples_arrays(
    xs: np.ndarray,
    n_runs: int,
    ctx: RunContext,
    *,
    device: str = "v100",
    threads_per_block: int = 64,
    rngs=None,
) -> np.ndarray:
    """``Vs`` of ``n_runs`` AO sums of every row of ``xs``, vs SPTR.

    The AO twin of :func:`spa_vs_samples_arrays`: all ``A x n_runs``
    retirement orders come from one scheduler batch, with the
    warp-granular fast path (whole warp slices gathered in sorted-key
    order) whenever the geometry is warp-aligned.

    Returns
    -------
    numpy.ndarray
        ``(A, n_runs)`` Vs samples.
    """
    xs = np.asarray(xs)
    n_arrays, n = xs.shape
    dev = get_device(device)
    launch = _spa_launch(dev, n, threads_per_block, None)
    partials = block_partials_runs(xs, launch.n_blocks)
    s_d = np.array([tree_fold(partials[a]) for a in range(n_arrays)])
    batch = WaveSchedulerBatch(launch, ctx)
    total = n_arrays * n_runs
    sums = np.empty(total, dtype=np.float64)
    warp = dev.warp_size
    if threads_per_block % warp == 0 and n % warp == 0:
        # Warp-granular fast path: a retirement order is warp slices in
        # sorted-key sequence with lanes in id order, so gathering x by
        # whole warp rows reproduces x[order] bit-for-bit without the
        # element-level permutation.
        xw = np.ascontiguousarray(xs).reshape(n_arrays, -1, warp)
        for lo, hi in iter_run_chunks(total, n):
            worders = batch.thread_retirement_warp_orders(
                hi - lo, n, contention=1.0,
                rngs=None if rngs is None else rngs[lo:hi],
            )
            for i in range(hi - lo):
                folded = np.add.accumulate(xw[(lo + i) // n_runs][worders[i]].ravel())
                sums[lo + i] = folded[-1]
    else:
        for lo, hi in iter_run_chunks(total, n):
            orders = batch.thread_retirement_orders(
                hi - lo, n, contention=1.0,
                rngs=None if rngs is None else rngs[lo:hi],
            )
            arr_of_run = np.arange(lo, hi) // max(n_runs, 1)
            sums[lo:hi] = batched_atomic_fold(xs[arr_of_run], orders)
    return scalar_variability_many(sums.reshape(n_arrays, n_runs), s_d[:, None])


def ao_vs_samples_devices(
    xs: np.ndarray,
    n_runs: int,
    ctx: RunContext,
    *,
    devices,
    threads_per_block: int = 64,
    run_lo: int = 0,
    run_hi: int | None = None,
    anchor: int = 0,
    plane: str | None = None,
) -> dict[str, np.ndarray]:
    """``Vs`` of AO sums of every row of ``xs`` on every device at once.

    The AO twin of :func:`spa_vs_samples_devices`, with a **run-granular
    device-plane layout**: cell ``(a, r)`` of a device's grid draws its
    retirement order from its own anchored stream,
    ``ctx.device_stream(plane_name, cell=a * n_runs + r, anchor=anchor)``
    — one stream per (array, run) rather than per (array).  Because no
    two runs share a stream, any ``[run_lo, run_hi)`` window is
    bit-identical to slicing the full sweep by construction (no
    prefix-stable row discipline needed), which is the shard derivation.

    ``plane`` names the device plane the streams come from; it defaults
    to the device's own name.  A **shared** plane across devices gives
    every device identical stream draws for identical cells — the
    warp-ablation contract: two devices differing only in warp size then
    produce orders from the same raw sequence and diverge only in
    retirement granularity (pinned in ``tests/test_device_axis.py``).

    Returns
    -------
    dict
        ``{device_name: (A, run_hi - run_lo) float64 Vs}`` in the order
        of ``devices``.
    """
    xs = np.asarray(xs)
    n_arrays, _ = xs.shape
    if run_hi is None:
        run_hi = n_runs
    if not 0 <= run_lo <= run_hi <= n_runs:
        raise ValueError(
            f"run window [{run_lo}, {run_hi}) outside [0, {n_runs})"
        )
    window = run_hi - run_lo
    out: dict[str, np.ndarray] = {}
    for device in devices:
        dev = get_device(device)
        name = plane or device
        rngs = [
            ctx.device_stream(name, a * n_runs + r, anchor=anchor)
            for a in range(n_arrays)
            for r in range(run_lo, run_hi)
        ]
        out[device] = ao_vs_samples_arrays(
            xs, window, ctx,
            device=device,
            threads_per_block=min(threads_per_block, dev.max_threads_per_block),
            rngs=rngs,
        )
    return out


def ao_vs_samples(
    x: np.ndarray,
    n_runs: int,
    ctx: RunContext,
    *,
    device: str = "v100",
    threads_per_block: int = 64,
) -> np.ndarray:
    """``Vs`` of ``n_runs`` AO sums of ``x`` against the SPTR result."""
    return ao_vs_samples_arrays(
        np.asarray(x)[None], n_runs, ctx,
        device=device, threads_per_block=threads_per_block,
    )[0]
