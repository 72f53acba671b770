"""Arrival-time sampling: which addition order does a launch produce?

Model
-----
A grid of ``Nb`` blocks executes in **waves** of at most ``resident_blocks``
(occupancy).  The runtime assigns blocks to execution slots round-robin
starting from an arbitrary **rotation** offset (real schedulers start from
whichever SM frees first; the offset is the per-run "global scheduling
mode").  Within a wave, block completion times carry bounded jitter with an
exponential straggler tail.  Threads inside a block issue warp by warp;
lanes within a warp retire in lane order (hardware serializes same-address
atomics from one warp in a fixed order).

**Contention serialization** is the single mechanism that explains both of
the paper's distribution shapes (Figs 1–2) and the scatter/`index_add`
trends (Figs 3–5): when many atomics target one address, the memory
partition drains a full queue whose order is dominated by deterministic
issue order — so *high contention suppresses reordering*.  The ``contention``
argument (0 = uncontended, fully jittered; 1 = fully serialized, issue
order modulo the rotation mode) scales the jitter accordingly:

* SPA issues ~``Nb`` partial-sum atomics spread over the kernel — low
  contention → near-uniform permutations → ``Vs`` asymptotically normal
  (Fig 1).
* AO issues ``n`` atomics back-to-back — maximal contention → the order is
  almost a pure function of the discrete rotation mode → ``Vs`` follows a
  spiky mixture, not a normal (Fig 2).

The RNG draw-order contract (batched run-axis engine)
-----------------------------------------------------
Every simulated run owns one scheduler stream (one
:meth:`repro.runtime.RunContext.scheduler` call).  Within a run the stream
is consumed in a fixed order:

1. **rotation** — one ``integers(num_gpcs)`` draw (skipped when
   ``params.rotation`` is false);
2. **block vector** — one ``random(n_blocks, dtype=float32)`` draw iff the
   effective block jitter is positive *or* stragglers are active.  This
   single uniform vector supplies both the completion jitter (scaled so its
   standard deviation equals ``sigma``) and the straggler tail: blocks whose
   draw lands in the top ``straggler_rate / n_blocks`` quantile stall, with
   an Exp(1) delay factor recovered from the same draw by inverse-CDF;
3. **warp vector** (thread orders only) — one
   ``random((n_blocks, warps_per_block), dtype=float32)`` draw iff the
   effective warp jitter is positive.

Everything downstream of the draws is elementwise float32 arithmetic plus
:func:`numpy.argsort` with the default (introsort) kind — both of which
produce identical bits whether evaluated on one run's 1-D vector or on the
rows of an ``(R, n)`` matrix.  That invariant is what makes the batched
:class:`WaveSchedulerBatch` **bit-identical** to constructing a fresh
:class:`WaveScheduler` per run: the batch draws each step of the sequence
for every run in one pass over a :class:`repro.runtime.RunStreams` window
(step 1 for all runs, then step 2, then step 3 — runs own independent
streams, so this is each run's own sequence) and then folds the transform,
sort and expansion over the whole run axis at once.  Under the compiled
backend the window's PCG64 states advance in C (the ``repro_pcg64_*``
kernels, bit-identical to NumPy's ``Generator``), otherwise through a
per-run loop over the materialised Generators.  **Ownership rule:** a
window row is drawn either through these batched passes or through its
materialised Generator, never both — mixing them on one row raises
:class:`~repro.errors.SchedulerError`.  Thread retirement orders are
never sorted at element granularity: lanes retire in lane order within a
warp, so both paths sort the ``n_blocks * warps_per_block`` warp keys and
expand each warp to its (precomputed) lane-ordered element ids.

``tests/test_batched_engine.py`` pins the scalar↔batched equivalence
bit-for-bit across devices, contentions and odd shapes.

Sharding: the ``run_offset`` extension of the contract
------------------------------------------------------
Because stream ``k`` is a pure function of ``(seed, k)`` (no hidden state
crosses runs), the one-stream-per-run contract extends to *partitions* of
the run axis: a :class:`WaveSchedulerBatch` built with ``run_offset=off``
(or over a context whose ladder was positioned with
:meth:`repro.runtime.RunContext.seek_runs`) samples rows bit-identical to
rows ``[off, off + r)`` of the full ``R``-run batch.  Concatenating shard
batches in offset order therefore reproduces the serial batch exactly —
the invariant the sharded experiment executor
(:mod:`repro.harness.parallel`) relies on to merge multi-process shards
into bit-exact single-process results.  ``tests/test_sharded_executor.py``
and the fuzz suite in ``tests/test_batched_engine.py`` pin this for
randomised offsets and shard boundaries.

Device planes: the anchored cell contract of the cross-device sweeps
--------------------------------------------------------------------
The cross-architecture experiments (``figS1``) do not consume the shared
sequential ladder above — doing so would couple each device's bits to the
device list and loop order.  Instead every ``(device, array)`` sweep cell
owns one **anchored stream** (:meth:`repro.runtime.RunContext.
device_stream`, a pure function of ``(seed, device name, anchor, cell)``
where ``anchor`` is the context's ladder position on sweep entry), and
draws its whole run axis from it in a fixed order:

1. **raw rotations** — one ``integers(num_gpcs, size=R)`` draw covering
   *all* ``R`` runs of the cell up front (skipped when ``params.rotation``
   is false);
2. **block matrix** — float32 ``random`` rows of shape ``(rows, n_blocks)``
   drawn in run order (skipped when the resolved model needs no block
   vector).  Row draws are *prefix-stable* — each float32 consumes exactly
   one stream word, so drawing rows ``[0, hi)`` in any chunking yields the
   same bits — which is what lets a shard advance to its window ``[lo,
   hi)`` by discarding rows and still reproduce the serial rows exactly.

:meth:`WaveSchedulerBatch.block_completion_orders_from_draws` turns those
raw draws into completion orders through the very same float32 transform
and argsort as the per-run paths.  Consequences: a sweep over any subset
of devices reproduces each device's rows bit-identically (single-device
replays are exact), deterministic devices draw nothing (their one
schedule is computed once and pooled across the run axis), and run-window
sharding composes with the anchoring because the cell stream — not the
ladder — carries the run axis.  ``tests/test_device_axis.py`` pins the
cell contract, the subset-invariance and the window slicing.

A second, **run-granular** plane layout serves the thread-order sweeps
(``warpsweep`` via :func:`repro.experiments._sumdist.
ao_vs_samples_devices`): cell index ``a * n_runs + r`` — one anchored
stream per ``(array, run)`` rather than per array — so any run window is
bit-identical to slicing the full sweep *by construction* (no
prefix-stable row discipline needed), and a plane name **shared** by
several devices hands them identical draws per cell (the warp-width
ablation isolates retirement granularity this way).  Seed-ensemble
members (``seedens``) sit above both layouts: each member owns a whole
child ``RunContext(seed=member_seed)`` and anchors its planes at 0, so
the member axis consumes neither the master ladder nor any plane.

The collective layer (:mod:`repro.gpusim.collectives`, ``collsweep``)
adds two more anchored plane layouts on the same cell contract:

* **per-(run, edge) delay cells** — plane ``coll-edge:<topology>``, cell
  ``r * n_edges + e`` (edge enumeration order is part of the topology
  contract); each cell yields exactly one ``random(dtype=float32)`` word
  to the arrival policy's delay draw, and the deterministic ``inorder``
  policy constructs no streams at all (the usual
  deterministic-draws-nothing rule, one layer up).
* **per-(device, run) rank partials** — plane ``coll-rank:<device>``,
  cell ``r``; each cell feeds one rank's intra-kernel combine schedule
  (rotation draw, then the float32 block vector — the scalar per-run
  sequence), with deterministic devices pooling one schedule across the
  run axis.  Keying the plane by device name alone keeps a rank's draws
  invariant under the participating device subset.

Both layouts are run-granular — no two runs share a stream on any plane
— so any collective run window is bit-identical to slicing the full
sweep by construction; ``tests/test_collectives.py`` pins the window
slicing, the subset invariance and the in-order identity limit.

The axis-declaration contract
-----------------------------
Experiments no longer wire these layouts by hand: they declare their
axis product (config x array x device x seed x run) once as
``Experiment.axes`` (:mod:`repro.experiments.axes`), and the sweep
planner derives everything this catalogue specifies — *declared order is
ladder-nesting order*.  For the uniform-block serial layout, the ladder
base of an outer coordinate's run block is ``anchor + row_major_flat
(outer coords) * n_runs`` (:meth:`~repro.experiments.axes.SweepPlan.
run_block_base`); anchored device axes and seed axes drop out of the
ladder span (planes and child contexts, per the sections above); the
unique shardable axis yields the executor's shard windows and the
payload's merge-tag axis; and a value-enumerated seed axis decomposes
into per-(seed, device) result-cache cells.  ``tests/test_axes.py`` pins
each derivation against the hand-wired arithmetic it replaced.

Draw contracts of the other batched run consumers
-------------------------------------------------
The one-stream-per-run rule generalises beyond this module; every batched
path draws per run, in run order, exactly what its scalar twin draws.  A
window of run streams may be derived in one
:meth:`repro.runtime.RunContext.schedulers` call with bits identical to
that many ``scheduler()`` calls; the returned
:class:`~repro.runtime.RunStreams` serves the batched draw patterns in one
pass (wave-scheduler inputs, float32 fills, raced-candidate keys) and
stays a ``Sequence[Generator]`` for the consumers that iterate it:

* **cumsum chunk ladder** (:func:`repro.ops.cumsum.cumsum_runs`) — each
  run's stream contributes exactly one ``integers(len(chunk_ladder))``
  draw selecting the blocked-scan chunk; the batch draws all ``R`` chunks
  up front and evaluates one scan per *distinct* chunk.
* **scatter/index raced segments**
  (:meth:`repro.ops.segmented.SegmentPlan.sample_run_draws`) — per run:
  the raced-target Bernoulli vector over the multiply-hit targets, then
  one uniform key per position of every raced segment (ascending target,
  then rank), consumed only when at least one target raced
  (:meth:`~repro.runtime.RunStreams.raced_keys`; transposed convolutions
  draw the same pattern with ``T`` tap keys per raced output element).
* **OpenMP trials** (:meth:`repro.openmp.runtime.OpenMPRuntime.
  reduce_many`) — per trial: the dynamic/guided schedule draws (static
  draws nothing), then the ``permutation`` of the active thread partials.
* **CG solves** (:mod:`repro.solvers.cg`) — one stream per
  non-deterministic *solve*, drawn at solve start; every inner product of
  that trajectory keeps consuming it (each launch's rotation/jitter draws
  follow the per-launch sequence above).  The run batch pre-draws the
  ``R`` solve streams in run order and threads them through
  :meth:`repro.reductions.base.ReductionImpl.sum_runs` via explicit
  ``rngs`` (a :meth:`~repro.runtime.RunStreams.take` view of the
  still-active runs) — which is why runs that converge early simply stop
  drawing without perturbing their neighbours.
* **GNN training / inference** (:mod:`repro.experiments._gnn`) — one
  stream per non-deterministic *training run*, drawn at run start and
  pinned (:func:`repro.tensor.use_kernel_stream`); every ND ``index_add``
  of that run — the two forward aggregations, then the backward
  scatter-adds in autograd order — consumes it through the raced-segment
  sequence above, and unique-index calls consume nothing.  An ND
  inference pass draws one stream the same way.  The lockstep batch
  (:class:`repro.tensor.RunBatch`, used by ``train_graphsage_runs`` /
  ``run_inference_runs``) pre-draws the ``R`` streams in run order and
  hands each batched kernel invocation the window via
  :meth:`repro.ops.segmented.SegmentPlan.sample_run_draws_rngs` — so the
  lockstep runs' weights, losses and logits are bit-identical to a
  scalar train-then-infer loop's.

The compiled backend sits *below* every contract in this catalogue: when
:mod:`repro.backend` selects the compiled kernels
(``REPRO_BACKEND=compiled|auto``), the sequential folds the draws feed
(``batched_atomic_fold`` and ``permuted_sums``) and the
``SegmentPlan.fold*`` family execute in C under the **identical
accumulation-order contract** (same IEEE-754 operation sequences, same
f32/f64 intermediate widths, same −0.0/NaN/inf handling).  No draw moves: orders, permutations, chunk
choices and raced-segment keys are all sampled before dispatch, and the
compiled stream kernels replay NumPy's PCG64 draws exactly (gated by a
one-time self-check against NumPy's ``Generator``), so the backends
differ in wall-clock only, never in bits or stream positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import SchedulerError
from ..runtime import RunContext, RunStreams
from .kernel import LaunchConfig

__all__ = ["SchedulerParams", "WaveScheduler", "WaveSchedulerBatch"]

#: Scale factor mapping a uniform [0, 1) draw to a jitter with standard
#: deviation ``sigma``: Var(U[0, s]) = s^2 / 12, so s = sqrt(12) * sigma.
_JITTER_SPAN = 3.4641016151377544

#: Marks grid slots that carry no element (lanes beyond threads_per_block).
_SENTINEL32 = np.iinfo(np.int32).max
_SENTINEL64 = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SchedulerParams:
    """Tunable knobs of the arrival-time model.

    Attributes
    ----------
    block_jitter:
        Standard deviation of the block completion-time jitter
        (uncontended), in wave units.
    warp_jitter:
        Standard deviation of the warp issue-time jitter within a block.
    rotation:
        Sample a random round-robin starting offset per run.  This is the
        discrete "scheduling mode" that makes fully-serialized (AO) runs
        multi-modal.
    residual_jitter:
        Fraction of jitter that survives even at contention = 1 (queues are
        not perfectly FIFO).
    straggler_rate:
        Expected number of straggling blocks per run (top-quantile blocks
        of the jitter draw stall far past the pack).
    straggler_delay:
        Base delay of a straggler, in wave units.
    """

    block_jitter: float = 0.25
    warp_jitter: float = 0.10
    rotation: bool = True
    residual_jitter: float = 0.005
    straggler_rate: float = 2.0
    straggler_delay: float = 10.0

    def __post_init__(self) -> None:
        if self.block_jitter < 0 or self.warp_jitter < 0:
            raise SchedulerError("jitter parameters must be non-negative")
        if not 0.0 <= self.residual_jitter <= 1.0:
            raise SchedulerError("residual_jitter must be in [0, 1]")
        if self.straggler_rate < 0 or self.straggler_delay < 0:
            raise SchedulerError("straggler parameters must be non-negative")


def _resolve_params(launch: LaunchConfig, params: SchedulerParams | None) -> SchedulerParams:
    """Default/device-specific parameter resolution, shared by the scalar
    and batched schedulers so both sample the exact same model."""
    if params is None:
        # Scale the default jitter by the device's scheduling noise
        # (calibrated on the V100's 0.08): GH200/MI250X schedules are
        # noisier, shifting the Vs moments per family (paper SIII-C,
        # "means and standard deviations ... different between the GPU
        # types").
        rel = launch.device.sched_jitter / 0.08 if launch.device.sched_jitter else 1.0
        base = SchedulerParams()
        params = SchedulerParams(
            block_jitter=base.block_jitter * rel,
            warp_jitter=base.warp_jitter * rel,
            rotation=base.rotation,
            residual_jitter=base.residual_jitter,
            straggler_rate=base.straggler_rate,
            straggler_delay=base.straggler_delay,
        )
    if launch.device.deterministic:
        # Statically scheduled hardware: no jitter, no rotation, no
        # stragglers.
        params = SchedulerParams(
            block_jitter=0.0, warp_jitter=0.0, rotation=False,
            residual_jitter=0.0, straggler_rate=0.0, straggler_delay=0.0,
        )
    return params


@lru_cache(maxsize=64)
def _issue_template(nb: int, res: int) -> np.ndarray:
    """Unrotated issue times ``slot / resident`` (float32, read-only)."""
    tmpl = (np.arange(nb, dtype=np.float32) / np.float32(res))
    tmpl.setflags(write=False)
    return tmpl


@lru_cache(maxsize=256)
def _rolled_template(nb: int, res: int, rot: int) -> np.ndarray:
    """Issue template rolled by one rotation mode (float32, read-only).

    Rotations take at most ``num_gpcs`` distinct values per launch, so the
    cache removes the per-call ``np.roll`` from the batched hot path; the
    cached rows are bit-identical to the scalar path's ``np.roll``.
    """
    out = np.roll(_issue_template(nb, res), -rot)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _element_template(nb: int, tpb: int, warp: int) -> np.ndarray:
    """Element ids per (warp, lane) grid slot, sentinel-padded, read-only.

    Row ``w`` of the returned ``(nb * warps_per_block, warp)`` matrix holds
    the element ids handled by flat warp ``w`` in lane order; lanes beyond
    ``threads_per_block`` carry a sentinel larger than any element id.
    """
    wpb = max(1, (tpb + warp - 1) // warp)
    total = nb * tpb
    dtype, sentinel = (np.int32, _SENTINEL32) if total < _SENTINEL32 else (np.int64, _SENTINEL64)
    b = np.arange(nb).repeat(wpb)
    w = np.tile(np.arange(wpb), nb)
    lane = np.arange(warp)
    tid = (w[:, None] * warp + lane[None, :])
    elems = (b[:, None] * tpb + tid).astype(dtype)
    elems[tid >= tpb] = sentinel
    elems.setflags(write=False)
    return elems


class WaveScheduler:
    """Samples execution orders for one simulated run of a launch.

    Parameters
    ----------
    launch:
        Validated launch configuration.
    rng:
        The per-run scheduler stream (see
        :meth:`repro.runtime.RunContext.scheduler`).  Passing the same
        generator state reproduces the same "non-deterministic" run.
    params:
        Model knobs; defaults are calibrated in the fig1/fig2 experiments.
    """

    def __init__(
        self,
        launch: LaunchConfig,
        rng: np.random.Generator,
        params: SchedulerParams | None = None,
    ) -> None:
        self.launch = launch
        self.rng = rng
        self.params = _resolve_params(launch, params)

    # ----------------------------------------------------------------- waves
    def _effective_jitter(self, base: float, contention: float) -> float:
        if not 0.0 <= contention <= 1.0:
            raise SchedulerError(f"contention must be in [0, 1], got {contention}")
        floor = self.params.residual_jitter * base
        return floor + (base - floor) * (1.0 - contention)

    def _rotation(self) -> int:
        """Sample the discrete dispatch mode: the round-robin start SM.

        Real block dispatch round-robins across GPCs starting from
        whichever cluster frees first, so the issue order is a block-index
        rotation at GPC granularity — a small *discrete* set of modes
        (``num_gpcs`` of them).  Under full contention this mode is nearly
        the only thing that varies between runs, which produces the
        paper's spiky Fig-2 mixture.
        """
        if not self.params.rotation:
            return 0
        dev = self.launch.device
        per_gpc = max(1, self.launch.resident_blocks // dev.num_gpcs)
        return (int(self.rng.integers(dev.num_gpcs)) * per_gpc) % max(self.launch.n_blocks, 1)

    def _needs_block_draw(self, sigma: float, nb: int) -> bool:
        return sigma > 0.0 or (self.params.straggler_rate > 0 and nb > 1)

    def _block_times_from(
        self, rot: int, u: np.ndarray | None, contention: float
    ) -> np.ndarray:
        """Deterministic float32 transform from draws to arrival times.

        Shared verbatim (modulo the leading run axis) with
        :class:`WaveSchedulerBatch`, which is what keeps the two paths
        bit-identical.  ``u`` rows are per-run uniform [0, 1) float32 draws.
        """
        nb = self.launch.n_blocks
        res = self.launch.resident_blocks
        if res < 1:
            raise SchedulerError("resident block count must be >= 1")
        tmpl = _issue_template(nb, res)
        if isinstance(rot, np.ndarray):
            if rot.size == 0:
                return np.empty((0, nb), dtype=np.float32)
            # Rotations take at most num_gpcs distinct values: gather the
            # cached rolled templates (bit-identical to the scalar path's
            # np.roll).  Small batches fill rows directly; large ones
            # dedupe first so the fill stays one vectorised gather.
            if rot.size <= 64:
                issue = np.empty((rot.size, nb), dtype=np.float32)
                for i, r in enumerate(rot.tolist()):
                    issue[i] = _rolled_template(nb, res, int(r))
            else:
                distinct, inverse = np.unique(rot, return_inverse=True)
                rolled = np.stack([_rolled_template(nb, res, int(r)) for r in distinct])
                issue = rolled[inverse]
        elif rot:
            issue = np.roll(tmpl, -rot)
        else:
            issue = tmpl
        sigma = self._effective_jitter(self.params.block_jitter, contention)
        if u is None:
            return issue + np.float32(1.0)
        times = issue + (np.float32(1.0) + (_JITTER_SPAN * sigma) * u)
        # Stragglers: the top straggler_rate/nb quantile of the same draw
        # stalls far past the pack (cache-miss storms, ECC scrubs), with an
        # Exp(1) delay factor recovered by inverse-CDF from the tail.  Under
        # low contention this is absorbed by the jitter; under full
        # contention it is the only non-discrete perturbation left, giving
        # AO's variability its heavy non-Gaussian tail (Fig 2).
        p = self.params.straggler_rate / nb if nb > 1 else 0.0
        if p > 0:
            thr = 1.0 - p
            mask = u > thr
            if mask.any():
                tail = (u[mask] - thr) / p
                times[mask] += self.params.straggler_delay * (
                    np.float32(1.0) - np.log1p(-tail)
                )
        return times

    def block_arrival_times(self, contention: float = 0.0) -> np.ndarray:
        """Completion time of every block (float32), in block-index order.

        ``arrival[b] = slot(b) / resident + work * jitter``: the first term
        is the (rotated) issue time — wave ``w`` spans ``[w, w+1)`` — and
        the second is the jittered execution time, with contention
        shrinking the jitter toward the residual floor.
        """
        nb = self.launch.n_blocks
        sigma = self._effective_jitter(self.params.block_jitter, contention)
        rot = self._rotation()
        u = (
            self.rng.random(nb, dtype=np.float32)
            if self._needs_block_draw(sigma, nb)
            else None
        )
        return self._block_times_from(rot, u, contention)

    def block_completion_order(self, contention: float = 0.0) -> np.ndarray:
        """Permutation: block indices sorted by completion time.

        This is the order in which SPA's per-block partial sums hit the
        accumulator.  Sorted with :func:`numpy.argsort`'s default introsort
        — deterministic, and row-identical between the 1-D and batched 2-D
        calls (the draw-order contract above).
        """
        return np.argsort(self.block_arrival_times(contention))

    # --------------------------------------------------------------- threads
    def _warp_geometry(self) -> tuple[int, int, int]:
        tpb = self.launch.threads_per_block
        warp = self.launch.device.warp_size
        return tpb, warp, max(1, (tpb + warp - 1) // warp)

    def _warp_keys_from(
        self, block_t: np.ndarray, uw: np.ndarray | None, sigma_w: float
    ) -> np.ndarray:
        """Float32 warp retirement keys from block times + warp draws."""
        _, _, wpb = self._warp_geometry()
        warp_slot = (np.arange(wpb, dtype=np.float32) + np.float32(1.0)) / np.float32(wpb)
        if uw is None:
            noise = warp_slot
        else:
            noise = warp_slot * (np.float32(1.0) + (_JITTER_SPAN * sigma_w) * uw)
        return block_t[..., None] + noise * np.float32(0.5)

    def thread_retirement_order(
        self, n_elements: int, contention: float = 1.0
    ) -> np.ndarray:
        """Permutation of element indices in atomic-retirement order (AO).

        Element ``i`` is handled by thread ``i`` (``tid = threadIdx +
        blockIdx * blockDim``).  Warps retire at::

            block_arrival(block) + warp_slot * jitter(sigma_w) * 0.5

        and a warp's lanes retire contiguously in lane order (hardware
        serializes same-address atomics from one warp in a fixed order),
        so the order is the lane-expansion of the warp-key sort.  With
        ``contention = 1`` (AO's regime) the jitters collapse to the
        residual floor and the order is essentially the rotated issue order
        — the discrete-mode mixture of Fig 2.
        """
        if n_elements < 1:
            raise SchedulerError(f"n_elements must be >= 1, got {n_elements}")
        if n_elements > self.launch.total_threads:
            raise SchedulerError(
                f"{n_elements} elements exceed grid capacity "
                f"{self.launch.total_threads}"
            )
        nb = self.launch.n_blocks
        tpb, warp, wpb = self._warp_geometry()
        block_t = self.block_arrival_times(contention)  # (nb,) f32
        sigma_w = self._effective_jitter(self.params.warp_jitter, contention)
        uw = (
            self.rng.random((nb, wpb), dtype=np.float32)
            if sigma_w > 0
            else None
        )
        keys = self._warp_keys_from(block_t, uw, sigma_w)  # (nb, wpb)
        korder = np.argsort(keys.reshape(-1))
        elems = _element_template(nb, tpb, warp)[korder]
        flat = elems.reshape(-1)
        return flat[flat < n_elements]


class WaveSchedulerBatch:
    """Batched run-axis engine: sample ``R`` runs' orders as one matrix.

    Bit-identical to constructing a fresh :class:`WaveScheduler` per run
    from the same context (each run consumes one
    :meth:`~repro.runtime.RunContext.scheduler` stream, drawn in run
    order — the draw-order contract in the module docstring), but the
    transform, sort and lane expansion are folded over the whole run axis,
    which is what makes the Figs 1–2/Table 5 regenerations fast.

    Parameters
    ----------
    launch:
        Validated launch configuration (shared by all runs).
    ctx:
        Run context supplying one scheduler stream per simulated run.
        May be ``None`` when every order request passes explicit ``rngs``
        (the run-batched reductions' persistent-stream mode).
    params:
        Model knobs; resolved exactly like :class:`WaveScheduler`.
    run_offset:
        Position the context's scheduler ladder at this absolute run index
        before the first draw.  A batch with ``run_offset=off`` samples
        rows bit-identical to rows ``[off, off + n_runs)`` of an
        un-offset batch over the same seed — the shard-derivation contract
        (module docstring) used by the parallel executor.
    """

    def __init__(
        self,
        launch: LaunchConfig,
        ctx: RunContext,
        params: SchedulerParams | None = None,
        *,
        run_offset: int | None = None,
    ) -> None:
        self.launch = launch
        self.ctx = ctx
        if run_offset is not None:
            if ctx is None:
                raise SchedulerError("run_offset needs a ctx to position")
            ctx.seek_runs(run_offset)
        self.params = _resolve_params(launch, params)
        # Borrow the scalar transform helpers so both paths share one
        # definition of the model arithmetic.
        self._proto = WaveScheduler(launch, rng=None, params=self.params)
        # Per-launch draw invariants, hoisted out of the per-call loop (the
        # run-batched reductions sample thousands of small batches).
        dev = launch.device
        self._num_gpcs = dev.num_gpcs
        self._per_gpc = max(1, launch.resident_blocks // dev.num_gpcs)
        self._mod = max(launch.n_blocks, 1)

    # ------------------------------------------------------------------ draws
    @property
    def needs_rotation(self) -> bool:
        """Whether each run draws one raw rotation (``integers(num_gpcs)``).

        Public half of the device-plane cell contract: callers that
        pre-draw a cell's run axis themselves (for
        :meth:`block_completion_orders_from_draws`) consult this instead
        of re-deriving the resolved model's draw decisions.
        """
        return self.params.rotation

    def needs_block_draw(self, contention: float = 0.0) -> bool:
        """Whether each run draws the float32 block vector at this
        contention (positive effective jitter or active stragglers) —
        the other half of the pre-drawn cell contract."""
        proto = self._proto
        sigma = proto._effective_jitter(self.params.block_jitter, contention)
        return proto._needs_block_draw(sigma, self.launch.n_blocks)

    def _streams(self, n_runs: int, rngs) -> RunStreams:
        """The ``n_runs`` streams one request draws: explicit ``rngs``
        (a :class:`~repro.runtime.RunStreams` window or plain
        Generators), else the next ``n_runs`` context streams."""
        if rngs is None:
            if self.ctx is None:
                raise SchedulerError("WaveSchedulerBatch needs a ctx or explicit rngs")
            return self.ctx.schedulers(n_runs)
        if len(rngs) != n_runs:
            raise SchedulerError(f"expected {n_runs} rngs, got {len(rngs)}")
        return RunStreams.wrap(rngs)

    def _draw_block_inputs(
        self, streams: RunStreams, sigma: float
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Draw every run's rotation, then its block vector, mirroring
        the scalar draw order — one batched pass over the window.

        ``streams`` may be a caller's persistent window (the run-batched
        reductions' mode, where each simulated run owns one stream for
        its whole launch *sequence* — the CG draw contract — and every
        launch continues consuming it).
        """
        nb = self.launch.n_blocks
        need_u = self._proto._needs_block_draw(sigma, nb)
        raw, u = streams.block_inputs(
            self._num_gpcs if self.params.rotation else None, nb if need_u else 0
        )
        if raw is None:
            return np.zeros(len(streams), dtype=np.int64), u
        return (raw * self._per_gpc) % self._mod, u

    # ------------------------------------------------------------------ waves
    def block_arrival_times_batch(
        self, n_runs: int, contention: float = 0.0, *, rngs=None
    ) -> np.ndarray:
        """``(n_runs, n_blocks)`` float32 arrival times, one run per row.

        Row ``r`` is bit-identical to
        ``WaveScheduler(launch, ctx.scheduler(), params).block_arrival_times(contention)``
        for the ``r``-th stream of the same context — or, with explicit
        ``rngs``, for ``WaveScheduler(launch, rngs[r], params)``.
        """
        if n_runs < 0:
            raise SchedulerError(f"n_runs must be >= 0, got {n_runs}")
        proto = self._proto
        sigma = proto._effective_jitter(self.params.block_jitter, contention)
        rots, u = self._draw_block_inputs(self._streams(n_runs, rngs), sigma)
        return proto._block_times_from(rots, u, contention)

    def block_completion_orders(
        self, n_runs: int, contention: float = 0.0, *, rngs=None
    ) -> np.ndarray:
        """``(n_runs, n_blocks)`` block completion orders, one run per row."""
        times = self.block_arrival_times_batch(n_runs, contention, rngs=rngs)
        return np.argsort(times, axis=-1)

    def block_completion_orders_from_draws(
        self,
        rots: np.ndarray | None,
        u: np.ndarray | None,
        contention: float = 0.0,
    ) -> np.ndarray:
        """Orders from pre-drawn raw rotation and block-jitter draws.

        The draw-from-matrix half of the **device-plane cell contract**
        (module docstring): the caller owns one anchored stream per sweep
        cell and draws the raw rotation vector (``integers(num_gpcs)``
        values; ``None`` when ``params.rotation`` is off) and the float32
        uniform block matrix rows itself — this method applies exactly
        the transform and sort the per-run paths apply, so row ``r`` is
        bit-identical to a :class:`WaveScheduler` run fed the same two
        draws.  ``u`` may be ``None`` when the resolved model needs no
        block vector (deterministic devices; zero jitter without
        stragglers).
        """
        if rots is None and u is None:
            raise SchedulerError("need rots and/or u (at least one draw set)")
        n_runs = len(rots) if rots is not None else len(u)
        if u is not None and len(u) != n_runs:
            raise SchedulerError(f"expected {n_runs} u rows, got {len(u)}")
        if rots is not None:
            rot_idx = (np.asarray(rots, dtype=np.int64) * self._per_gpc) % self._mod
        else:
            rot_idx = np.zeros(n_runs, dtype=np.int64)
        times = self._proto._block_times_from(rot_idx, u, contention)
        return np.argsort(times, axis=-1)

    # ---------------------------------------------------------------- threads
    def _validate_thread_request(self, n_elements: int) -> None:
        if n_elements < 1:
            raise SchedulerError(f"n_elements must be >= 1, got {n_elements}")
        if n_elements > self.launch.total_threads:
            raise SchedulerError(
                f"{n_elements} elements exceed grid capacity "
                f"{self.launch.total_threads}"
            )

    def _warp_sort_chunks(
        self, n_runs: int, contention: float, chunk_elems: int, rngs=None
    ):
        """Yield per-chunk ``(lo, hi, korder)`` warp-key argsorts.

        Shared machinery of the element- and warp-granular order methods:
        each chunk's draws (per run, in the contracted order — from
        explicit ``rngs`` when given, else fresh context streams) in
        batched passes, batched key build, one axis-1 argsort per chunk.
        """
        from ..fp.summation import iter_run_chunks

        proto = self._proto
        nb = self.launch.n_blocks
        _, _, wpb = proto._warp_geometry()
        w_total = nb * wpb
        sigma = proto._effective_jitter(self.params.block_jitter, contention)
        sigma_w = proto._effective_jitter(self.params.warp_jitter, contention)
        if rngs is not None:
            rngs = self._streams(n_runs, rngs)
        for lo, hi in iter_run_chunks(n_runs, chunk_elems):
            chunk = hi - lo
            streams = self._streams(chunk, None if rngs is None else rngs[lo:hi])
            rots, u = self._draw_block_inputs(streams, sigma)
            uw = streams.random_f32((nb, wpb)) if sigma_w > 0 else None
            block_t = proto._block_times_from(rots, u, contention)
            keys = proto._warp_keys_from(block_t, uw, sigma_w)
            yield lo, hi, np.argsort(keys.reshape(chunk, w_total), axis=-1)

    def thread_retirement_orders(
        self, n_runs: int, n_elements: int, contention: float = 1.0, *, rngs=None
    ) -> np.ndarray:
        """``(n_runs, n_elements)`` retirement orders, one run per row."""
        self._validate_thread_request(n_elements)
        nb = self.launch.n_blocks
        tpb, warp, _ = self._proto._warp_geometry()
        tmpl = _element_template(nb, tpb, warp)
        out = np.empty((n_runs, n_elements), dtype=tmpl.dtype)
        for lo, hi, korder in self._warp_sort_chunks(
            n_runs, contention, tmpl.size, rngs
        ):
            flat = tmpl[korder].reshape(hi - lo, -1)
            out[lo:hi] = flat[flat < n_elements].reshape(hi - lo, n_elements)
        return out

    def thread_retirement_warp_orders(
        self, n_runs: int, n_elements: int, contention: float = 1.0, *, rngs=None
    ) -> np.ndarray:
        """``(n_runs, n_elements / warp)`` retirement orders at warp
        granularity.

        Requires warp-aligned geometry (``threads_per_block`` and
        ``n_elements`` both multiples of the warp size), where every warp's
        elements are the contiguous id range ``[w * warp, (w+1) * warp)``
        retiring in lane order.  Row ``r`` of the result lists the warp ids
        in retirement order — ``x.reshape(-1, warp)[row].ravel()`` is
        bit-identical to ``x[thread_retirement_order(...)]``, without ever
        materialising the element-level permutation.  This is the fast path
        of the AO experiments (one warp-slice gather instead of ``n``
        scattered element reads per run).
        """
        self._validate_thread_request(n_elements)
        tpb, warp, _ = self._proto._warp_geometry()
        if tpb % warp or n_elements % warp:
            raise SchedulerError(
                "warp-granular orders need threads_per_block and n_elements "
                f"to be multiples of the warp size {warp}; got "
                f"tpb={tpb}, n_elements={n_elements}"
            )
        # With warp-aligned geometry, flat warp w covers element ids
        # [w * warp, (w+1) * warp) — so exactly the first n/warp warps carry
        # elements, and dropping the rest from the key sort leaves the warp
        # retirement sequence.
        n_warps = n_elements // warp
        w_total = self.launch.n_blocks * max(1, (tpb + warp - 1) // warp)
        out = np.empty((n_runs, n_warps), dtype=np.int64)
        for lo, hi, korder in self._warp_sort_chunks(n_runs, contention, w_total, rngs):
            out[lo:hi] = korder[korder < n_warps].reshape(hi - lo, n_warps)
        return out
