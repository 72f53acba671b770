"""The six parallel-sum strategies (paper §III-A, Listing 1, Table 2).

Every strategy decomposes into (a) a per-block stage and (b) a combine
stage; the association order of each stage is what distinguishes them:

* **AO** — no block stage; every element is one same-address ``atomicAdd``.
  The fold order is the thread retirement order sampled at maximal
  contention: non-deterministic.
* **SPA** — deterministic shared-memory tree per block, partials combined
  by ``atomicAdd`` in block completion order: non-deterministic.
* **SPTR** — tree per block, then the *last* block (retirement counter +
  ``__threadfence``) tree-reduces the partials in block-index order:
  deterministic.
* **SPRG** — tree per block, last block folds partials serially
  (``res[0] += res[i]``, Listing 1): deterministic.
* **TPRC** — tree per block (kernel 1), stream-ordered D2H copy, host
  serial fold: deterministic (two launches; stream ordering is the
  synchronisation).  TPRC and SPRG share one association — block trees,
  then a serial fold of the partials in block-index order — so they share
  one fold and return the same bits; they differ only in their Table 2
  metadata and in the cost model (:mod:`repro.gpusim.costmodel`).
* **CU** — CUB-style fused reduction: per-thread serial accumulation over a
  blocked tile, tree within the block, deterministic combine: deterministic.

Each strategy is written once, over an ``(R, n)`` matrix with one
simulated run per row (:meth:`~repro.reductions.base.ReductionImpl.
sum_runs`); a single sum is the one-row case.  The retirement counter and
the stream ordering that make SPTR, SPRG, TPRC and CU deterministic carry
no arithmetic, so they are not simulated: the association they guarantee
is the fold.
"""

from __future__ import annotations

import numpy as np

from ..fp.summation import batched_tree_fold, block_partials_runs
from ..gpusim.atomics import batched_atomic_fold
from .base import ReductionImpl, ReductionProperties

__all__ = [
    "AtomicOnly",
    "SinglePassAtomic",
    "SinglePassTreeReduction",
    "SinglePassRecursiveGPU",
    "TwoPassReduceCPU",
    "CubStyle",
]

#: Elements each CU thread accumulates serially (CUB's per-thread tile).
_CU_THREAD_ITEMS = 4


def _serial_fold_rows(mat: np.ndarray) -> np.ndarray:
    """Strict left-to-right fold of every row, in the matrix's dtype."""
    return np.add.accumulate(mat, axis=1)[:, -1].astype(np.float64)


class AtomicOnly(ReductionImpl):
    """AO: one ``atomicAdd`` per element (Listing 1, ``reduce_atomic_only``).

    Sequential in effect — the accumulator serializes every addition — yet
    non-deterministic, because the retirement order is runtime dependent.
    Contention is maximal (``n`` atomics to one address), so the sampled
    order is nearly a pure function of the scheduler's discrete rotation
    mode; see Fig 2's non-normal variability distribution.
    """

    properties = ReductionProperties(
        name="ao",
        long_name="atomicAdd-only",
        deterministic=False,
        n_kernels=1,
        synchronization="atomicAdd",
    )

    #: Contention level passed to the scheduler (same-address atomic per
    #: element = fully serialized queue).
    contention = 1.0

    def _reduce_runs(self, mat, launch, rngs):
        orders = self._sampler(launch).thread_retirement_orders(
            mat.shape[0], mat.shape[1], contention=self.contention, rngs=rngs
        )
        return batched_atomic_fold(mat, orders)


class SinglePassAtomic(ReductionImpl):
    """SPA: per-block tree + ``atomicAdd`` of partials.

    The block stage is bitwise deterministic; the combine order is the
    block completion order at *low* contention (``Nb`` atomics spread over
    the kernel's lifetime), i.e. close to a uniform permutation — which is
    why SPA's ``Vs`` converges to a normal distribution (Fig 1).
    """

    properties = ReductionProperties(
        name="spa",
        long_name="single-pass with atomicAdd",
        deterministic=False,
        n_kernels=1,
        synchronization="atomicAdd",
    )

    contention = 0.0

    def _reduce_runs(self, mat, launch, rngs):
        # Per-run block partials tree-reduced in lockstep, completion
        # orders sampled as one matrix (each run's rotation + jitter drawn
        # from its own stream, in run order), and the combine folded
        # batched.
        partials = block_partials_runs(mat, launch.n_blocks)
        orders = self._sampler(launch).block_completion_orders(
            mat.shape[0], contention=self.contention, rngs=rngs
        )
        return batched_atomic_fold(partials, orders)


class SinglePassTreeReduction(ReductionImpl):
    """SPTR: per-block tree + last-block tree combine.

    The retirement counter (``atomicInc`` + ``__threadfence``) elects the
    last block; *which* block performs the combine varies run to run, but
    the combine reads the partial array in block-index order, so the result
    is deterministic by construction.
    """

    properties = ReductionProperties(
        name="sptr",
        long_name="single-pass with tree reduction",
        deterministic=True,
        n_kernels=1,
        synchronization="__threadfence",
    )

    def _reduce_runs(self, mat, launch, rngs):
        # Per-run partials + tree combine in lockstep.
        partials = block_partials_runs(mat, launch.n_blocks)
        return batched_tree_fold(partials)


class SinglePassRecursiveGPU(ReductionImpl):
    """SPRG: per-block tree + last-block serial fold (Listing 1's
    ``for (i = 1; ...) res[0] += res[i]``).  Deterministic."""

    properties = ReductionProperties(
        name="sprg",
        long_name="single-pass with recursive sum on GPU",
        deterministic=True,
        n_kernels=1,
        synchronization="__threadfence",
    )

    def _reduce_runs(self, mat, launch, rngs):
        return _serial_fold_rows(block_partials_runs(mat, launch.n_blocks))


class TwoPassReduceCPU(ReductionImpl):
    """TPRC: kernel 1 computes block partials; a stream-ordered D2H copy
    hands them to the host, which folds serially.

    Deterministic.  The paper finds TPRC "more sensitive to compiler
    optimizations because of vectorization" (§III-A); the host fold here is
    the strict serial loop of an un-vectorised build, so TPRC folds SPRG's
    association and returns SPRG's bits.
    """

    properties = ReductionProperties(
        name="tprc",
        long_name="two-passes with final reduction on CPU",
        deterministic=True,
        n_kernels=2,
        synchronization="stream synchronization",
    )

    _reduce_runs = SinglePassRecursiveGPU._reduce_runs


class CubStyle(ReductionImpl):
    """CU: CUB/hipCUB ``DeviceReduce``-style fused kernel.

    Each thread serially accumulates four elements of a **blocked
    arrangement** tile, the block tree-reduces the per-thread
    registers, and a deterministic carry-out combine (same retirement
    counter technique) folds tile partials in tile order.  Deterministic;
    the exact association differs from SPTR's, so CU's bit pattern is its
    own — tests pin that the *value* is deterministic, not that it matches
    other strategies bitwise.
    """

    properties = ReductionProperties(
        name="cu",
        long_name="CUB/hipCUB DeviceReduce",
        deterministic=True,
        n_kernels=1,
        synchronization="__threadfence",
    )

    def _reduce_runs(self, mat, launch, rngs):
        n_runs, n = mat.shape
        tpb = launch.threads_per_block
        tile = tpb * _CU_THREAD_ITEMS
        n_tiles = (n + tile - 1) // tile
        buf = np.zeros((n_runs, n_tiles * tile), dtype=mat.dtype)
        buf[:, :n] = mat
        # Blocked arrangement: thread t of a tile accumulates items
        # [t*k, (t+1)*k) serially (register accumulation).
        per_thread = buf.reshape(n_runs, n_tiles, tpb, _CU_THREAD_ITEMS)
        regs = np.add.accumulate(per_thread, axis=3)[..., -1]  # (R, tiles, tpb)
        # Tree-reduce every tile in lockstep (tpb is a power of two).
        half = tpb // 2
        while half >= 1:
            regs = regs[..., :half] + regs[..., half : 2 * half]
            half //= 2
        return _serial_fold_rows(regs[..., 0])
