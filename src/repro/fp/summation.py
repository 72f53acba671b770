"""Ordered floating-point folds and tree reductions.

Floating-point addition is commutative but **not associative**: the value of
``sum(x)`` depends on the association order.  Every algorithm here computes
the same mathematical sum with a *different, precisely specified* order:

* :func:`serial_sum` — left fold in storage order (the sequential reference
  ``S_D`` of the paper).
* :func:`permuted_sum` — left fold after applying a permutation (the model
  of an asynchronous reduction, ``S_ND``).
* :func:`pairwise_sum` — balanced binary tree (the GPU shared-memory
  reduction; also NumPy's own strategy, but implemented explicitly so the
  association order is under our control, not NumPy's block size).
* :func:`block_partials` / :func:`blocked_pairwise_sum` — the two-stage GPU
  scheme: per-thread-block tree reduction followed by a combine stage.

All folds use IEEE-754 arithmetic via NumPy; results are bit-exact functions
of the association order, which is what makes the variability experiments
meaningful.

Implementation notes
--------------------
Strictly-ordered folds use :func:`numpy.add.reduce` on a 1-D array, which
NumPy documents/implements as pairwise **only** through ``np.sum``'s
``add.reduce`` fast path; to guarantee a *sequential* left fold regardless of
NumPy version we use ``np.add.accumulate`` (cumulative sum is inherently
sequential) and take the last element.  For the tree reductions we reshape
to powers of two and halve, which vectorises the per-level adds while fixing
the association order exactly.

The batched run-axis engine
---------------------------
The variability protocol (paper §III-C) repeats a non-deterministic fold
``R`` times per array.  :func:`permuted_sums` and :func:`batched_tree_fold`
fold a whole ``(R, n)`` run matrix at once, **bit-identical** per row to the
scalar :func:`permuted_sum` / :func:`tree_fold` calls: every row fold
performs the exact same IEEE-754 operation sequence, only batched (the
run axis is cut into chunks, and each chunk's rows are folded in
lockstep).  :data:`DEFAULT_RUN_CHUNK_ELEMENTS` bounds the transient
``(chunk, n)`` matrices so the run axis never blows the memory budget at
``n = 10**6`` (see :func:`iter_run_chunks`).  :func:`permuted_sums` and
:func:`repro.gpusim.atomics.batched_atomic_fold` are one sequential fold
(the paper's ``S_ND``) over shared or per-run values, so both run through
one private core and one compiled kernel.  The scheduler side of the
engine — sampling all ``R`` execution orders as one matrix under the same
bit-exactness contract — lives in
:class:`repro.gpusim.scheduler.WaveSchedulerBatch`.  Every order the
folds consume comes from a sort of unique packed integer keys (each key
with its index), so it is ``np.argsort(kind="stable")``'s order whichever
SIMD target NumPy's sort dispatches to: block and warp orders through
``repro.gpusim.scheduler._stable_row_order``, the transposed
convolutions' raced tap orders through
:meth:`~repro.runtime.RunStreams.raced_tap_keys`.

Beyond the fold matrices, the same engine batches the per-run *block*
stage: :func:`block_partials_runs` evaluates every row's two-stage tile
partials in lockstep (the block half of the run-batched reductions,
:meth:`repro.reductions.base.ReductionImpl.sum_runs` — and the per-array
partials of the Fig 1–2 ``(arrays, runs, n)`` passes), and
:func:`repro.gpusim.atomics.batched_atomic_fold` accepts per-run ``(R,
n)`` values for the combine stage.  Above the scalar kernels, the autograd
stack carries the same run axis end to end: run-batched tensors
(:mod:`repro.tensor`), R-lockstep layers and a vectorised Adam, with each
run's ND ``index_add`` randomness drawn from that run's own scheduler
stream.  The draw-order contracts all these batched consumers rely on —
the single ``integers(len(chunk_ladder))`` draw of ``cumsum``'s chunk
ladder, the one-stream-per-solve sequence of the CG run batch, the
one-stream-per-training-run layout of the GNN stack, the anchored
per-(device, array) **device planes** of the cross-architecture sweeps
(whole run axis drawn from one cell stream: raw rotations up front, then
prefix-stable float32 block rows), the run-granular
per-(device, array, run) plane variant of the thread-order sweeps, and
the collective layer's per-(run, edge) delay cells plus per-(device,
run) rank-partial planes (:mod:`repro.gpusim.collectives` — one float32
word per edge cell, nothing under the deterministic in-order policy) —
are catalogued in :mod:`repro.gpusim.scheduler`'s module docstring.
Experiments *declare* which layout each axis uses instead of re-wiring
it: the axis-declaration contract (``Experiment.axes`` resolved by
:func:`repro.experiments.axes.plan_sweep`) maps declared order to ladder
nesting, derives every run-block base as ``anchor + row_major_flat(outer
coords) * n_runs``, excludes anchored device axes and seed-ensemble axes
from the ladder span, and hands the executor its shard windows — see the
scheduler catalogue's "axis-declaration contract" section.

The sequential folds are also the engine's compiled hot path: when the
:mod:`repro.backend` registry selects the compiled backend
(``REPRO_BACKEND=compiled|auto``), :func:`permuted_sums` and
:func:`~repro.gpusim.atomics.batched_atomic_fold` dispatch to the
``batched_atomic_fold`` C kernel, which implements the **identical
accumulation-order contract** — the same strictly sequential row scans,
in the same f32/f64 intermediate widths, with the same −0.0/NaN/inf
propagation — so the backends differ in wall-clock only, never in bits.
The tree folds have no kernel: NumPy's lockstep halving is already as
fast as the experiments can measure.  RNG draws are untouched: the backend
sits strictly below the draw catalogue (orders and permutations are
sampled before dispatch).

Because every per-run stream is a pure function of ``(seed, run_index)``,
the run axis also *partitions*: the sharded executor
(:mod:`repro.harness.parallel`) splits ``R`` runs across worker processes,
each shard replaying its window of the ladder via
``RunContext(run_offset=...)`` / ``seek_runs`` and folding only its own
rows — per-run fold bits are untouched by the split (row folds depend only
on their own row), so concatenated shard results are bit-identical to the
single-process run matrix.  The ``run_offset`` extension of the contract
is documented in :mod:`repro.gpusim.scheduler` and fuzz-pinned in
``tests/test_batched_engine.py``.  A window of run streams may be derived
in one :meth:`~repro.runtime.RunContext.schedulers` call, with bits
identical to that many ``scheduler()`` calls.
"""

from __future__ import annotations

import numpy as np

from .. import backend as _backend
from ..errors import ConfigurationError, ShapeError

__all__ = [
    "serial_sum",
    "reverse_sum",
    "permuted_sum",
    "permuted_sums",
    "pairwise_sum",
    "blocked_pairwise_sum",
    "block_partials",
    "block_partials_runs",
    "tree_fold",
    "batched_tree_fold",
    "iter_run_chunks",
    "DEFAULT_RUN_CHUNK_ELEMENTS",
]

#: Default memory budget of the batched engine: max elements materialised
#: per run chunk (4M float64 elements = 32 MiB per transient matrix).
DEFAULT_RUN_CHUNK_ELEMENTS = 4 << 20


def iter_run_chunks(n_runs: int, elems_per_run: int):
    """Yield ``(lo, hi)`` run-index slices bounding chunk memory.

    Each chunk fits :data:`DEFAULT_RUN_CHUNK_ELEMENTS` elements when
    every run materialises ``elems_per_run`` of them (always at least one
    run per chunk).
    """
    step = max(1, DEFAULT_RUN_CHUNK_ELEMENTS // max(elems_per_run, 1))
    for lo in range(0, n_runs, step):
        yield lo, min(lo + step, n_runs)


def _sequential_folds(
    arr: np.ndarray, om: np.ndarray, error: type[Exception]
) -> np.ndarray:
    """Left folds of ``arr`` in every row order of ``om``: the core of
    :func:`permuted_sums` and :func:`repro.gpusim.atomics.
    batched_atomic_fold`.

    ``arr`` is ``(n,)`` values shared by all runs or ``(R, n)`` per-run
    values; ``om`` is an ``(R, n)`` index matrix whose shapes the caller
    validated.  Returns ``(R,)`` float64, row ``r`` bit-identical to the
    1-D ``np.add.accumulate(values_r[om[r]])[-1]``.  An index outside
    ``[0, n)`` raises ``error``, the caller's named error, on both
    backends: the kernel checks each index before reading through it and
    hands such orders back, and the NumPy path checks the whole matrix
    once, before its gathers could wrap a negative index.
    """
    n_runs, n = om.shape
    if n == 0:
        return np.zeros(n_runs, dtype=np.float64)
    per_run = arr.ndim == 2
    impl = _backend.resolve("batched_atomic_fold")
    if impl is not None:
        res = impl(arr, om, per_run)
        if res is not NotImplemented:
            return res
    if om.min() < 0 or om.max() >= n:
        raise error(f"fold orders hold indices outside [0, {n})")
    out = np.empty(n_runs, dtype=np.float64)
    # The accumulate must run in the values' own dtype (bit-exactness with
    # the scalar fold).  Rows are independent, so accumulating the whole
    # gathered chunk along axis 1 (in place, eliding the cumsum copies)
    # performs the exact same per-row IEEE operation sequence as a per-row
    # loop — one ufunc call per chunk instead of one per run.  Small
    # per-run batches keep the row loop: the gather ``arr[r][om[r]]`` is
    # cheaper than building take_along_axis index grids there (the
    # run-batched reductions sample thousands of tiny batches).
    if per_run and n_runs < 64:
        buf = np.empty(n, dtype=arr.dtype)
        for r in range(n_runs):
            np.add.accumulate(arr[r][om[r]], out=buf)
            out[r] = buf[-1]
        return out
    for lo, hi in iter_run_chunks(n_runs, n):
        gathered = (
            np.take_along_axis(arr[lo:hi], om[lo:hi], axis=1)
            if per_run
            else arr[om[lo:hi]]
        )
        np.add.accumulate(gathered, axis=1, out=gathered)
        out[lo:hi] = gathered[:, -1]
    return out


def _as_1d(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-D array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


def serial_sum(x) -> float:
    """Strict left-to-right fold: ``((x0 + x1) + x2) + ...``.

    This is the deterministic reference ``S_D`` in the paper's Table 1.
    Returns the input dtype's value as a Python float (bit pattern preserved
    for float64; float32 folds are computed in float32 then widened).
    """
    arr = _as_1d(x)
    if arr.size == 0:
        return 0.0
    # np.add.accumulate is a strictly sequential scan by definition.
    return float(np.add.accumulate(arr)[-1])


def reverse_sum(x) -> float:
    """Strict right-to-left fold — the simplest non-trivial reordering."""
    arr = _as_1d(x)
    if arr.size == 0:
        return 0.0
    return float(np.add.accumulate(arr[::-1])[-1])


def permuted_sum(x, permutation) -> float:
    """Left fold of ``x[permutation]`` — the paper's model of an
    asynchronous (unspecified-order) reduction ``S_ND``.

    Parameters
    ----------
    x:
        1-D float array.
    permutation:
        Integer array containing each index exactly once.  Validated (cheap
        relative to the fold) because a silent double-count would corrupt
        every downstream variability statistic.
    """
    arr = _as_1d(x)
    perm = np.asarray(permutation)
    if perm.shape != arr.shape:
        raise ShapeError(f"permutation shape {perm.shape} != data shape {arr.shape}")
    if arr.size and (perm.min() < 0 or perm.max() >= arr.size):
        raise ConfigurationError("permutation contains out-of-range indices")
    if arr.size == 0:
        return 0.0
    return float(np.add.accumulate(arr[perm])[-1])


def permuted_sums(x, perms) -> np.ndarray:
    """Left folds of ``x[perms[r]]`` for every row ``r`` — the batched
    :func:`permuted_sum`.

    Parameters
    ----------
    x:
        1-D float array (the fold runs in its dtype, as in
        :func:`permuted_sum`).
    perms:
        ``(R, n)`` integer matrix; each row is a permutation of ``x``'s
        indices.  Validated once for the whole batch.

    Returns
    -------
    numpy.ndarray
        ``(R,)`` float64 fold results, bit-identical per row to
        ``permuted_sum(x, perms[r])``.
    """
    arr = _as_1d(x)
    pm = np.asarray(perms)
    if pm.ndim != 2:
        raise ShapeError(f"perms must be 2-D (runs, n), got shape {pm.shape}")
    if pm.shape[1] != arr.size:
        raise ShapeError(f"perms row length {pm.shape[1]} != data length {arr.size}")
    return _sequential_folds(arr, pm, ConfigurationError)


def tree_fold(x) -> float:
    """Balanced binary-tree reduction of a 1-D array.

    Pads with zeros to the next power of two (adding a zero is exact in
    IEEE-754, so padding never changes the result), then repeatedly adds the
    upper half onto the lower half — exactly the shared-memory loop of the
    paper's Listing 1 (``smem[i] += smem[i + offset]``).
    """
    arr = _as_1d(x)
    n = arr.size
    if n == 0:
        return 0.0
    if n == 1:
        return float(arr[0])
    p = 1 << (int(n - 1).bit_length())
    buf = np.zeros(p, dtype=arr.dtype)
    buf[:n] = arr
    half = p // 2
    while half >= 1:
        buf[:half] = buf[:half] + buf[half : 2 * half]
        half //= 2
    return float(buf[0])


def batched_tree_fold(xs) -> np.ndarray:
    """Balanced binary-tree reduction of every row of an ``(R, n)`` matrix.

    The batched :func:`tree_fold`: rows are zero-padded to the next power
    of two and halved in lockstep, so each row performs the exact
    per-level addition sequence of the scalar tree — bit-identical results,
    one vectorised pass per tree level instead of ``R``.

    Parameters
    ----------
    xs:
        ``(R, n)`` float matrix, one run per row.

    Returns
    -------
    numpy.ndarray
        ``(R,)`` float64 tree-fold results.
    """
    mat = np.asarray(xs)
    if mat.ndim != 2:
        raise ShapeError(f"expected a 2-D (runs, n) matrix, got shape {mat.shape}")
    if not np.issubdtype(mat.dtype, np.floating):
        mat = mat.astype(np.float64)
    n_runs, n = mat.shape
    out = np.empty(n_runs, dtype=np.float64)
    if n == 0:
        out.fill(0.0)
        return out
    if n == 1:
        out[:] = mat[:, 0]
        return out
    p = 1 << (int(n - 1).bit_length())
    for lo, hi in iter_run_chunks(n_runs, p):
        buf = np.zeros((hi - lo, p), dtype=mat.dtype)
        buf[:, :n] = mat[lo:hi]
        half = p // 2
        while half >= 1:
            buf[:, :half] = buf[:, :half] + buf[:, half : 2 * half]
            half //= 2
        out[lo:hi] = buf[:, 0]
    return out


def pairwise_sum(x, block: int = 1) -> float:
    """Tree reduction with an optional serial base case of ``block`` leaves.

    ``block=1`` is the pure tree (:func:`tree_fold`).  Larger blocks model
    per-thread serial accumulation before the tree combine — the usual GPU
    kernel structure when there are more elements than threads.
    """
    arr = _as_1d(x)
    if block < 1:
        raise ConfigurationError(f"block must be >= 1, got {block}")
    if block == 1:
        return tree_fold(arr)
    n = arr.size
    if n == 0:
        return 0.0
    n_chunks = (n + block - 1) // block
    buf = np.zeros(n_chunks * block, dtype=arr.dtype)
    buf[:n] = arr
    # Serial fold within each chunk (vectorised across chunks via cumsum on
    # the trailing axis), then a tree over chunk partials.
    chunks = buf.reshape(n_chunks, block)
    partials = np.add.accumulate(chunks, axis=1)[:, -1]
    return tree_fold(partials)


def block_partials(x, n_blocks: int, block_size: int | None = None) -> np.ndarray:
    """Stage 1 of the GPU two-stage reduction: per-block tree partials.

    The array is split into ``n_blocks`` contiguous tiles (the data-blocking
    of §III-A); each tile is reduced with the shared-memory tree algorithm.
    Tiles are padded with exact zeros.

    Parameters
    ----------
    x:
        1-D array.
    n_blocks:
        Number of thread blocks (``Nb``).
    block_size:
        Elements per tile; default ``ceil(n / n_blocks)``.  When given, it
        must satisfy ``n_blocks * block_size >= n``.

    Returns
    -------
    numpy.ndarray
        ``n_blocks`` partial sums, in block-index order, dtype preserved.
    """
    arr = _as_1d(x)
    if n_blocks < 1:
        raise ConfigurationError(f"n_blocks must be >= 1, got {n_blocks}")
    n = arr.size
    if block_size is None:
        block_size = max(1, (n + n_blocks - 1) // n_blocks)
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
    if n_blocks * block_size < n:
        raise ConfigurationError(
            f"n_blocks*block_size = {n_blocks * block_size} cannot cover {n} elements"
        )
    p = 1 << (int(max(block_size - 1, 0)).bit_length() or 1)
    # Fill via a contiguous staging buffer: slicing buf[:, :block_size]
    # and reshaping would copy (non-contiguous view), losing the writes.
    staged = np.zeros(n_blocks * block_size, dtype=arr.dtype)
    staged[:n] = arr
    if p == block_size:
        # Power-of-two tiles: the staging buffer *is* the tree buffer.
        buf = staged.reshape(n_blocks, p)
    else:
        buf = np.zeros((n_blocks, p), dtype=arr.dtype)
        buf[:, :block_size] = staged.reshape(n_blocks, block_size)
    # Tree reduction across the tile axis, all blocks in lockstep — this is
    # exactly the __syncthreads-separated halving loop, vectorised.
    half = p // 2
    while half >= 1:
        buf[:, :half] = buf[:, :half] + buf[:, half : 2 * half]
        half //= 2
    return buf[:, 0].copy()


def block_partials_runs(xs, n_blocks: int, block_size: int | None = None) -> np.ndarray:
    """Per-block tree partials of every row of an ``(R, n)`` matrix.

    The batched :func:`block_partials` — one run per row, tiles of all runs
    tree-reduced in lockstep.  Row ``r`` of the result is bit-identical to
    ``block_partials(xs[r], n_blocks, block_size)``: same tiling, same
    zero padding, same per-level halving adds.  This is the block stage of
    the run-batched reductions (:meth:`repro.reductions.base.ReductionImpl.
    sum_runs`) that the CG run batch folds its inner products through.

    Parameters
    ----------
    xs:
        ``(R, n)`` float matrix, one run per row.
    n_blocks, block_size:
        As in :func:`block_partials`.

    Returns
    -------
    numpy.ndarray
        ``(R, n_blocks)`` partial sums, dtype preserved.
    """
    mat = np.asarray(xs)
    if mat.ndim != 2:
        raise ShapeError(f"expected a 2-D (runs, n) matrix, got shape {mat.shape}")
    if mat.dtype.kind != "f":
        mat = mat.astype(np.float64)
    if n_blocks < 1:
        raise ConfigurationError(f"n_blocks must be >= 1, got {n_blocks}")
    n_runs, n = mat.shape
    if block_size is None:
        block_size = max(1, (n + n_blocks - 1) // n_blocks)
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
    if n_blocks * block_size < n:
        raise ConfigurationError(
            f"n_blocks*block_size = {n_blocks * block_size} cannot cover {n} elements"
        )
    p = 1 << (int(max(block_size - 1, 0)).bit_length() or 1)
    if n_runs * n_blocks * p <= DEFAULT_RUN_CHUNK_ELEMENTS:
        spans = ((0, n_runs),)  # single chunk: skip the generator machinery
    else:
        spans = iter_run_chunks(n_runs, n_blocks * p)
    out = np.empty((n_runs, n_blocks), dtype=mat.dtype)
    for lo, hi in spans:
        chunk = hi - lo
        staged = np.zeros((chunk, n_blocks * block_size), dtype=mat.dtype)
        staged[:, :n] = mat[lo:hi]
        if p == block_size:
            buf = staged.reshape(chunk, n_blocks, p)
        else:
            buf = np.zeros((chunk, n_blocks, p), dtype=mat.dtype)
            buf[:, :, :block_size] = staged.reshape(chunk, n_blocks, block_size)
        half = p // 2
        while half >= 1:
            buf[:, :, :half] = buf[:, :, :half] + buf[:, :, half : 2 * half]
            half //= 2
        out[lo:hi] = buf[:, :, 0]
    return out


def blocked_pairwise_sum(x, n_blocks: int, block_size: int | None = None) -> float:
    """Deterministic two-stage reduction: tree partials + tree combine.

    This is the arithmetic performed by the paper's SPTR implementation
    (single-pass with tree reduction): the same block-tree algorithm is
    applied to the partial-sum array.
    """
    partials = block_partials(x, n_blocks, block_size)
    return tree_fold(partials)
