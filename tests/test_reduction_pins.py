"""Pinned bits of the order sampler and of the six reduction strategies.

Every order :class:`~repro.gpusim.WaveSchedulerBatch` samples and every
sum a strategy returns from :meth:`~repro.reductions.base.ReductionImpl.sum`
is hashed here and compared with a SHA-256 digest recorded before the
per-run scheduler and the per-run ``_reduce`` twins were folded into the
run-batched path.  The digests are the oracle that the one remaining path
computes what both used to: a change to a draw, a transform, a sort or a
fold association moves one of them.  Both compute backends must match.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.gpusim import LaunchConfig, SchedulerParams, WaveSchedulerBatch, get_device
from repro.reductions import REDUCTION_NAMES, get_reduction
from repro.runtime import RunContext


@pytest.fixture(autouse=True)
def _both_backends(backend):
    """Every pin holds under the NumPy engine and the compiled kernels."""


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _launch(nb: int, tpb: int) -> LaunchConfig:
    return LaunchConfig(device=get_device("v100"), n_blocks=nb, threads_per_block=tpb)


#: Input sizes of the sum pins: one element, odd sizes, a non-power-of-two
#: block count and a multi-wave grid.
_SUM_SIZES = (1, 17, 100, 1000, 4097, 100_000)

_SUM_PINS = {
    "ao": "285a6f824f4a7ca6",
    "spa": "15d5823c640246c4",
    "sptr": "144f5aa42fd992f8",
    "sprg": "20d5b1654e0f127d",
    "tprc": "20d5b1654e0f127d",
    "cu": "7bed43699316d325",
}


@pytest.mark.parametrize("name", REDUCTION_NAMES)
def test_sum_bits(name):
    """``sum`` over float32/float64 inputs of every size, with 64 and 128
    threads per block, each at seeds 0-2 drawn from a context stream and
    from an explicit Generator."""
    sums = []
    for dtype in (np.float32, np.float64):
        for n in _SUM_SIZES:
            x = np.random.default_rng(n).standard_normal(n).astype(dtype)
            for tpb in (64, 128):
                impl = get_reduction(name, threads_per_block=tpb)
                for seed in (0, 1, 2):
                    sums.append(impl.sum(x, ctx=RunContext(seed)))
                    sums.append(impl.sum(x, rng=np.random.default_rng(seed)))
    assert len(sums) == 144
    assert _digest([np.array(sums, dtype=np.float64)]) == _SUM_PINS[name]


#: The geometry grids of the scheduler's order methods: ``(n_blocks,
#: threads_per_block)`` for block orders, plus an element count for
#: thread orders (misaligned warps, partial last blocks and a one-wave
#: grid included).
_BLOCK_GRID = ((1, 32), (5, 64), (100, 48), (313, 64))
_THREAD_GRID = ((5, 64, 17), (5, 64, 320), (100, 48, 4000), (4, 33, 130), (2, 32, 64))
_WARP_GRID = ((5, 64, 320), (2, 32, 64), (10, 64, 640))


def test_block_completion_order_bits():
    orders = [
        WaveSchedulerBatch(_launch(nb, tpb), RunContext(7)).block_completion_orders(
            6, contention=contention
        )
        for nb, tpb in _BLOCK_GRID
        for contention in (0.0, 0.5, 1.0)
    ]
    assert _digest(orders) == "528bb91bfb187c3e"


#: The straggler tail's float32 ``log1p`` is not exactly rounded on every
#: SIMD target NumPy dispatches to, so the arrival times are pinned
#: without stragglers (pure float32 ``+``/``*`` of the draws); the orders
#: and sums above and below pin the tail through what it reorders.
_NO_STRAGGLERS = SchedulerParams(straggler_rate=0.0)


def test_block_arrival_time_bits():
    times = [
        WaveSchedulerBatch(
            _launch(nb, tpb), RunContext(2), _NO_STRAGGLERS
        ).block_arrival_times_batch(4, contention)
        for nb, tpb in _BLOCK_GRID + ((37, 64),)
        for contention in (0.0, 0.3, 1.0)
    ]
    assert _digest(times) == "cc26bfc5b786e05c"


def test_thread_retirement_order_bits():
    orders = [
        WaveSchedulerBatch(_launch(nb, tpb), RunContext(9)).thread_retirement_orders(
            5, n, contention=contention
        )
        for nb, tpb, n in _THREAD_GRID
        for contention in (0.0, 1.0)
    ]
    assert _digest(orders) == "467b31eb9d9512a1"


def test_thread_retirement_warp_order_bits():
    orders = [
        WaveSchedulerBatch(_launch(nb, tpb), RunContext(4)).thread_retirement_warp_orders(
            5, n, contention=contention
        )
        for nb, tpb, n in _WARP_GRID
        for contention in (0.0, 1.0)
    ]
    assert _digest(orders) == "10081530a640a2b9"
