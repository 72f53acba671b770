"""The order contract: every block, warp and conv-tap order is a stable sort.

SPA folds block partials in block-completion order, AO in warp-retirement
order and ConvTranspose its raced taps in a shuffled order, so the sort
that produces each order decides the bits.  Each sort packs its keys with
their index into unique integers, so any correct sort returns the one
order ``np.argsort(kind="stable")`` returns, whichever SIMD target NumPy
dispatches to.  CI runs this file with NumPy's dispatch held to AVX2 and
to baseline; the pinned digests below were taken under AVX-512 and must
hold under all three.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchedulerError
from repro.gpusim import LaunchConfig, SchedulerParams, WaveSchedulerBatch, get_device
from repro.gpusim.scheduler import _element_template, _stable_row_order
from repro.ops import conv_transpose_runs
from repro.runtime import TAP_KEY_MASK, RunContext, _pack_tap_keys


@pytest.fixture(autouse=True)
def _both_backends(backend):
    """Every contract holds under the NumPy engine and the compiled
    kernels (the tap keys are drawn in C under the latter)."""


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()[:16]


def _stable(keys: np.ndarray) -> np.ndarray:
    return np.argsort(keys, axis=-1, kind="stable")


#: Straggler-free model: block times are pure float32 ``+``/``*`` of the
#: draws, exactly rounded on every SIMD target (the straggler tail's
#: ``log1p`` is not), so the pinned orders isolate the sort.
_PARAMS = SchedulerParams(straggler_rate=0.0)


def _launch(n_blocks: int = 1563, tpb: int = 64) -> LaunchConfig:
    """fig1's SPA geometry (100,000 elements on the V100)."""
    return LaunchConfig(
        device=get_device("v100"), n_blocks=n_blocks, threads_per_block=tpb,
        shared_mem_bytes=tpb * 8,
    )


def _assert_has_ties(keys: np.ndarray) -> None:
    srt = np.sort(keys, axis=-1)
    assert (srt[..., 1:] == srt[..., :-1]).any(), "the keys must hold ties"


class TestStableRowOrder:
    def test_tie_rich_matrix(self):
        # fig1's shape: 4000 runs x 1563 blocks, keys on a coarse grid.
        rng = np.random.default_rng(0)
        keys = (rng.integers(0, 2000, (4000, 1563)) / np.float32(256)).astype(np.float32)
        keys += np.float32(1.0)
        _assert_has_ties(keys)
        got = _stable_row_order(keys)
        assert got.dtype == np.int64
        assert np.array_equal(got, _stable(keys))

    def test_special_values(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        special = np.array(
            [-np.inf, -3.5, -1.0, -tiny, -0.0, 0.0, tiny, 2 * tiny,
             np.finfo(np.float32).tiny, 1.0, 3.5, np.finfo(np.float32).max, np.inf],
            dtype=np.float32,
        )
        rng = np.random.default_rng(1)
        keys = rng.choice(special, size=(64, 257))
        _assert_has_ties(keys)
        assert np.array_equal(_stable_row_order(keys), _stable(keys))

    def test_signed_zeros_tie(self):
        keys = np.array([0.0, -0.0, 0.0, -0.0], dtype=np.float32)
        assert _stable_row_order(keys).tolist() == [0, 1, 2, 3]

    def test_one_dimensional_and_empty(self):
        keys = np.array([2.0, -1.0, 2.0, 0.5], dtype=np.float32)
        assert _stable_row_order(keys).tolist() == [1, 3, 0, 2]
        assert _stable_row_order(np.empty((3, 0), dtype=np.float32)).shape == (3, 0)

    @pytest.mark.parametrize("nan", [np.nan, -np.nan])
    def test_nan_key_raises(self, nan):
        keys = np.ones((3, 5), dtype=np.float32)
        keys[1, 2] = nan
        with pytest.raises(SchedulerError, match="NaN"):
            _stable_row_order(keys)


class TestSchedulerOrders:
    """One-run, batched and from-draws orders are the stable argsort of
    the times (and warp keys) they sort."""

    def test_one_run_block_order(self):
        batch = WaveSchedulerBatch(_launch(), None)
        for run in range(8):
            times = batch.block_arrival_times_batch(1, rngs=[np.random.default_rng(run)])
            order = batch.block_completion_orders(1, rngs=[np.random.default_rng(run)])
            assert np.array_equal(order, _stable(times))

    def test_batched_block_orders(self):
        launch = _launch()
        times = WaveSchedulerBatch(launch, RunContext(seed=3)).block_arrival_times_batch(400)
        _assert_has_ties(times)
        orders = WaveSchedulerBatch(launch, RunContext(seed=3)).block_completion_orders(400)
        assert np.array_equal(orders, _stable(times))

    def test_from_draws_block_orders(self):
        launch = _launch()
        batch = WaveSchedulerBatch(launch, None)
        rng = np.random.default_rng(4)
        rots = rng.integers(launch.device.num_gpcs, size=400)
        u = rng.random((400, launch.n_blocks), dtype=np.float32)
        times = batch._block_times_from(
            (rots * batch._per_gpc) % batch._mod, u, 0.0
        )
        _assert_has_ties(times)
        assert np.array_equal(batch.block_completion_orders_from_draws(rots, u), _stable(times))

    def _warp_keys(self, launch, rng, contention):
        """One run's warp keys, drawn from ``rng`` as a thread-order
        request draws them: the block draws, then the warp matrix."""
        sched = WaveSchedulerBatch(launch, None)
        block_t = sched.block_arrival_times_batch(1, contention, rngs=[rng])[0]
        _, _, wpb = sched._warp_geometry()
        sigma_w = sched._effective_jitter(sched.params.warp_jitter, contention)
        uw = rng.random((launch.n_blocks, wpb), dtype=np.float32) if sigma_w > 0 else None
        return sched._warp_keys_from(block_t, uw, sigma_w).reshape(-1)

    @pytest.mark.parametrize("contention", [0.0, 1.0])
    def test_one_run_warp_order(self, contention):
        launch = _launch(n_blocks=200, tpb=128)
        tmpl = _element_template(200, 128, launch.device.warp_size)
        n = launch.total_threads - 7
        for run in range(4):
            keys = self._warp_keys(launch, np.random.default_rng(run), contention)
            flat = tmpl[_stable(keys)].reshape(-1)
            got = WaveSchedulerBatch(launch, None).thread_retirement_orders(
                1, n, contention, rngs=[np.random.default_rng(run)]
            )
            assert np.array_equal(got[0], flat[flat < n])

    @pytest.mark.parametrize("contention", [0.0, 1.0])
    def test_batched_warp_orders(self, contention):
        launch = _launch(n_blocks=200, tpb=128)
        n_runs, n = 50, launch.total_threads
        ctx = RunContext(seed=5)
        keys = np.stack([self._warp_keys(launch, g, contention) for g in ctx.schedulers(n_runs)])
        _assert_has_ties(keys)
        korder = _stable(keys)
        warp = launch.device.warp_size
        got = WaveSchedulerBatch(launch, RunContext(seed=5)).thread_retirement_warp_orders(
            n_runs, n, contention
        )
        assert np.array_equal(got, korder[korder < n // warp].reshape(n_runs, -1))


class TestTapKeys:
    """Packed conv-tap keys: the draws of ``raced_keys``, packed with the
    tap index; their sort is the stable argsort of the float keys."""

    @pytest.mark.parametrize("taps", [2, 27, 2048])
    def test_packed_keys_match_the_generator_draws(self, taps):
        q, n_cand = 0.3, 40
        runs, cands, packed = RunContext(seed=6).schedulers(9).raced_tap_keys(q, n_cand, taps)
        _, _, keys = RunContext(seed=6).schedulers(9).raced_keys(q, np.full(n_cand, taps))
        ref = RunContext(seed=6)
        want = []
        for _ in range(9):
            g = ref.scheduler()
            raced = int((g.random(n_cand) < q).sum())
            want.append(g.random(taps * raced))
        want = np.concatenate(want)
        assert runs.size and np.array_equal(keys, want)
        assert packed.dtype == np.uint64
        assert np.array_equal(packed >> np.uint64(11), (want * 2.0**53).astype(np.uint64))
        rows = packed.reshape(-1, taps)
        taps_of = rows & np.uint64(TAP_KEY_MASK)
        assert np.array_equal(taps_of, np.broadcast_to(np.arange(taps), rows.shape))
        rows.sort(axis=1)
        assert np.array_equal(rows & np.uint64(TAP_KEY_MASK), _stable(want.reshape(-1, taps)))

    def test_ties_break_by_tap_index(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 4, (500, 27)) / 8.0
        packed = _pack_tap_keys(keys.reshape(-1), 27).reshape(-1, 27)
        packed.sort(axis=1)
        assert np.array_equal(packed & np.uint64(TAP_KEY_MASK), _stable(keys))

    @pytest.mark.parametrize("taps", [0, 2049])
    def test_unpackable_tap_count_raises(self, taps):
        with pytest.raises(ConfigurationError, match="taps"):
            RunContext(seed=0).schedulers(2).raced_tap_keys(0.5, 3, taps)

    def test_conv_plan_beyond_2048_taps_raises(self):
        # 13**3 = 2197 taps per output element.
        x = np.ones((1, 1, 2, 2, 2))
        w = np.ones((1, 1, 13, 13, 13))
        with pytest.raises(ConfigurationError, match="taps"):
            conv_transpose_runs(x, w, nd=3, n_runs=2, ctx=RunContext(seed=0))

    def test_conv_runs_fold_taps_in_stable_key_order(self):
        """Reference: draw the float keys, stable-argsort them, fold."""
        from repro.ops.conv_transpose import _ConvTransposePlan
        from repro.ops.nondet import OP_CONTENTION

        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        _, outs = conv_transpose_runs(x, w, nd=2, n_runs=12, stride=1, ctx=RunContext(seed=9))
        plan = _ConvTransposePlan(x, w, nd=2, stride=1, padding=0, output_padding=0)
        n_elems, T = plan.flat.shape
        q = OP_CONTENTION["conv_transpose"].race_probability(n_elems, n_elems)
        runs, cand, keys = RunContext(seed=9).schedulers(12).raced_keys(
            q, np.full(plan.candidates.size, T)
        )
        assert runs.size
        want = np.tile(plan.det_flat, (12, 1))
        raced = plan.candidates[cand]
        taps = np.take_along_axis(plan.flat[raced], _stable(keys.reshape(-1, T)), axis=1)
        acc = taps[:, 0].copy()
        for t in range(1, T):
            acc += taps[:, t]
        want[runs, raced] = acc
        got = np.stack(outs).reshape(12, -1)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestPinnedOrders:
    """Order digests taken under AVX-512 dispatch; CI re-checks them with
    NumPy's dispatch held to AVX2 and to baseline."""

    def test_block_orders(self):
        batch = WaveSchedulerBatch(_launch(), RunContext(seed=10), _PARAMS)
        orders = batch.block_completion_orders(300)
        assert _digest(orders) == "2f7f8eaf9a77a061"

    def test_warp_orders(self):
        launch = _launch(n_blocks=200, tpb=128)
        batch = WaveSchedulerBatch(launch, RunContext(seed=11), _PARAMS)
        orders = batch.thread_retirement_warp_orders(40, launch.total_threads, 1.0)
        assert _digest(orders) == "2d1e1da53c5f6532"

    def test_tap_orders(self):
        _, _, packed = RunContext(seed=12).schedulers(20).raced_tap_keys(0.4, 300, 27)
        rows = packed.reshape(-1, 27)
        rows.sort(axis=1)
        assert _digest(rows & np.uint64(TAP_KEY_MASK)) == "ddf7bd0b597f0998"
