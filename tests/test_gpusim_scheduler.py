"""Tests for the arrival-time scheduler model (repro.gpusim.scheduler)."""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.gpusim import LaunchConfig, SchedulerParams, WaveScheduler, get_device


def make_sched(ctx, n_blocks=64, tpb=64, device="v100", params=None):
    launch = LaunchConfig(device=get_device(device), n_blocks=n_blocks, threads_per_block=tpb)
    return WaveScheduler(launch, ctx.scheduler(), params)


class TestSchedulerParams:
    def test_defaults_valid(self):
        SchedulerParams()

    def test_negative_jitter_rejected(self):
        with pytest.raises(SchedulerError):
            SchedulerParams(block_jitter=-1)

    def test_residual_jitter_range(self):
        with pytest.raises(SchedulerError):
            SchedulerParams(residual_jitter=1.5)

    def test_straggler_validation(self):
        with pytest.raises(SchedulerError):
            SchedulerParams(straggler_rate=-1)


class TestBlockOrders:
    def test_order_is_a_permutation(self, ctx):
        order = make_sched(ctx, 100).block_completion_order()
        assert sorted(order.tolist()) == list(range(100))

    def test_two_runs_differ(self, ctx):
        a = make_sched(ctx, 256).block_completion_order()
        b = make_sched(ctx, 256).block_completion_order()
        assert not np.array_equal(a, b)

    def test_contention_reduces_displacement(self, ctx):
        params = SchedulerParams(rotation=False, straggler_rate=0.0)
        free = make_sched(ctx, 512, params=params)
        jam = make_sched(ctx, 512, params=params)
        def mean_displacement(order):
            return np.abs(order - np.arange(order.size)).mean()

        d_free = mean_displacement(free.block_completion_order(0.0))
        d_jam = mean_displacement(jam.block_completion_order(1.0))
        assert d_jam < d_free

    def test_full_contention_without_rotation_near_identity(self, ctx):
        params = SchedulerParams(
            rotation=False, residual_jitter=0.0, straggler_rate=0.0
        )
        order = make_sched(ctx, 128, params=params).block_completion_order(1.0)
        np.testing.assert_array_equal(order, np.arange(128))

    def test_rotation_produces_discrete_modes(self, ctx):
        # Under full contention the order is (nearly) a pure function of
        # the GPC rotation: the number of distinct orders across many runs
        # is bounded by num_gpcs (plus straggler perturbations).
        params = SchedulerParams(residual_jitter=0.0, straggler_rate=0.0)
        orders = set()
        for _ in range(60):
            s = make_sched(ctx, 512, params=params)
            orders.add(tuple(s.block_completion_order(1.0).tolist()))
        assert len(orders) <= get_device("v100").num_gpcs

    def test_deterministic_device_is_orderless(self, ctx):
        import repro.lpu  # registers the lpu device  # noqa: F401

        launch = LaunchConfig(device=get_device("lpu"), n_blocks=1, threads_per_block=1)
        s1 = WaveScheduler(launch, ctx.scheduler())
        s2 = WaveScheduler(launch, ctx.scheduler())
        np.testing.assert_array_equal(
            s1.block_completion_order(), s2.block_completion_order()
        )

    def test_invalid_contention_rejected(self, ctx):
        with pytest.raises(SchedulerError):
            make_sched(ctx).block_completion_order(contention=2.0)


class TestThreadOrders:
    def test_order_is_a_permutation(self, ctx):
        order = make_sched(ctx, 16, 64).thread_retirement_order(1000)
        assert sorted(order.tolist()) == list(range(1000))

    def test_lane_order_preserved_within_warp(self, ctx):
        params = SchedulerParams(rotation=False, straggler_rate=0.0, residual_jitter=0.0)
        order = make_sched(ctx, 4, 64, params=params).thread_retirement_order(
            256, contention=1.0
        )
        # With no jitter, warps retire in (warp-slot, block) issue order,
        # and each warp's 32 lanes stay contiguous and ascending.
        warp = 32
        for start in range(0, 256, warp):
            chunk = order[start : start + warp]
            assert np.all(np.diff(chunk) == 1), chunk
        # Same-slot warps across concurrently resident blocks interleave in
        # block order: warp 0 of all 4 blocks retires before any warp 1.
        warp_slot_of = (order % 64) // 32
        assert set(warp_slot_of[:128].tolist()) == {0}
        assert set(warp_slot_of[128:].tolist()) == {1}

    def test_exceeding_grid_capacity_raises(self, ctx):
        with pytest.raises(SchedulerError):
            make_sched(ctx, 2, 64).thread_retirement_order(1000)

    def test_zero_elements_rejected(self, ctx):
        with pytest.raises(SchedulerError):
            make_sched(ctx).thread_retirement_order(0)

    def test_runs_vary(self, ctx):
        a = make_sched(ctx, 16, 64).thread_retirement_order(1000)
        b = make_sched(ctx, 16, 64).thread_retirement_order(1000)
        assert not np.array_equal(a, b)


class TestStragglers:
    def test_stragglers_move_blocks_to_the_back(self, ctx):
        params = SchedulerParams(
            rotation=False, residual_jitter=0.0, straggler_rate=3.0,
            straggler_delay=100.0,
        )
        times = make_sched(ctx, 256, params=params).block_arrival_times(1.0)
        n_late = int(np.sum(times > 50.0))
        assert 0 <= n_late <= 20  # Poisson(3) tail

    def test_straggler_rate_zero_disables(self, ctx):
        params = SchedulerParams(
            rotation=False, residual_jitter=0.0, straggler_rate=0.0
        )
        times = make_sched(ctx, 256, params=params).block_arrival_times(1.0)
        assert times.max() < 50.0
