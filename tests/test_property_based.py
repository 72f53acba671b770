"""Property-based tests (hypothesis) for core invariants.

The invariants under test are the load-bearing assumptions of the whole
reproduction:

* metrics are zero iff outputs are bitwise identical, and respond to any
  single-element perturbation;
* every summation algorithm computes the same *mathematical* sum (exact on
  integer-valued inputs; within an analytic error bound on reals);
* segmented folds conserve value under any contribution order;
* the scheduler always emits true permutations.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.fp import (
    exact_sum,
    kahan_sum,
    neumaier_sum,
    permuted_sum,
    serial_sum,
    sorted_sum,
    tree_fold,
)
from repro.gpusim import LaunchConfig, WaveScheduler, get_device
from repro.metrics import count_variability, ermv, scalar_variability
from repro.ops import SegmentPlan

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(0, 200),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)

small_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 64),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


class TestMetricInvariants:
    @given(small_arrays)
    def test_ermv_zero_on_self(self, x):
        assert ermv(x, x.copy()) == 0.0

    @given(small_arrays)
    def test_vc_zero_on_self(self, x):
        assert count_variability(x, x.copy()) == 0.0

    @given(small_arrays, st.integers(0, 63))
    def test_vc_detects_any_single_flip(self, x, pos):
        pos = pos % x.size
        y = x.copy()
        y[pos] = np.nextafter(y[pos], np.inf)
        assert count_variability(x, y) > 0.0

    @given(small_arrays)
    def test_vc_bounded_by_one(self, x):
        y = -x + 1.0
        assert 0.0 <= count_variability(x, y) <= 1.0

    @given(st.floats(-1e10, 1e10, allow_nan=False), st.floats(-1e10, 1e10, allow_nan=False))
    def test_vs_zero_iff_equal_magnitude(self, nd, d):
        vs = scalar_variability(nd, d)
        if abs(nd) == abs(d):
            assert vs == 0.0 or (d == 0 and nd == 0)
        elif d != 0:
            assert vs != 0.0

    @given(small_arrays)
    def test_ermv_nonnegative(self, x):
        y = x + 0.5
        v = ermv(x, y)
        assert v >= 0.0 or math.isinf(v)


class TestSummationInvariants:
    @given(finite_arrays)
    def test_all_algorithms_agree_within_bound(self, x):
        exact = exact_sum(x)
        n = max(x.size, 1)
        # Higham: |err| <= n * eps * sum(|x|) for any ordering.
        bound = n * np.finfo(np.float64).eps * float(np.sum(np.abs(x))) + 1e-12
        for fn in (serial_sum, tree_fold, kahan_sum, neumaier_sum, sorted_sum):
            assert abs(fn(x) - exact) <= bound

    @given(
        hnp.arrays(
            dtype=np.int64,
            shape=st.integers(1, 100),
            elements=st.integers(-1000, 1000),
        ),
        st.randoms(use_true_random=False),
    )
    def test_integer_sums_exact_under_any_order(self, ints, rnd):
        # Integer-valued doubles sum exactly; association cannot matter.
        x = ints.astype(np.float64)
        perm = np.array(rnd.sample(range(x.size), x.size))
        target = float(ints.sum())
        assert serial_sum(x) == target
        assert tree_fold(x) == target
        assert permuted_sum(x, perm) == target

    @given(small_arrays, st.randoms(use_true_random=False))
    def test_sorted_sum_order_invariant(self, x, rnd):
        perm = np.array(rnd.sample(range(x.size), x.size))
        assert sorted_sum(x) == sorted_sum(x[perm])

    @given(small_arrays, st.randoms(use_true_random=False))
    def test_exact_sum_order_invariant(self, x, rnd):
        perm = np.array(rnd.sample(range(x.size), x.size))
        assert exact_sum(x) == exact_sum(x[perm])

    @given(small_arrays)
    def test_tree_fold_padding_invariance(self, x):
        padded = np.concatenate([x, np.zeros(5)])
        assert tree_fold(x) == tree_fold(padded)


class TestSegmentedFoldInvariants:
    @given(
        st.integers(1, 20),
        st.integers(1, 100),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40)
    def test_fold_conserves_mass(self, n_targets, n_sources, rnd):
        idx = np.array([rnd.randrange(n_targets) for _ in range(n_sources)])
        vals = np.array([rnd.uniform(-10, 10) for _ in range(n_sources)])
        plan = SegmentPlan(idx, n_targets)
        out = plan.fold(vals)
        assert abs(float(out.sum()) - float(vals.sum())) < 1e-8

    @given(
        st.integers(1, 10),
        st.integers(1, 60),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40)
    def test_any_order_same_value_within_bound(self, n_targets, n_sources, rnd):
        idx = np.array([rnd.randrange(n_targets) for _ in range(n_sources)])
        vals = np.array([rnd.uniform(-10, 10) for _ in range(n_sources)])
        plan = SegmentPlan(idx, n_targets)
        rng = np.random.default_rng(rnd.randrange(2**31))
        order = plan.source_order(plan.multi_targets, rng)
        a = plan.fold(vals)
        b = plan.fold(vals, order=order)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    @given(st.integers(1, 10), st.integers(0, 60), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_counts_partition_sources(self, n_targets, n_sources, rnd):
        idx = np.array([rnd.randrange(n_targets) for _ in range(n_sources)], dtype=np.int64)
        plan = SegmentPlan(idx, n_targets)
        assert int(plan.counts.sum()) == n_sources


class TestSchedulerInvariants:
    @given(st.integers(1, 300), st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_block_order_is_permutation(self, n_blocks, seed):
        launch = LaunchConfig(device=get_device("v100"), n_blocks=n_blocks, threads_per_block=64)
        sched = WaveScheduler(launch, np.random.default_rng(seed))
        order = sched.block_completion_order()
        assert np.array_equal(np.sort(order), np.arange(n_blocks))

    @given(st.integers(1, 2000), st.integers(0, 2**31 - 1), st.floats(0, 1))
    @settings(max_examples=30)
    def test_thread_order_is_permutation(self, n_elements, seed, contention):
        launch = LaunchConfig(
            device=get_device("v100"), n_blocks=-(-n_elements // 64), threads_per_block=64
        )
        sched = WaveScheduler(launch, np.random.default_rng(seed))
        order = sched.thread_retirement_order(n_elements, contention=contention)
        assert np.array_equal(np.sort(order), np.arange(n_elements))
