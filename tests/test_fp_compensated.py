"""Tests for compensated/exact summation (repro.fp.compensated)."""

import numpy as np
import pytest

from repro.fp import exact_sum, kahan_sum, neumaier_sum, serial_sum, sorted_sum


class TestKahanNeumaier:
    def test_kahan_beats_serial_on_hard_data(self, rng):
        x = rng.standard_normal(50_000) * 1e8 + 1.0
        exact = exact_sum(x)
        assert abs(kahan_sum(x) - exact) <= abs(serial_sum(x) - exact)

    def test_kahan_exact_on_small_arrays(self, rng):
        x = rng.standard_normal(10)
        assert abs(kahan_sum(x) - exact_sum(x)) < 1e-15

    def test_neumaier_handles_kahan_failure_case(self):
        # The classic: Kahan loses the small terms, Neumaier does not.
        x = np.array([1.0, 1e100, 1.0, -1e100])
        assert neumaier_sum(x) == 2.0

    def test_neumaier_matches_exact_generally(self, rng):
        x = rng.standard_normal(5000)
        assert abs(neumaier_sum(x) - exact_sum(x)) < 1e-12

    def test_empty_arrays(self):
        assert kahan_sum([]) == 0.0
        assert neumaier_sum([]) == 0.0


class TestSortedSum:
    def test_input_order_invariance(self, ctx):
        # The "reproducible summation" property: a fixed multiset sums to
        # the same bits regardless of storage order.
        x = ctx.data().standard_normal(2000)
        perm = ctx.scheduler().permutation(2000)
        assert sorted_sum(x) == sorted_sum(x[perm])

    def test_ascending_by_default(self):
        assert sorted_sum([3.0, 1.0, 2.0]) == (1.0 + 2.0) + 3.0

    def test_descending_flag(self):
        assert sorted_sum([3.0, 1.0, 2.0], descending=True) == (3.0 + 2.0) + 1.0

    def test_empty(self):
        assert sorted_sum([]) == 0.0


class TestExactSum:
    def test_permutation_invariance(self, ctx):
        x = ctx.data().standard_normal(5000)
        perm = ctx.scheduler().permutation(5000)
        assert exact_sum(x) == exact_sum(x[perm])

    def test_correct_rounding_known_case(self):
        assert exact_sum([1e16, 1.0, -1e16]) == 1.0

    def test_agrees_with_math_for_integers(self):
        assert exact_sum(np.arange(100, dtype=np.float64)) == 4950.0
