"""Tests for ordered folds and tree reductions (repro.fp.summation)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.fp import block_partials, exact_sum, permuted_sum, serial_sum, tree_fold


class TestSerialSum:
    def test_empty(self):
        assert serial_sum([]) == 0.0

    def test_single(self):
        assert serial_sum([3.5]) == 3.5

    def test_matches_python_fold(self, rng):
        x = rng.standard_normal(1000)
        acc = 0.0
        for v in x:
            acc += v
        assert serial_sum(x) == acc

    def test_order_dependence_demonstrated(self):
        # The canonical FPNA example: (a + b) + c != a + (b + c).
        x = np.array([1.0, 1e100, -1e100])
        assert serial_sum(x) == 0.0          # 1.0 absorbed into 1e100
        assert serial_sum(x[::-1]) == 1.0    # cancellation happens first

    def test_2d_input_rejected(self):
        with pytest.raises(ShapeError):
            serial_sum(np.ones((2, 2)))

    def test_integer_input_promoted(self):
        assert serial_sum(np.arange(10)) == 45.0


class TestReverseAndPermuted:
    def test_identity_permutation_equals_serial(self, rng):
        x = rng.standard_normal(100)
        assert permuted_sum(x, np.arange(100)) == serial_sum(x)

    def test_permutation_usually_changes_bits(self, ctx):
        x = ctx.data().standard_normal(100_000)
        s_d = serial_sum(x)
        deltas = [
            permuted_sum(x, ctx.scheduler().permutation(x.size)) - s_d
            for _ in range(5)
        ]
        assert any(d != 0 for d in deltas)

    def test_permutation_never_changes_exact_value(self, ctx):
        # Sanity: the mathematical sum is permutation invariant; only the
        # rounding differs.  Integers below 2^53 are exact.
        x = np.arange(1000, dtype=np.float64)
        perm = ctx.scheduler().permutation(1000)
        assert permuted_sum(x, perm) == serial_sum(x)

    def test_bad_permutation_shape_raises(self):
        with pytest.raises(ShapeError):
            permuted_sum(np.ones(4), np.arange(3))

    def test_out_of_range_permutation_raises(self):
        with pytest.raises(ConfigurationError):
            permuted_sum(np.ones(3), np.array([0, 1, 7]))


class TestTreeFold:
    def test_empty_and_single(self):
        assert tree_fold([]) == 0.0
        assert tree_fold([2.0]) == 2.0

    def test_power_of_two_exact_structure(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert tree_fold(x) == (1.0 + 3.0) + (2.0 + 4.0)

    def test_padding_is_exact(self, rng):
        # Appending zeros must not change the tree result.
        x = rng.standard_normal(13)
        padded = np.concatenate([x, np.zeros(3)])
        assert tree_fold(x) == tree_fold(padded)

    def test_close_to_exact_sum(self, rng):
        x = rng.standard_normal(10_000)
        assert abs(tree_fold(x) - exact_sum(x)) < 1e-11

    def test_float32_dtype_preserved_in_fold(self, rng):
        x = rng.standard_normal(100).astype(np.float32)
        out = tree_fold(x)
        assert out == np.float32(out) or isinstance(out, float)


class TestBlockPartials:
    def test_partials_cover_all_data(self, rng):
        x = rng.standard_normal(1000)
        partials = block_partials(x, 8)
        assert partials.shape == (8,)
        assert abs(exact_sum(partials) - exact_sum(x)) < 1e-10

    def test_each_partial_is_block_tree(self, rng):
        x = rng.standard_normal(64)
        partials = block_partials(x, 4, block_size=16)
        for b in range(4):
            assert partials[b] == tree_fold(x[b * 16 : (b + 1) * 16])

    def test_single_block(self, rng):
        x = rng.standard_normal(50)
        assert block_partials(x, 1)[0] == tree_fold(x)

    def test_more_blocks_than_elements(self):
        partials = block_partials(np.ones(3), 8)
        assert partials.shape == (8,)
        assert exact_sum(partials) == 3.0

    def test_undersized_coverage_raises(self):
        with pytest.raises(ConfigurationError):
            block_partials(np.ones(100), 4, block_size=10)

    def test_invalid_n_blocks_raises(self):
        with pytest.raises(ConfigurationError):
            block_partials(np.ones(4), 0)

    def test_blocked_pairwise_sum_deterministic(self, rng):
        x = rng.standard_normal(12345)
        assert tree_fold(block_partials(x, 16)) == tree_fold(block_partials(x, 16))

    def test_blocked_pairwise_depends_on_blocking(self, rng):
        # Different blockings are different associations - usually
        # different bits.  This is the whole point of the paper.
        x = rng.standard_normal(100_000)
        sums = {tree_fold(block_partials(x, nb)) for nb in (4, 16, 64, 256)}
        assert len(sums) > 1
