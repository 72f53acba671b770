"""Tests for the segmented-fold engine (repro.ops.segmented)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.ops import SegmentPlan


class TestSegmentPlanConstruction:
    def test_basic_attributes(self):
        plan = SegmentPlan(np.array([0, 1, 0, 2]), 3)
        assert plan.n_sources == 4 and plan.n_targets == 3
        np.testing.assert_array_equal(plan.counts, [2, 1, 1])
        assert plan.k_max == 2
        np.testing.assert_array_equal(plan.multi_targets, [0])

    def test_canonical_order_is_stable_sort(self):
        plan = SegmentPlan(np.array([1, 0, 1, 0]), 2)
        np.testing.assert_array_equal(plan.order, [1, 3, 0, 2])

    def test_empty_index(self):
        plan = SegmentPlan(np.array([], dtype=np.int64), 5)
        assert plan.k_max == 0 and plan.multi_targets.size == 0

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentPlan(np.array([0, 5]), 3)

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentPlan(np.array([-1]), 3)

    def test_float_index_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentPlan(np.array([0.0, 1.0]), 2)

    def test_2d_index_rejected(self):
        with pytest.raises(ShapeError):
            SegmentPlan(np.zeros((2, 2), dtype=int), 4)


class TestFoldSum:
    def test_matches_np_add_at(self, rng):
        # np.add.at applies additions sequentially in index order; the
        # matrix fold must be bit-identical for the canonical order.
        for _ in range(10):
            n, t = 500, 60
            idx = rng.integers(0, t, n)
            vals = rng.standard_normal(n).astype(np.float32)
            plan = SegmentPlan(idx, t)
            expected = np.zeros(t, dtype=np.float32)
            order = plan.order
            np.add.at(expected, idx[order], vals[order])
            np.testing.assert_array_equal(plan.fold(vals), expected)

    def test_with_init_is_fold_from_init(self, rng):
        idx = np.array([0, 0, 1])
        vals = np.array([1e-8, 1.0, 2.0], dtype=np.float32)
        init = np.array([1.0, 1.0], dtype=np.float32)
        plan = SegmentPlan(idx, 2)
        out = plan.fold(vals, init=init)
        assert out[0] == np.float32(np.float32(np.float32(1.0) + np.float32(1e-8)) + np.float32(1.0))
        assert out[1] == np.float32(3.0)

    def test_order_controls_bits(self, rng):
        # Folding a segment in a different order can (and here does)
        # change the rounding.
        idx = np.zeros(3, dtype=np.int64)
        vals = np.array([1.0, 1e100, -1e100])
        plan = SegmentPlan(idx, 1)
        fwd = plan.fold(vals)
        rev = plan.fold(vals, order=np.array([2, 1, 0]))
        assert fwd[0] == 0.0 and rev[0] == 1.0

    def test_payload_dimensions(self, rng):
        idx = rng.integers(0, 4, 10)
        vals = rng.standard_normal((10, 3, 2)).astype(np.float32)
        plan = SegmentPlan(idx, 4)
        out = plan.fold(vals)
        assert out.shape == (4, 3, 2)
        np.testing.assert_allclose(
            out.sum(axis=0), vals.sum(axis=0), rtol=1e-5
        )

    def test_empty_targets_get_identity(self):
        plan = SegmentPlan(np.array([2]), 4)
        out = plan.fold(np.array([5.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 5.0, 0.0])

    def test_wrong_values_shape_raises(self):
        plan = SegmentPlan(np.array([0, 1]), 2)
        with pytest.raises(ShapeError):
            plan.fold(np.ones(3))

    def test_wrong_init_shape_raises(self):
        plan = SegmentPlan(np.array([0, 1]), 2)
        with pytest.raises(ShapeError):
            plan.fold(np.ones(2), init=np.ones(3))


class TestFoldOtherReduces:
    def test_prod(self):
        plan = SegmentPlan(np.array([0, 0, 1]), 2)
        out = plan.fold(np.array([2.0, 3.0, 5.0]), reduce="prod")
        np.testing.assert_array_equal(out, [6.0, 5.0])

    def test_prod_identity_for_empty(self):
        plan = SegmentPlan(np.array([1]), 2)
        out = plan.fold(np.array([4.0]), reduce="prod")
        assert out[0] == 1.0

    def test_amax_amin(self):
        plan = SegmentPlan(np.array([0, 0, 1]), 2)
        vals = np.array([2.0, -3.0, 5.0])
        np.testing.assert_array_equal(plan.fold(vals, reduce="amax"), [2.0, 5.0])
        np.testing.assert_array_equal(plan.fold(vals, reduce="amin"), [-3.0, 5.0])

    def test_amax_empty_target_is_neg_inf(self):
        plan = SegmentPlan(np.array([1]), 2)
        out = plan.fold(np.array([4.0]), reduce="amax")
        assert out[0] == -np.inf

    def test_unknown_reduce_rejected(self):
        plan = SegmentPlan(np.array([0]), 1)
        with pytest.raises(ConfigurationError):
            plan.fold(np.ones(1), reduce="median")


class TestSourceOrder:
    def test_no_raced_targets_returns_canonical(self, rng):
        plan = SegmentPlan(rng.integers(0, 5, 20), 5)
        assert plan.source_order(None) is plan.order
        assert plan.source_order(np.array([], dtype=int)) is plan.order

    def test_raced_targets_need_rng(self):
        plan = SegmentPlan(np.array([0, 0]), 1)
        with pytest.raises(ConfigurationError):
            plan.source_order(np.array([0]))

    def test_segments_stay_grouped(self, rng):
        idx = rng.integers(0, 10, 200)
        plan = SegmentPlan(idx, 10)
        order = plan.source_order(plan.multi_targets, rng)
        np.testing.assert_array_equal(idx[order], idx[plan.order])

    def test_unraced_segments_keep_canonical_internal_order(self, rng):
        idx = np.array([0, 0, 1, 1, 2])
        plan = SegmentPlan(idx, 3)
        order = plan.source_order(np.array([0]), rng)
        # Target 1's sources (2, 3) must stay in canonical order.
        positions = [int(np.where(order == s)[0][0]) for s in (2, 3)]
        assert positions[0] < positions[1]

    def test_raced_shuffle_covers_all_permutations(self, ctx):
        idx = np.zeros(3, dtype=np.int64)
        plan = SegmentPlan(idx, 1)
        seen = set()
        for _ in range(200):
            order = plan.source_order(np.array([0]), ctx.scheduler())
            seen.add(tuple(order.tolist()))
        assert len(seen) == 6  # all 3! orders eventually appear


class TestSegmentedFoldFunction:
    def test_one_shot_wrapper(self, rng):
        idx = rng.integers(0, 3, 12)
        vals = rng.standard_normal(12)
        out = SegmentPlan(idx, 3).fold(vals)
        np.testing.assert_allclose(out, np.bincount(idx, weights=vals, minlength=3), rtol=1e-12)
