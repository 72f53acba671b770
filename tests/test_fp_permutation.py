"""Tests for the Table 1 permutation-effect primitives."""

import numpy as np
import pytest

from repro.fp import PermutationEffect, permutation_effects
from repro.runtime import RunContext


class TestPermutationEffects:
    def test_row_count(self, ctx):
        rows = permutation_effects([100, 1000], repeats=3, ctx=ctx)
        assert len(rows) == 6

    def test_rows_are_size_major(self, ctx):
        rows = permutation_effects([10, 20], repeats=2, ctx=ctx)
        assert [r.size for r in rows] == [10, 10, 20, 20]

    def test_delta_consistent_with_sums(self, ctx):
        for row in permutation_effects([1000], repeats=2, ctx=ctx):
            assert row.delta == row.s_nd - row.s_d

    def test_vs_zero_iff_equal_magnitude(self, ctx):
        for row in permutation_effects([100_000], repeats=3, ctx=ctx):
            if row.s_nd == row.s_d:
                assert row.vs == 0.0

    def test_large_sizes_vary(self, ctx):
        rows = permutation_effects([100_000], repeats=5, ctx=ctx)
        assert any(r.delta != 0 for r in rows)

    def test_deltas_grow_with_size(self, ctx):
        # Paper Table 1 shape: typical |delta| increases with n.
        rows = permutation_effects([100, 1_000_000], repeats=4, ctx=ctx)
        small = max(abs(r.delta) for r in rows if r.size == 100)
        large = max(abs(r.delta) for r in rows if r.size == 1_000_000)
        assert large > small

    def test_cp2k_tolerance_exceeded_at_scale(self, ctx):
        # The paper's headline: deltas can exceed the 1e-14 tolerances of
        # quantum chemistry correctness tests.
        rows = permutation_effects([1_000_000], repeats=4, ctx=ctx)
        assert max(abs(r.delta) for r in rows) > 1e-14

    @pytest.mark.parametrize("dist", ["normal", "uniform", "boltzmann"])
    def test_distributions_supported(self, ctx, dist):
        rows = permutation_effects([1000], repeats=1, distribution=dist, ctx=ctx)
        assert len(rows) == 1 and np.isfinite(rows[0].s_d)

    def test_unknown_distribution_raises(self, ctx):
        with pytest.raises(ValueError):
            permutation_effects([10], distribution="cauchy", ctx=ctx)

    def test_reproducible_given_context(self):
        r1 = permutation_effects([1000], repeats=2, ctx=RunContext(7))
        r2 = permutation_effects([1000], repeats=2, ctx=RunContext(7))
        assert [(a.s_nd, a.s_d) for a in r1] == [(b.s_nd, b.s_d) for b in r2]

    def test_effect_dataclass_fields(self, ctx):
        row = permutation_effects([10], repeats=1, ctx=ctx)[0]
        assert isinstance(row, PermutationEffect)
        assert row.size == 10
