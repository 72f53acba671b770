"""Tests for cumsum and the transposed convolutions."""

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, ShapeError
from repro.ops import (
    ContentionModel,
    conv_transpose1d,
    conv_transpose2d,
    conv_transpose_runs,
    cumsum,
)
from repro.runtime import RunContext

ALWAYS_RACE = ContentionModel(q0=1.0, gamma=0.0, n0=1e-9)


def _one_chunk_cumsum(x, chunk):
    """The ND cumsum pinned to one chunk size: its blocked scan."""
    return cumsum(x, deterministic=False, chunk_ladder=(chunk,), ctx=RunContext(0))


class TestBlockedCumsum:
    def test_matches_serial_for_large_chunk(self, rng):
        x = rng.standard_normal(100)
        np.testing.assert_array_equal(_one_chunk_cumsum(x, 128), np.add.accumulate(x))

    def test_mathematically_correct_any_chunk(self, rng):
        x = rng.standard_normal(1000)
        for chunk in (1, 7, 64, 333):
            np.testing.assert_allclose(
                _one_chunk_cumsum(x, chunk), np.add.accumulate(x), rtol=1e-10
            )

    def test_chunking_changes_bits_eventually(self, rng):
        x = rng.standard_normal(100_000).astype(np.float32)
        a = _one_chunk_cumsum(x, 128)
        b = _one_chunk_cumsum(x, 2048)
        assert np.any(a != b)

    def test_empty_input(self):
        assert _one_chunk_cumsum(np.empty(0), 4).size == 0


class TestCumsum:
    def test_deterministic_is_serial_scan(self, rng):
        x = rng.standard_normal(500).astype(np.float32)
        np.testing.assert_array_equal(
            cumsum(x, deterministic=True), np.add.accumulate(x)
        )

    def test_nd_runs_can_differ(self, ctx, rng):
        x = rng.standard_normal(50_000).astype(np.float32)
        outs = {cumsum(x, ctx=ctx).tobytes() for _ in range(8)}
        assert len(outs) > 1

    def test_small_input_always_identical(self, ctx, rng):
        # Arrays inside every chunk choice round identically: min(Vermv)=0.
        x = rng.standard_normal(64).astype(np.float32)
        outs = {cumsum(x, ctx=ctx).tobytes() for _ in range(8)}
        assert len(outs) == 1

    def test_global_deterministic_flag(self, ctx, rng):
        repro.use_deterministic_algorithms(True)
        x = rng.standard_normal(50_000).astype(np.float32)
        outs = {cumsum(x, ctx=ctx).tobytes() for _ in range(3)}
        assert len(outs) == 1

    def test_axis_handling(self, rng):
        x = rng.standard_normal((4, 6))
        np.testing.assert_allclose(
            cumsum(x, dim=1, deterministic=True), np.cumsum(x, axis=1), rtol=1e-12
        )
        np.testing.assert_allclose(
            cumsum(x, dim=0, deterministic=True), np.cumsum(x, axis=0), rtol=1e-12
        )

    def test_bad_dim_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            cumsum(np.ones(4), dim=3)

    def test_empty_ladder_rejected(self, ctx):
        with pytest.raises(ConfigurationError):
            cumsum(np.ones(10), chunk_ladder=(), ctx=ctx)


def _ref_conv_transpose1d(x, w, stride, padding):
    """Dense reference via explicit loops (float64 for slack)."""
    B, C_in, L = x.shape
    _, C_out, K = w.shape
    L_out = (L - 1) * stride - 2 * padding + K
    out = np.zeros((B, C_out, L_out))
    for b in range(B):
        for ci in range(C_in):
            for co in range(C_out):
                for i in range(L):
                    for k in range(K):
                        o = i * stride + k - padding
                        if 0 <= o < L_out:
                            out[b, co, o] += float(x[b, ci, i]) * float(w[ci, co, k])
    return out


class TestConvTranspose:
    def test_matches_dense_reference(self, rng):
        x = rng.standard_normal((2, 3, 6))
        w = rng.standard_normal((3, 4, 3))
        for stride, pad in [(1, 0), (2, 0), (1, 1), (2, 1)]:
            got = conv_transpose1d(x, w, stride=stride, padding=pad, deterministic=True)
            ref = _ref_conv_transpose1d(x, w, stride, pad)
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_output_shape_formula(self, rng):
        x = rng.standard_normal((1, 2, 8)).astype(np.float32)
        w = rng.standard_normal((2, 5, 4)).astype(np.float32)
        out = conv_transpose1d(x, w, stride=2, padding=1, output_padding=1, deterministic=True)
        assert out.shape == (1, 5, (8 - 1) * 2 - 2 + 4 + 1)

    def test_2d_shape(self, rng):
        x = rng.standard_normal((2, 3, 5, 7)).astype(np.float32)
        w = rng.standard_normal((3, 4, 3, 3)).astype(np.float32)
        assert conv_transpose2d(x, w, deterministic=True).shape == (2, 4, 7, 9)

    def test_3d_shape(self, rng):
        x = rng.standard_normal((1, 2, 3, 4, 5)).astype(np.float32)
        w = rng.standard_normal((2, 3, 2, 2, 2)).astype(np.float32)
        ref, _ = conv_transpose_runs(x, w, nd=3, n_runs=0)
        assert ref.shape == (1, 3, 4, 5, 6)

    def test_bias_added(self, rng):
        x = np.zeros((1, 1, 4), dtype=np.float32)
        w = np.zeros((1, 2, 3), dtype=np.float32)
        out = conv_transpose1d(x, w, bias=np.array([1.0, -1.0]), deterministic=True)
        assert np.all(out[0, 0] == 1.0) and np.all(out[0, 1] == -1.0)

    def test_deterministic_stable(self, ctx, rng):
        x = rng.standard_normal((2, 4, 16)).astype(np.float32)
        w = rng.standard_normal((4, 4, 5)).astype(np.float32)
        outs = {conv_transpose1d(x, w, deterministic=True).tobytes() for _ in range(4)}
        assert len(outs) == 1

    def test_nd_varies_under_forced_racing(self, ctx, rng):
        x = rng.standard_normal((2, 4, 32)).astype(np.float32)
        w = rng.standard_normal((4, 4, 5)).astype(np.float32)
        outs = {
            conv_transpose1d(x, w, model=ALWAYS_RACE, ctx=ctx).tobytes()
            for _ in range(6)
        }
        assert len(outs) > 1

    def test_nd_preserves_math_value(self, ctx, rng):
        x = rng.standard_normal((1, 3, 10)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3)).astype(np.float32)
        ref = conv_transpose1d(x, w, deterministic=True)
        nd = conv_transpose1d(x, w, model=ALWAYS_RACE, ctx=ctx)
        np.testing.assert_allclose(nd, ref, rtol=1e-4)

    @pytest.mark.parametrize("nd,size,k,stride", [(1, 32, 5, 1), (2, 9, 3, 2), (3, 5, 3, 1)])
    def test_nd_refold_matches_gather_then_tap_fold(self, ctx, rng, nd, size, k, stride):
        # Reference: the raced rows gathered as (raced, T), permuted per
        # row, then folded column by column with _tap_fold.
        from repro.ops.conv_transpose import _ConvTransposePlan, _tap_fold

        x = rng.standard_normal((2, 3) + (size,) * nd).astype(np.float32)
        w = rng.standard_normal((3, 4) + (k,) * nd).astype(np.float32)
        plan = _ConvTransposePlan(x, w, nd=nd, stride=stride, padding=0, output_padding=0)
        assert plan.n_taps > 1
        batch = plan.nd_outputs(ctx.schedulers(4), ALWAYS_RACE)
        for got, rng_b in zip(batch, RunContext(ctx.seed).schedulers(4)):
            n_elems = plan.flat.shape[0]
            raced = ALWAYS_RACE.sample_raced(plan.candidates, n_elems, n_elems, rng_b)
            perm = np.argsort(rng_b.random((raced.size, plan.n_taps)), axis=1)
            want = plan.det_flat.copy()
            want[raced] = _tap_fold(np.take_along_axis(plan.flat[raced], perm, axis=1))
            assert raced.size and got.tobytes() == want.reshape(plan.out_shape).tobytes()

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            conv_transpose1d(np.ones((1, 3, 4)), np.ones((2, 2, 3)), deterministic=True)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            conv_transpose2d(np.ones((1, 2, 4)), np.ones((2, 2, 3, 3)), deterministic=True)

    def test_output_padding_limit(self, rng):
        with pytest.raises(ConfigurationError):
            conv_transpose1d(np.ones((1, 1, 4)), np.ones((1, 1, 3)),
                             stride=1, output_padding=1, deterministic=True)

    def test_stride_validation(self):
        with pytest.raises(ConfigurationError):
            conv_transpose1d(np.ones((1, 1, 4)), np.ones((1, 1, 3)), stride=0,
                             deterministic=True)
