"""Tests for the op determinism registry and the read-only gather op."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NondeterministicError
from repro.ops import gather_rows, op_spec
from repro.ops.registry import resolve_determinism


class TestRegistry:
    def test_table5_rows_present(self):
        # The paper's Table 5 operation set.
        for name in (
            "conv_transpose1d", "conv_transpose2d", "conv_transpose3d",
            "cumsum", "index_add", "index_copy", "index_put",
            "scatter", "scatter_reduce",
        ):
            assert op_spec(name).documented_nondeterministic

    def test_scatter_reduce_documentation_mismatch(self):
        # Documented as supporting determinism, but it does not work -
        # the paper's finding about incomplete documentation.
        spec = op_spec("scatter_reduce")
        assert spec.documented_deterministic_available
        assert not spec.has_deterministic

    def test_gather_is_deterministic(self):
        spec = op_spec("gather")
        assert not spec.documented_nondeterministic and spec.has_deterministic

    def test_unknown_op_raises(self):
        with pytest.raises(ConfigurationError):
            op_spec("fused_rmsnorm")

    def test_resolve_explicit_true_without_impl_raises(self):
        with pytest.raises(NondeterministicError):
            resolve_determinism("scatter_reduce", True)

    def test_resolve_explicit_false_always_ok(self):
        assert resolve_determinism("scatter_reduce", False) is False

    def test_resolve_none_defers_to_global(self):
        assert resolve_determinism("index_add", None) is False


class TestGatherRows:
    def test_basic(self, rng):
        x = rng.standard_normal((5, 3))
        out = gather_rows(x, np.array([4, 0, 0]))
        np.testing.assert_array_equal(out, x[[4, 0, 0]])

    def test_always_bitwise_stable(self, rng):
        x = rng.standard_normal((100, 8))
        idx = rng.integers(0, 100, 50)
        assert gather_rows(x, idx).tobytes() == gather_rows(x, idx).tobytes()

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            gather_rows(np.ones((3, 2)), np.array([3]))

    def test_float_index_rejected(self):
        with pytest.raises(ConfigurationError):
            gather_rows(np.ones((3, 2)), np.array([0.0]))

    def test_empty_index(self):
        out = gather_rows(np.ones((3, 2)), np.array([], dtype=np.int64))
        assert out.shape == (0, 2)
