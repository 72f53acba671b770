"""Tests for the Tensor class and reverse-mode autograd."""

import numpy as np
import pytest

import repro
from repro.errors import AutogradError, ShapeError
from repro.tensor import Tensor, gradcheck, no_grad


class TestTensorBasics:
    def test_float64_narrowed_to_float32(self):
        assert Tensor(np.zeros(3)).dtype == np.float32

    def test_explicit_dtype_preserved(self):
        assert Tensor(np.zeros(3), dtype=np.float64).dtype == np.float64

    def test_int_input_promoted(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_item_scalar_only(self):
        assert Tensor([2.0]).item() == 2.0
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3) and t.ndim == 2 and t.size == 6

    def test_factory(self):
        t = Tensor([1.0], requires_grad=True)
        assert t.requires_grad


class TestArithmeticGradients:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1, 1])
        np.testing.assert_array_equal(b.grad, [1, 1])

    def test_mul_backward(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a * b).sum().backward()
        assert a.grad[0] == 5.0 and b.grad[0] == 2.0

    def test_broadcast_backward_sums_over_axes(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(b.grad, [3, 3])

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        (a + 1.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))

    def test_sub_div_neg_pow(self):
        a = Tensor([4.0], requires_grad=True)
        y = (-a) / 2.0 - 1.0 + a**2
        y.sum().backward()
        assert a.grad[0] == pytest.approx(-0.5 + 8.0)

    def test_matmul_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 4))
        np.testing.assert_array_equal(b.grad, np.full((3, 4), 2))

    def test_shared_parent_accumulates(self):
        a = Tensor([3.0], requires_grad=True)
        (a * a).sum().backward()
        assert a.grad[0] == 6.0

    def test_diamond_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3.0
        c = a * 4.0
        (b + c).sum().backward()
        assert a.grad[0] == 7.0

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        (1.0 - a).sum().backward()
        assert a.grad[0] == -1.0
        a.zero_grad()
        (1.0 / a).sum().backward()
        assert a.grad[0] == pytest.approx(-0.25)


class TestReductionsAndShaping:
    def test_sum_axis_keepdim(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(dim=1, keepdim=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    def test_mean_gradient_scaling(self):
        a = Tensor(np.ones(4), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_reshape_round_trip(self):
        a = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(6))

    def test_transpose(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        assert a.T.shape == (3, 2)
        a.T.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    def test_transpose_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones(3)).T


class TestNonlinearities:
    def test_relu_gradient_mask(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_array_equal(a.grad, [0, 1])

    def test_log_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)).astype(np.float32))
        p = np.exp(x.log_softmax(dim=-1).numpy())
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-5)

    def test_log_softmax_gradient_zero_sum(self, rng):
        x = Tensor(rng.standard_normal((2, 5)).astype(np.float32), requires_grad=True)
        x.log_softmax()[0, 0].sum().backward()
        np.testing.assert_allclose(x.grad.sum(axis=-1), [0, 0], atol=1e-6)

    def test_exp_log_tanh_gradients(self):
        for name in ("exp", "log", "tanh"):
            a = Tensor([0.5], requires_grad=True)
            getattr(a, name)().sum().backward()
            assert np.isfinite(a.grad[0])


class TestBackwardSemantics:
    def test_non_scalar_backward_needs_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutogradError):
            (a * 2).backward()

    def test_explicit_grad_accepted(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 2).backward(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        np.testing.assert_array_equal(a.grad, [2, 4, 6])

    def test_backward_on_leaf_without_grad_raises(self):
        with pytest.raises(AutogradError):
            Tensor([1.0]).backward()

    def test_grad_shape_mismatch_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutogradError):
            (a * 2).backward(np.ones(4, dtype=np.float32))

    def test_repeated_backward_accumulates_on_leaf(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        assert a.grad[0] == 4.0

    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad


class TestIndexingOps:
    def test_gather_rows_forward(self, rng):
        x = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
        idx = np.array([1, 1, 4])
        np.testing.assert_array_equal(x.gather_rows(idx).numpy(), x.numpy()[idx])

    def test_gather_rows_backward_is_index_add(self, rng):
        repro.use_deterministic_algorithms(True)
        x = Tensor(np.zeros((3, 2), dtype=np.float32), requires_grad=True)
        out = x.gather_rows(np.array([0, 0, 2]))
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [[2, 2], [0, 0], [1, 1]])

    def test_index_add_forward_respects_global_flag(self, ctx, rng):
        repro.use_deterministic_algorithms(True)
        base = Tensor(np.zeros((10, 4), dtype=np.float32))
        src = Tensor(rng.standard_normal((200, 4)).astype(np.float32))
        idx = rng.integers(0, 10, 200)
        outs = {base.index_add(idx, src).numpy().tobytes() for _ in range(3)}
        assert len(outs) == 1

    def test_index_add_backward_gathers(self):
        base = Tensor(np.zeros((3, 2), dtype=np.float32), requires_grad=True)
        src = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = base.index_add(np.array([2, 2]), src)
        out.sum().backward()
        np.testing.assert_array_equal(base.grad, np.ones((3, 2)))
        np.testing.assert_array_equal(src.grad, np.ones((2, 2)))

    def test_getitem_gradient(self):
        a = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
        a[1:3].sum().backward()
        np.testing.assert_array_equal(a.grad, [0, 1, 1, 0])


class TestGradcheck:
    def test_passes_for_composite_function(self, rng):
        a = Tensor(rng.standard_normal((3, 4)).astype(np.float64), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.standard_normal((4, 2)).astype(np.float64), requires_grad=True, dtype=np.float64)

        def fn(a, b):
            return ((a @ b).relu() * 2.0).sum()

        assert gradcheck(fn, (a, b))

    def test_catches_wrong_gradient(self):
        a = Tensor(np.array([0.7]), requires_grad=True, dtype=np.float64)

        def bad(a):
            # exp value with a deliberately wrong backward
            out = a.exp()
            out._grad_fn = lambda g: (g * 0.0,)
            return out.sum()

        with pytest.raises(AutogradError):
            gradcheck(bad, (a,))

    def test_rejects_non_scalar_output(self):
        a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        with pytest.raises(AutogradError):
            gradcheck(lambda t: t * 2, (a,))

    def test_rejects_non_grad_inputs(self):
        with pytest.raises(AutogradError):
            gradcheck(lambda t: t.sum(), (Tensor(np.ones(2)),))
