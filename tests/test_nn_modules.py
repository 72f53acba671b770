"""Tests for nn modules, losses, init and optimizers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import Adam, Linear, Module, Parameter, functional as F, init
from repro.tensor import Tensor


class TestModuleSystem:
    def test_parameter_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.sub = Linear(2, 2)

        m = M()
        names = [n for n, _ in m.named_parameters()]
        assert "w" in names and "sub.weight" in names and "sub.bias" in names

    def test_zero_grad_clears(self):
        lin = Linear(2, 2)
        x = Tensor(np.ones((1, 2)))
        lin(x).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_train_eval_recursive(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.sub = Linear(2, 2)

        m = M().eval()
        assert not m.training and not m.sub.training
        m.train()
        assert m.training and m.sub.training

    def test_flat_weights_concatenates(self):
        lin = Linear(2, 3)
        assert lin.flat_weights().shape == (2 * 3 + 3,)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestInit:
    def test_glorot_bounds(self):
        w = init.glorot_uniform((100, 50), np.random.default_rng(0))
        bound = np.sqrt(6 / 150)
        assert np.all(np.abs(w) <= bound)
        assert w.dtype == np.float32

    def test_default_rng_is_run_stable(self):
        a = init.glorot_uniform((4, 4))
        b = init.glorot_uniform((4, 4))
        np.testing.assert_array_equal(a, b)

    def test_uniform_validation(self):
        with pytest.raises(ConfigurationError):
            init.uniform((2,), 1.0, 0.0)

    def test_zeros(self):
        assert np.all(init.zeros((3, 3)) == 0)


class TestLinear:
    def test_forward_shape(self):
        out = Linear(4, 7)(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 7)

    def test_no_bias_variant(self):
        lin = Linear(3, 2, bias=False)
        assert lin.bias is None
        assert sum(p.size for p in lin.parameters()) == 6

    def test_known_affine_map(self):
        lin = Linear(2, 1)
        lin.weight.data = np.array([[2.0, 3.0]], dtype=np.float32)
        lin.bias.data = np.array([1.0], dtype=np.float32)
        out = lin(Tensor(np.array([[1.0, 1.0]])))
        assert out.numpy()[0, 0] == 6.0

    def test_dimension_validation(self):
        with pytest.raises(ConfigurationError):
            Linear(0, 3)


class TestActivationsLoss:
    def test_nll_loss_value(self):
        logp = Tensor(np.log(np.array([[0.7, 0.3], [0.4, 0.6]], dtype=np.float32)))
        loss = F.nll_loss(logp, np.array([0, 1]))
        assert loss.item() == pytest.approx(-(np.log(0.7) + np.log(0.6)) / 2, rel=1e-5)

    def test_nll_validation(self):
        with pytest.raises(ConfigurationError):
            F.nll_loss(Tensor(np.zeros((2, 3))), np.array([0, 5]))
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            F.nll_loss(Tensor(np.zeros(3)), np.array([0]))


class TestOptimizers:
    def _quadratic_step(self, opt_cls, **kw):
        p = Parameter(np.array([5.0], dtype=np.float32))
        opt = opt_cls([p], **kw)
        for _ in range(200):
            opt.zero_grad()
            loss = (Tensor(p.data, dtype=np.float32) * 0).sum()  # placeholder
            p.grad = 2 * p.data  # d/dp p^2
            opt.step()
        return float(p.data[0])

    def test_adam_minimises_quadratic(self):
        assert abs(self._quadratic_step(Adam, lr=0.1)) < 1e-2

    def test_none_grad_skipped(self):
        p = Parameter(np.ones(2))
        Adam([p], lr=0.1).step()  # no grad set: no crash, no change
        np.testing.assert_array_equal(p.data, 1.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigurationError):
            Adam([], lr=0.1)

    def test_hyperparameter_validation(self):
        p = [Parameter(np.ones(1))]
        with pytest.raises(ConfigurationError):
            Adam(p, lr=-1)
        with pytest.raises(ConfigurationError):
            Adam(p, betas=(1.0, 0.9))

    def test_adam_bias_correction_first_step(self):
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = Adam([p], lr=0.001)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        # First Adam step is ~lr regardless of gradient scale.
        assert p.data[0] == pytest.approx(-0.001, rel=1e-4)
