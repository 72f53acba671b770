"""Tests for the CG solver."""

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, ShapeError
from repro.runtime import RunContext
from repro.solvers import conjugate_gradient, iterate_divergence, spd_test_matrix


class TestSpdTestMatrix:
    def test_symmetric_positive_definite(self, rng):
        A = spd_test_matrix(30, cond=100, rng=rng)
        np.testing.assert_allclose(A, A.T, rtol=1e-12)
        eigs = np.linalg.eigvalsh(A)
        assert eigs.min() > 0

    def test_condition_number(self, rng):
        A = spd_test_matrix(40, cond=1e4, rng=rng)
        assert np.linalg.cond(A) == pytest.approx(1e4, rel=0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spd_test_matrix(0)
        with pytest.raises(ConfigurationError):
            spd_test_matrix(4, cond=0.5)


class TestConjugateGradient:
    @pytest.fixture()
    def system(self, rng):
        A = spd_test_matrix(60, cond=50, rng=rng)
        x_true = rng.standard_normal(60)
        return A, A @ x_true, x_true

    def test_solves_the_system(self, system):
        A, b, x_true = system
        res = conjugate_gradient(A, b, tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-6)

    def test_callable_matvec(self, system):
        A, b, x_true = system
        res = conjugate_gradient(lambda v: A @ v, b, tol=1e-12)
        assert res.converged

    def test_residual_history_decreases_overall(self, system):
        A, b, _ = system
        res = conjugate_gradient(A, b, tol=1e-12)
        assert res.residuals[-1] < res.residuals[0] * 1e-6

    def test_x0_respected(self, system):
        A, b, x_true = system
        res = conjugate_gradient(A, b, x0=x_true, tol=1e-8)
        assert res.n_iter == 0 and res.converged

    def test_max_iter_cap(self, system):
        A, b, _ = system
        res = conjugate_gradient(A, b, tol=0.0, max_iter=3)
        assert res.n_iter == 3 and not res.converged

    def test_track_iterates(self, system):
        A, b, _ = system
        res = conjugate_gradient(A, b, tol=0.0, max_iter=5, track_iterates=True)
        assert len(res.iterates) == 5

    def test_deterministic_reduction_bitwise_stable(self, system):
        A, b, _ = system
        det = repro.get_reduction("sptr", threads_per_block=64)
        r1 = conjugate_gradient(A, b, reduction=det, tol=1e-10)
        r2 = conjugate_gradient(A, b, reduction=det, tol=1e-10)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.n_iter == r2.n_iter

    def test_nondeterministic_reduction_still_converges(self, system):
        A, b, x_true = system
        spa = repro.get_reduction("spa", threads_per_block=64)
        res = conjugate_gradient(A, b, reduction=spa, tol=1e-10, ctx=RunContext(0))
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-5)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            conjugate_gradient(np.eye(3), np.ones((3, 1)))
        with pytest.raises(ShapeError):
            conjugate_gradient(np.eye(3), np.ones(4))
        with pytest.raises(ShapeError):
            conjugate_gradient(np.eye(3), np.ones(3), x0=np.ones(2))


class TestIterateDivergence:
    def test_grows_with_iterations(self):
        ctx = RunContext(0)
        A = spd_test_matrix(150, cond=1e4, rng=ctx.data(1))
        b = ctx.data(2).standard_normal(150)
        spa = repro.get_reduction("spa", threads_per_block=64)
        div = iterate_divergence(A, b, reduction=spa, n_runs=4, n_iter=30, ctx=ctx)
        assert div[-1] > div[0]
        assert div[-1] > 0

    def test_deterministic_reduction_gives_zero(self):
        ctx = RunContext(0)
        A = spd_test_matrix(50, cond=100, rng=ctx.data(1))
        b = ctx.data(2).standard_normal(50)
        det = repro.get_reduction("sptr", threads_per_block=64)
        div = iterate_divergence(A, b, reduction=det, n_runs=3, n_iter=10, ctx=ctx)
        assert np.all(div == 0)

    def test_needs_two_runs(self):
        with pytest.raises(ConfigurationError):
            iterate_divergence(np.eye(3), np.ones(3),
                               reduction=repro.get_reduction("spa"), n_runs=1)
