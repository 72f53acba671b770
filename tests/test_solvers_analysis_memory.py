"""Tests for the CG solver and FP error analysis."""

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, ShapeError
from repro.fp.analysis import (
    bounds_for,
    expected_vs_std,
    serial_error_bound,
    summation_condition_number,
    tree_error_bound,
)
from repro.fp.summation import serial_sum, tree_fold
from repro.fp.compensated import exact_sum
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


class TestErrorAnalysis:
    def test_bounds_contain_actual_errors(self, rng):
        x = rng.standard_normal(5000) * 100
        exact = exact_sum(x)
        assert abs(serial_sum(x) - exact) <= serial_error_bound(x)
        assert abs(tree_fold(x) - exact) <= tree_error_bound(x)

    def test_tree_bound_much_tighter(self, rng):
        x = rng.standard_normal(1 << 16)
        b = bounds_for(x)
        assert b.tree_bound < b.serial_bound
        assert b.serial_bound / b.tree_bound == pytest.approx((x.size - 1) / 16, rel=0.01)

    def test_trivial_sizes(self):
        assert serial_error_bound([1.0]) == 0.0
        assert tree_error_bound([]) == 0.0

    def test_condition_number_same_sign_is_one(self):
        assert summation_condition_number([1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_condition_number_cancellation(self):
        assert summation_condition_number([1e8, -1e8, 1.0]) == pytest.approx(2e8, rel=1e-6)

    def test_condition_number_zero_sum(self):
        assert summation_condition_number([1.0, -1.0]) == np.inf

    def test_expected_vs_std_order_of_magnitude(self):
        # Fig-1 style workload: measured SPA Vs std ~ 8e-16 at 100k/1563
        # partials; the estimate must land within ~10x.
        ctx = RunContext(0)
        x = ctx.data(5).uniform(0, 10, 100_000)
        est = expected_vs_std(x, n_partials=1563)
        assert 1e-17 < est < 1e-13

    def test_expected_vs_std_validation(self):
        with pytest.raises(ConfigurationError):
            expected_vs_std(np.ones(4), 0)

