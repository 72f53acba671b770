"""Tests for the Max|Vs| power-law fit (paper SIII-C)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics import fit_power_law


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        x = np.array([1e2, 1e3, 1e4, 1e5])
        y = 3.0 * x**0.5
        fit = fit_power_law(x, y)
        assert fit.alpha == pytest.approx(0.5, abs=1e-9)
        assert fit.beta == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_sqrt_n_growth_like_paper(self):
        # The paper: Max|Vs| ~ sqrt(n) for uniform inputs.
        rng = np.random.default_rng(0)
        x = np.logspace(2, 6, 12)
        y = 1e-16 * np.sqrt(x) * np.exp(rng.normal(0, 0.05, x.size))
        fit = fit_power_law(x, y)
        assert 0.4 < fit.alpha < 0.6
        assert fit.r_squared > 0.95

    def test_fit_round_trip(self):
        fit = fit_power_law([1, 10, 100], [2, 20, 200])
        np.testing.assert_allclose(fit.beta * 1000**fit.alpha, 2000, rtol=1e-9)

    def test_nonpositive_points_dropped(self):
        fit = fit_power_law([1, 10, 100, 1000], [2, 20, 0, 2000])
        assert fit.n_points == 3
        assert fit.alpha == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points_raise(self):
        with pytest.raises(ConfigurationError):
            fit_power_law([1.0], [2.0])

    def test_all_invalid_raise(self):
        with pytest.raises(ConfigurationError):
            fit_power_law([0, -1], [1, 1])

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            fit_power_law([1, 2, 3], [1, 2])

    def test_constant_y_gives_zero_alpha(self):
        fit = fit_power_law([1, 10, 100], [5.0, 5.0, 5.0])
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert fit.beta == pytest.approx(5.0, rel=1e-9)
