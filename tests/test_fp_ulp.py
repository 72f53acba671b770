"""Tests for ULP utilities (repro.fp.ulp)."""

import numpy as np
import pytest

from repro.errors import DTypeError
from repro.fp import relative_error_in_ulps, ulp, ulp_distance


class TestUlp:
    def test_ulp_of_one_is_eps(self):
        assert ulp(1.0) == np.finfo(np.float64).eps

    def test_ulp_scales_with_exponent(self):
        assert ulp(2.0) == 2 * ulp(1.0)
        assert ulp(1e6) > ulp(1.0)

    def test_ulp_of_zero_is_smallest_subnormal(self):
        assert ulp(0.0) == np.nextafter(0.0, 1.0)

    def test_ulp_symmetric_in_sign(self):
        assert ulp(-1.5) == ulp(1.5)

    def test_nonfinite_is_nan(self):
        assert np.isnan(ulp(np.inf))
        assert np.isnan(ulp(np.nan))

    def test_float32_ulp(self):
        assert ulp(np.float32(1.0)) == np.finfo(np.float32).eps

    def test_array_input(self):
        out = ulp(np.array([1.0, 2.0]))
        assert out.shape == (2,) and out[1] == 2 * out[0]


class TestUlpDistance:
    def test_equal_values_zero(self):
        assert ulp_distance(1.5, 1.5) == 0

    def test_adjacent_floats_one(self):
        assert ulp_distance(1.0, np.nextafter(1.0, 2.0)) == 1

    def test_across_zero(self):
        a = np.nextafter(0.0, -1.0)
        b = np.nextafter(0.0, 1.0)
        assert ulp_distance(a, b) == 2

    def test_symmetry(self, rng):
        a, b = rng.standard_normal(2)
        assert ulp_distance(a, b) == ulp_distance(b, a)

    def test_array_distance(self):
        a = np.array([1.0, 2.0])
        b = np.nextafter(a, np.inf)
        np.testing.assert_array_equal(ulp_distance(a, b), [1, 1])

    def test_nan_raises(self):
        with pytest.raises(DTypeError):
            ulp_distance(np.nan, 1.0)


class TestRelativeErrorInUlps:
    def test_zero_error(self):
        assert relative_error_in_ulps(1.0, 1.0) == 0.0

    def test_one_ulp_error(self):
        approx = np.nextafter(1.0, 2.0)
        assert relative_error_in_ulps(approx, 1.0) == pytest.approx(1.0)

    def test_paper_magnitudes(self):
        # Table 1 deltas are a handful of ulps of the sum.
        exact = 100.0
        approx = exact + 3 * float(ulp(100.0))
        assert relative_error_in_ulps(approx, exact) == pytest.approx(3.0)
