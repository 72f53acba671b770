"""Tests for the array metrics Vermv (eq. 1) and Vc (eq. 2)."""

import math

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.metrics import (
    count_variability,
    ermv,
    runs_all_unique,
    unique_output_count,
    variability_report,
)


class TestErmv:
    def test_identical_arrays_give_zero(self, rng):
        a = rng.standard_normal((4, 5))
        assert ermv(a, a.copy()) == 0.0

    def test_zero_iff_bitwise_identical(self, rng):
        a = rng.standard_normal(100)
        b = a.copy()
        b[42] = np.nextafter(b[42], np.inf)
        assert ermv(a, b) > 0.0

    def test_known_value(self):
        a = np.array([1.0, 2.0, 4.0])
        b = np.array([1.1, 2.0, 4.0])
        assert ermv(a, b) == pytest.approx(0.1 / 3, rel=1e-12)

    def test_multidimensional_normalisation(self):
        a = np.ones((2, 3))
        b = a.copy()
        b[0, 0] = 2.0
        assert ermv(a, b) == pytest.approx(1.0 / 6)

    def test_zero_reference_with_difference_is_inf(self):
        a = np.array([0.0, 1.0])
        b = np.array([0.5, 1.0])
        assert math.isinf(ermv(a, b))

    def test_zero_reference_equal_is_finite(self):
        a = np.array([0.0, 1.0])
        assert ermv(a, a.copy()) == 0.0

    def test_not_symmetric_in_general(self):
        a = np.array([1.0])
        b = np.array([2.0])
        assert ermv(a, b) == pytest.approx(1.0)
        assert ermv(b, a) == pytest.approx(0.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ermv(np.ones(3), np.ones(4))

    def test_empty_arrays(self):
        assert ermv(np.empty(0), np.empty(0)) == 0.0


class TestCountVariability:
    def test_identical_gives_zero(self, rng):
        a = rng.standard_normal(50)
        assert count_variability(a, a.copy()) == 0.0

    def test_fraction_of_differing_elements(self):
        a = np.zeros(10)
        b = a.copy()
        b[:3] = 1.0
        assert count_variability(a, b) == pytest.approx(0.3)

    def test_one_ulp_difference_counts(self):
        a = np.ones(4)
        b = a.copy()
        b[0] = np.nextafter(1.0, 2.0)
        assert count_variability(a, b) == pytest.approx(0.25)

    def test_negative_zero_equals_positive_zero(self):
        # Value semantics (eq. 2 uses !=), matching the paper's indicator.
        assert count_variability(np.array([0.0]), np.array([-0.0])) == 0.0

    def test_nan_never_equal(self):
        a = np.array([np.nan])
        assert count_variability(a, a.copy()) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            count_variability(np.ones((2, 2)), np.ones(4))


class TestVariabilityReport:
    def test_deterministic_runs_report_zero(self, rng):
        ref = rng.standard_normal(20)
        rep = variability_report(ref, [ref.copy() for _ in range(5)])
        assert rep.ermv_mean == 0.0 and rep.vc_mean == 0.0
        assert rep.n_unique == 1 and not rep.all_unique

    def test_all_unique_detection(self, rng):
        ref = rng.standard_normal(20)
        runs = [ref + i * 1e-7 for i in range(1, 4)]
        rep = variability_report(ref, runs)
        assert rep.all_unique and rep.n_unique == 3

    def test_statistics_fields(self, rng):
        ref = np.ones(10)
        runs = [ref.copy(), ref * (1 + 1e-7)]
        rep = variability_report(ref, runs)
        assert rep.n_runs == 2
        assert rep.ermv_min == 0.0
        assert rep.ermv_max == pytest.approx(1e-7, rel=1e-3)
        assert rep.vc_max == 1.0 and rep.vc_min == 0.0

    def test_empty_runs(self):
        rep = variability_report(np.ones(3), [])
        assert rep.n_runs == 0 and rep.all_unique

    def test_as_dict_round_trip(self, rng):
        rep = variability_report(np.ones(3), [np.ones(3)])
        d = rep.as_dict()
        assert d["n_runs"] == 1 and "ermv_mean" in d


class TestPairwiseAndUniqueness:
    def test_unique_output_count(self):
        a = np.ones(4)
        assert unique_output_count([a, a.copy(), a + 1]) == 2

    def test_runs_all_unique_paper_result(self, rng):
        # The paper: 1000 trained models, every weight vector unique.
        runs = [rng.standard_normal(6) for _ in range(10)]
        assert runs_all_unique(runs)
        assert not runs_all_unique(runs + [runs[0].copy()])
