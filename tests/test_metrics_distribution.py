"""Tests for PDF estimation, KL divergence and normality reports (SIII-C)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics import estimate_pdf, kl_divergence, kl_to_normal, normality_report
from repro.metrics.distribution import _norm_pdf


class TestEstimatePdf:
    def test_density_integrates_to_one(self, rng):
        centers, density = estimate_pdf(rng.standard_normal(5000), bins=51)
        width = centers[1] - centers[0]
        assert float(np.sum(density) * width) == pytest.approx(1.0, rel=1e-6)

    def test_centers_are_monotone(self, rng):
        centers, _ = estimate_pdf(rng.standard_normal(100), bins=11)
        assert np.all(np.diff(centers) > 0)

    def test_explicit_range(self, rng):
        centers, _ = estimate_pdf(rng.standard_normal(100), bins=10, range_=(-1, 1))
        assert centers[0] > -1 and centers[-1] < 1

    def test_nonfinite_samples_dropped(self):
        centers, density = estimate_pdf([1.0, 2.0, np.inf, np.nan], bins=2)
        assert np.all(np.isfinite(density))

    def test_empty_sample_raises(self):
        with pytest.raises(ConfigurationError):
            estimate_pdf([np.nan], bins=5)

    def test_too_few_bins_raise(self):
        with pytest.raises(ConfigurationError):
            estimate_pdf([1.0, 2.0], bins=1)


class TestKlDivergence:
    def test_identical_distributions_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_different(self):
        assert kl_divergence([0.9, 0.1], [0.5, 0.5]) > 0

    def test_renormalises_inputs(self):
        assert kl_divergence([2.0, 2.0], [5.0, 5.0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_q_bins_floored(self):
        val = kl_divergence([0.5, 0.5], [1.0, 0.0])
        assert np.isfinite(val) and val > 0

    def test_grid_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            kl_divergence([0.5, 0.5], [1.0, 0.0, 0.0])

    def test_zero_mass_p_raises(self):
        with pytest.raises(ConfigurationError):
            kl_divergence([0.0, 0.0], [0.5, 0.5])


class TestKlToNormal:
    def test_gaussian_sample_has_small_kl(self):
        x = np.random.default_rng(0).standard_normal(20000)
        assert kl_to_normal(x, bins=41) < 0.05

    def test_bimodal_sample_has_large_kl(self):
        r = np.random.default_rng(0)
        x = np.concatenate([r.normal(-5, 0.1, 5000), r.normal(5, 0.1, 5000)])
        assert kl_to_normal(x, bins=41) > 0.3

    def test_degenerate_sample_is_inf(self):
        assert kl_to_normal(np.ones(100)) == np.inf

    def test_too_small_sample_raises(self):
        with pytest.raises(ConfigurationError):
            kl_to_normal([1.0, 2.0])


class TestNormPdfTwin:
    """The NumPy normal density ``kl_to_normal`` uses must reproduce
    ``scipy.stats.norm.pdf`` bit for bit, so KL values (and the cached
    results that carry them) do not depend on whether SciPy is there."""

    def test_bit_identical_to_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(20241118)
        for _ in range(400):
            sigma = float(10.0 ** rng.uniform(-300, 300))
            mu = float(rng.standard_normal() * sigma * 10.0 ** rng.uniform(-3, 3))
            # |z| up to 60: past ~37 the exp underflows through the
            # subnormals to zero.
            centers = mu + sigma * rng.uniform(-60, 60, size=257)
            want = stats.norm.pdf(centers, loc=mu, scale=sigma)
            assert _norm_pdf(centers, mu, sigma).tobytes() == want.tobytes()

    def test_extremes_bit_identical_to_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        centers = np.array([0.0, 1.0, -1.0, 37.5, -38.6, 40.0, 1e308, -1e308,
                            5e-324, np.inf, -np.inf])
        with np.errstate(over="ignore"):
            for mu, sigma in [(0.0, 1.0), (0.5, 1e-300), (0.0, 5e-324),
                              (1e300, 1e300), (0.0, 1e308), (-3.0, 0.01)]:
                want = stats.norm.pdf(centers, loc=mu, scale=sigma)
                got = _norm_pdf(centers, mu, sigma)
                assert got.tobytes() == want.tobytes(), (mu, sigma)

    def test_kl_to_normal_matches_the_scipy_formula(self):
        stats = pytest.importorskip("scipy.stats")
        x = np.random.default_rng(4).standard_normal(3000) * 1e-9 + 2.5
        mu, sigma = float(np.mean(x)), float(np.std(x))
        centers, density = estimate_pdf(x, bins=41)
        width = centers[1] - centers[0]
        q = stats.norm.pdf(centers, loc=mu, scale=sigma)
        assert kl_to_normal(x, bins=41) == kl_divergence(density * width, q * width)


class TestNormalityReport:
    def test_gaussian_verdict(self):
        x = np.random.default_rng(1).standard_normal(10000)
        rep = normality_report(x, bins=41)
        assert rep.is_normal_kl
        assert abs(rep.skewness) < 0.1 and abs(rep.excess_kurtosis) < 0.2
        assert rep.n == 10000

    def test_discrete_mixture_fails_kl(self):
        r = np.random.default_rng(2)
        atoms = r.standard_normal(6) * 10
        x = atoms[r.integers(0, 6, 4000)] + r.normal(0, 0.01, 4000)
        rep = normality_report(x, bins=41)
        assert not rep.is_normal_kl

    def test_degenerate_report(self):
        rep = normality_report(np.zeros(100))
        assert rep.kl_normal == np.inf and not rep.is_normal_kl

    def test_threshold_is_configurable(self):
        x = np.random.default_rng(3).standard_normal(5000)
        assert not normality_report(x, kl_threshold=0.0).is_normal_kl
