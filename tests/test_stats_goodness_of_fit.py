"""Unit tests for repro.stats.goodness_of_fit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.distributions import LognormalDistribution
from repro.stats.goodness_of_fit import (
    chi_square_test,
    confidence_interval,
    ks_test_one_sample,
    ks_test_two_sample,
    mdcc,
    mdcc_from_fractions,
    standard_error,
)


class TestKolmogorovSmirnov:
    def test_same_distribution_passes(self, rng):
        a = rng.normal(0, 1, 2_000)
        b = rng.normal(0, 1, 2_000)
        result = ks_test_two_sample(a, b)
        assert result.passed
        assert result.statistic < 0.08

    def test_different_distributions_fail(self, rng):
        a = rng.normal(0, 1, 2_000)
        b = rng.normal(2, 1, 2_000)
        result = ks_test_two_sample(a, b)
        assert not result.passed
        assert result.statistic > 0.5

    def test_one_sample_against_true_cdf(self, rng):
        dist = LognormalDistribution(mu=2.0, sigma=0.7)
        sample = dist.sample(rng, 3_000)
        result = ks_test_one_sample(sample, dist.cdf)
        assert result.passed

    def test_one_sample_against_wrong_cdf(self, rng):
        dist = LognormalDistribution(mu=2.0, sigma=0.7)
        wrong = LognormalDistribution(mu=4.0, sigma=0.7)
        sample = dist.sample(rng, 3_000)
        result = ks_test_one_sample(sample, wrong.cdf)
        assert not result.passed

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_test_two_sample([], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ks_test_two_sample([1.0, np.nan], [1.0, 2.0])


class TestChiSquare:
    def test_identical_counts_pass(self):
        observed = [100, 200, 300]
        result = chi_square_test(observed, observed)
        assert result.passed
        assert result.statistic == pytest.approx(0.0)

    def test_wildly_different_counts_fail(self):
        result = chi_square_test([100, 10, 10], [10, 10, 100])
        assert not result.passed

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chi_square_test([1, 2], [1, 2, 3])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            chi_square_test([-1, 2], [1, 2])

    def test_all_zero_expected_rejected(self):
        with pytest.raises(ValueError):
            chi_square_test([1, 2], [0, 0])

    def test_zero_expected_bins_are_dropped(self):
        result = chi_square_test([5, 0, 5], [5, 0, 5])
        assert result.passed


class TestMdcc:
    def test_identical_samples_zero(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        assert mdcc(sample, sample) == 0.0

    def test_disjoint_samples_one(self):
        assert mdcc([1.0, 2.0], [10.0, 20.0]) == pytest.approx(1.0)

    def test_matches_ks_statistic(self, rng):
        a = rng.normal(0, 1, 500)
        b = rng.normal(0.5, 1, 700)
        assert mdcc(a, b) == pytest.approx(ks_test_two_sample(a, b).statistic, abs=1e-9)

    def test_fraction_variant_normalises(self):
        # Same shape, different scale: identical after normalisation.
        assert mdcc_from_fractions([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0)

    def test_fraction_variant_detects_shift(self):
        value = mdcc_from_fractions([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert value == pytest.approx(1.0)

    def test_fraction_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mdcc_from_fractions([1.0], [1.0, 2.0])


class TestErrorMetrics:
    def test_confidence_interval_contains_mean(self, rng):
        sample = rng.normal(10.0, 2.0, 400)
        low, high = confidence_interval(sample, confidence=0.95)
        assert low < sample.mean() < high
        assert low < 10.0 < high

    def test_confidence_interval_narrows_with_more_data(self, rng):
        small = rng.normal(0, 1, 20)
        large = rng.normal(0, 1, 20_000)
        small_width = np.diff(confidence_interval(small))[0]
        large_width = np.diff(confidence_interval(large))[0]
        assert large_width < small_width

    def test_confidence_range_validated(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0, 3.0], confidence=1.5)

    def test_standard_error_formula(self):
        sample = np.asarray([2.0, 4.0, 6.0, 8.0])
        expected = sample.std(ddof=1) / 2.0
        assert standard_error(sample) == pytest.approx(expected)

    def test_standard_error_single_value(self):
        assert standard_error([5.0]) == 0.0
