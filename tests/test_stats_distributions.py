"""Unit tests for repro.stats.distributions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.stats.distributions import (
    CategoricalDistribution,
    EmpiricalDistribution,
    HybridLognormalPareto,
    InversePolynomialDistribution,
    LognormalDistribution,
    MixtureOfLognormals,
    ParetoDistribution,
    ShiftedPoissonDistribution,
)


class TestLognormal:
    def test_mean_matches_formula(self):
        dist = LognormalDistribution(mu=2.0, sigma=0.5)
        assert dist.mean() == pytest.approx(math.exp(2.0 + 0.125))

    def test_median_is_exp_mu(self):
        dist = LognormalDistribution(mu=3.0, sigma=1.0)
        assert dist.median() == pytest.approx(math.exp(3.0))

    def test_sample_statistics(self, rng):
        dist = LognormalDistribution(mu=5.0, sigma=0.4)
        sample = dist.sample(rng, 20_000)
        assert np.log(sample).mean() == pytest.approx(5.0, abs=0.02)
        assert np.log(sample).std() == pytest.approx(0.4, abs=0.02)

    def test_cdf_is_monotone_and_bounded(self):
        dist = LognormalDistribution(mu=0.0, sigma=1.0)
        xs = np.logspace(-3, 3, 50)
        cdf = dist.cdf(xs)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] >= 0.0 and cdf[-1] <= 1.0

    def test_cdf_zero_below_support(self):
        dist = LognormalDistribution(mu=0.0, sigma=1.0)
        assert dist.cdf(np.asarray([-1.0, 0.0]))[0] == 0.0

    def test_quantile_inverts_cdf(self):
        dist = LognormalDistribution(mu=1.5, sigma=0.7)
        qs = np.asarray([0.1, 0.5, 0.9])
        xs = dist.quantile(qs)
        assert dist.cdf(xs) == pytest.approx(qs, abs=1e-9)

    def test_quantile_rejects_out_of_range(self):
        dist = LognormalDistribution(mu=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            dist.quantile(np.asarray([1.5]))

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            LognormalDistribution(mu=0.0, sigma=0.0)

    def test_pdf_integrates_to_one(self):
        dist = LognormalDistribution(mu=1.0, sigma=0.5)
        xs = np.linspace(1e-6, 60, 200_000)
        integral = np.trapezoid(dist.pdf(xs), xs)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_params_roundtrip(self):
        dist = LognormalDistribution(mu=9.48, sigma=2.46)
        assert dist.params() == {"mu": 9.48, "sigma": 2.46}
        assert "lognormal" in dist.describe()


class TestPareto:
    def test_mean_finite_for_k_above_one(self):
        dist = ParetoDistribution(k=2.0, xm=10.0)
        assert dist.mean() == pytest.approx(20.0)

    def test_mean_infinite_for_small_k(self):
        dist = ParetoDistribution(k=0.91, xm=512.0)
        assert math.isinf(dist.mean())

    def test_samples_respect_scale(self, rng):
        dist = ParetoDistribution(k=1.5, xm=100.0)
        sample = dist.sample(rng, 5_000)
        assert np.all(sample >= 100.0)

    def test_cdf_at_scale_is_zero(self):
        dist = ParetoDistribution(k=1.0, xm=4.0)
        assert dist.cdf(np.asarray([4.0]))[0] == pytest.approx(0.0)

    def test_cdf_tail_behaviour(self):
        dist = ParetoDistribution(k=1.0, xm=1.0)
        assert dist.cdf(np.asarray([10.0]))[0] == pytest.approx(0.9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParetoDistribution(k=0.0, xm=1.0)
        with pytest.raises(ValueError):
            ParetoDistribution(k=1.0, xm=0.0)


class TestHybridLognormalPareto:
    @pytest.fixture
    def hybrid(self) -> HybridLognormalPareto:
        return HybridLognormalPareto(
            body=LognormalDistribution(mu=9.48, sigma=2.46),
            tail=ParetoDistribution(k=0.91, xm=512 * 1024 * 1024),
            body_fraction=0.99994,
        )

    def test_tail_fraction(self, hybrid):
        assert hybrid.tail_fraction == pytest.approx(1.0 - 0.99994)

    def test_body_samples_below_threshold(self, rng, hybrid):
        sample = hybrid.sample(rng, 20_000)
        below = sample < 512 * 1024 * 1024
        # Essentially all samples come from the body at this body fraction.
        assert below.mean() > 0.999

    def test_tail_samples_exist_when_tail_heavy(self, rng):
        heavy = HybridLognormalPareto(
            body=LognormalDistribution(mu=9.0, sigma=1.0),
            tail=ParetoDistribution(k=1.5, xm=1024.0),
            body_fraction=0.5,
        )
        sample = heavy.sample(rng, 4_000)
        assert (sample >= 1024.0).mean() == pytest.approx(0.5, abs=0.05)

    def test_cdf_monotone_across_threshold(self, hybrid):
        xs = np.asarray([1e3, 1e6, 5e8, 6e8, 1e10])
        cdf = hybrid.cdf(xs)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] <= 1.0

    def test_cdf_continuity_at_threshold(self, hybrid):
        threshold = hybrid.tail.xm
        just_below = hybrid.cdf(np.asarray([threshold * (1 - 1e-9)]))[0]
        at = hybrid.cdf(np.asarray([threshold]))[0]
        assert at == pytest.approx(just_below, abs=1e-3)

    def test_empty_sample(self, rng, hybrid):
        assert hybrid.sample(rng, 0).size == 0

    def test_invalid_body_fraction(self):
        with pytest.raises(ValueError):
            HybridLognormalPareto(
                body=LognormalDistribution(mu=1.0, sigma=1.0),
                tail=ParetoDistribution(k=1.0, xm=10.0),
                body_fraction=0.0,
            )

    def test_params_contains_all_components(self, hybrid):
        params = hybrid.params()
        assert set(params) == {"body_fraction", "mu", "sigma", "k", "xm"}

    def test_body_mass_is_computed_once_and_bit_exact(self, hybrid, monkeypatch):
        limit = hybrid.tail.xm
        mass = float(hybrid.body.cdf(np.asarray([limit]))[0])
        xs = np.asarray([0.0, 1e3, 1e6, limit * (1 - 1e-9), limit, 1e10])
        below = xs < limit
        expected_cdf = np.empty_like(xs)
        expected_cdf[below] = hybrid.body_fraction * hybrid.body.cdf(xs[below]) / mass
        expected_cdf[~below] = hybrid.body_fraction + hybrid.tail_fraction * hybrid.tail.cdf(
            xs[~below]
        )
        expected_pdf = np.empty_like(xs)
        expected_pdf[below] = hybrid.body_fraction * hybrid.body.pdf(xs[below]) / mass
        expected_pdf[~below] = hybrid.tail_fraction * hybrid.tail.pdf(xs[~below])
        quantiles = np.random.default_rng(3).random(50) * mass

        calls = []
        body_cdf = LognormalDistribution.cdf
        monkeypatch.setattr(
            LognormalDistribution, "cdf", lambda self, x: calls.append(x) or body_cdf(self, x)
        )
        assert np.array_equal(hybrid.cdf(xs), np.clip(expected_cdf, 0.0, 1.0))
        assert np.array_equal(hybrid.pdf(xs), expected_pdf)
        sample = hybrid._sample_truncated_body(np.random.default_rng(3), 50)
        assert np.array_equal(sample, hybrid.body.quantile(quantiles))
        hybrid.mean()
        # One evaluation at the limit, plus cdf's own evaluation below it.
        assert [x.tolist() for x in calls] == [[limit], xs[below].tolist()]


class TestMixtureOfLognormals:
    @pytest.fixture
    def mixture(self) -> MixtureOfLognormals:
        return MixtureOfLognormals.from_parameters(
            weights=(0.76, 0.24), mus=(14.83, 20.93), sigmas=(2.35, 1.48)
        )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureOfLognormals.from_parameters(weights=(0.5, 0.2), mus=(1, 2), sigmas=(1, 1))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MixtureOfLognormals.from_parameters(weights=(1.0,), mus=(1, 2), sigmas=(1, 1))

    def test_mean_is_weighted_sum(self, mixture):
        expected = 0.76 * math.exp(14.83 + 2.35**2 / 2) + 0.24 * math.exp(20.93 + 1.48**2 / 2)
        assert mixture.mean() == pytest.approx(expected)

    def test_sampling_matches_cdf_at_midpoint(self, rng, mixture):
        cut = math.exp((14.83 + 20.93) / 2)
        expected = float(mixture.cdf(np.asarray([cut]))[0])
        sample = mixture.sample(rng, 30_000)
        assert (sample < cut).mean() == pytest.approx(expected, abs=0.02)

    def test_cdf_bounded(self, mixture):
        xs = np.logspace(0, 12, 40)
        cdf = mixture.cdf(xs)
        assert np.all((cdf >= 0) & (cdf <= 1))
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_params_labels_components(self, mixture):
        params = mixture.params()
        assert params["alpha1"] == pytest.approx(0.76)
        assert params["mu2"] == pytest.approx(20.93)


class TestShiftedPoisson:
    def test_mean_with_offset(self):
        dist = ShiftedPoissonDistribution(lam=6.49, offset=1)
        assert dist.mean() == pytest.approx(7.49)

    def test_sample_mean(self, rng):
        dist = ShiftedPoissonDistribution(lam=6.49)
        sample = dist.sample(rng, 50_000)
        assert sample.mean() == pytest.approx(6.49, abs=0.05)

    def test_pmf_sums_to_one(self):
        dist = ShiftedPoissonDistribution(lam=3.0)
        ks = np.arange(0, 60)
        assert dist.pmf(ks).sum() == pytest.approx(1.0, abs=1e-9)

    def test_offset_shifts_support(self, rng):
        dist = ShiftedPoissonDistribution(lam=2.0, offset=3)
        sample = dist.sample(rng, 1_000)
        assert sample.min() >= 3

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            ShiftedPoissonDistribution(lam=0.0)

    @pytest.mark.parametrize("lam", [0.01, 0.5, 1.0, 2.0, 6.49, 13.7, 50.0, 400.0])
    @pytest.mark.parametrize("offset", [0, 1, 3])
    def test_pmf_and_cdf_equal_scipy_stats_poisson(self, lam, offset):
        from scipy.stats import poisson

        dist = ShiftedPoissonDistribution(lam=lam, offset=offset)
        ks = np.arange(-3, int(lam * 3) + 40)
        xs = np.concatenate([ks, ks + 0.5, [-np.inf, np.inf, np.nan]])
        np.testing.assert_array_equal(dist.pmf(ks), poisson.pmf(ks - offset, lam))
        np.testing.assert_array_equal(dist.cdf(xs), poisson.cdf(np.floor(xs) - offset, lam))
        halves = ks + 0.5
        np.testing.assert_array_equal(dist.pmf(halves), poisson.pmf(halves - offset, lam))
        for scalar in (0, 2, -1, 3.5):
            assert dist.pmf(scalar) == poisson.pmf(scalar - offset, lam)
            assert dist.cdf(scalar) == poisson.cdf(np.floor(scalar) - offset, lam)


class TestInversePolynomial:
    def test_pmf_sums_to_one(self):
        dist = InversePolynomialDistribution(degree=2.0, offset=2.36, max_value=500)
        ks = np.arange(0, 501)
        assert dist.pmf(ks).sum() == pytest.approx(1.0, abs=1e-9)

    def test_mass_decreases_with_k(self):
        dist = InversePolynomialDistribution(degree=2.0, offset=2.36, max_value=100)
        pmf = dist.pmf(np.arange(0, 101))
        assert np.all(np.diff(pmf) <= 0)

    def test_samples_within_support(self, rng):
        dist = InversePolynomialDistribution(degree=2.0, offset=2.36, max_value=50)
        sample = dist.sample(rng, 2_000)
        assert sample.min() >= 0 and sample.max() <= 50

    def test_most_directories_are_small(self, rng):
        dist = InversePolynomialDistribution(degree=2.0, offset=2.36, max_value=4096)
        sample = dist.sample(rng, 5_000)
        assert np.median(sample) <= 2

    def test_cdf_reaches_one(self):
        dist = InversePolynomialDistribution(degree=2.0, offset=2.36, max_value=30)
        assert dist.cdf(np.asarray([30]))[0] == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            InversePolynomialDistribution(degree=0.0, offset=1.0)
        with pytest.raises(ValueError):
            InversePolynomialDistribution(degree=2.0, offset=-1.0)


class TestCategorical:
    def test_probabilities_normalised(self):
        dist = CategoricalDistribution(labels=["a", "b"], weights=[3.0, 1.0])
        assert dist.probability_of("a") == pytest.approx(0.75)
        assert dist.probability_of("missing") == 0.0

    def test_sample_labels_frequencies(self, rng):
        dist = CategoricalDistribution(labels=["x", "y", "z"], weights=[0.6, 0.3, 0.1])
        labels = dist.sample_labels(rng, 30_000)
        assert labels.count("x") / len(labels) == pytest.approx(0.6, abs=0.02)

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            CategoricalDistribution(labels=["a"], weights=[0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CategoricalDistribution(labels=["a", "b"], weights=[1.0, -0.1])

    def test_cdf_and_pdf_consistent(self):
        dist = CategoricalDistribution(labels=["a", "b", "c"], weights=[0.2, 0.3, 0.5])
        pdf = dist.pdf(np.asarray([0, 1, 2]))
        assert pdf.sum() == pytest.approx(1.0)
        assert dist.cdf(np.asarray([2]))[0] == pytest.approx(1.0)


class TestEmpirical:
    def test_cdf_matches_observations(self):
        dist = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        assert dist.cdf(np.asarray([2.0]))[0] == pytest.approx(0.5)
        assert dist.cdf(np.asarray([0.5]))[0] == 0.0
        assert dist.cdf(np.asarray([10.0]))[0] == 1.0

    def test_sampling_only_returns_observed_values(self, rng):
        observations = [5.0, 7.0, 11.0]
        dist = EmpiricalDistribution(observations)
        sample = dist.sample(rng, 500)
        assert set(np.unique(sample)).issubset(set(observations))

    def test_mean_and_params(self):
        dist = EmpiricalDistribution([2.0, 4.0, 6.0])
        assert dist.mean() == pytest.approx(4.0)
        assert dist.params()["n"] == 3

    def test_quantile(self):
        dist = EmpiricalDistribution(list(range(101)))
        assert dist.quantile(np.asarray([0.5]))[0] == pytest.approx(50.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([])


class TestCommonInterface:
    @pytest.mark.parametrize(
        "distribution",
        [
            LognormalDistribution(mu=1.0, sigma=1.0),
            ParetoDistribution(k=2.0, xm=1.0),
            ShiftedPoissonDistribution(lam=4.0),
            InversePolynomialDistribution(degree=2.0, offset=2.36, max_value=64),
        ],
        ids=["lognormal", "pareto", "poisson", "inverse-polynomial"],
    )
    def test_negative_sample_size_rejected(self, distribution, rng):
        with pytest.raises(ValueError):
            distribution.sample(rng, -1)

    @pytest.mark.parametrize(
        "distribution",
        [
            LognormalDistribution(mu=1.0, sigma=1.0),
            ParetoDistribution(k=2.0, xm=1.0),
            ShiftedPoissonDistribution(lam=4.0),
        ],
        ids=["lognormal", "pareto", "poisson"],
    )
    def test_sampling_is_reproducible_from_seed(self, distribution):
        a = distribution.sample(np.random.default_rng(99), 100)
        b = distribution.sample(np.random.default_rng(99), 100)
        assert np.array_equal(a, b)
