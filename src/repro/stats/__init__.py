"""Statistical substrate for Impressions.

This package contains the statistical machinery the paper relies on:

* :mod:`repro.stats.distributions` — parameterised probability distributions
  (lognormal, Pareto, the hybrid lognormal-body/Pareto-tail file-size model,
  mixtures of lognormals, shifted Poisson, inverse-polynomial, categorical and
  empirical distributions).
* :mod:`repro.stats.fitting` — automatic curve fitting of empirical data onto
  those models, including model selection.
* :mod:`repro.stats.goodness_of_fit` — Kolmogorov-Smirnov and Chi-square
  tests, MDCC, confidence intervals and standard errors.
* :mod:`repro.stats.histograms` — power-of-two binning used throughout the
  paper's figures.
* :mod:`repro.stats.interpolation` — piecewise interpolation and extrapolation
  of binned distributions across file-system sizes.
* :mod:`repro.stats.montecarlo` — inverse-CDF and rejection sampling helpers.
* :mod:`repro.stats.special` — bit-exact numpy ports of the scipy special
  functions generation needs (``ndtri``, ``ndtr``, Poisson log terms).
"""

from repro.stats.distributions import (
    CategoricalDistribution,
    Distribution,
    EmpiricalDistribution,
    HybridLognormalPareto,
    InversePolynomialDistribution,
    LognormalDistribution,
    MixtureOfLognormals,
    ParetoDistribution,
    ShiftedPoissonDistribution,
)
from repro.stats.goodness_of_fit import (
    GoodnessOfFitResult,
    chi_square_test,
    confidence_interval,
    ks_test_one_sample,
    ks_test_two_sample,
    mdcc,
    standard_error,
)
from repro.stats.histograms import PowerOfTwoHistogram, power_of_two_bins
from repro.stats.interpolation import BinnedDistribution, PiecewiseInterpolator
from repro.stats.size_models import DowneyMultiplicativeModel, RecursiveForestFileModel

__all__ = [
    "Distribution",
    "LognormalDistribution",
    "ParetoDistribution",
    "HybridLognormalPareto",
    "MixtureOfLognormals",
    "ShiftedPoissonDistribution",
    "InversePolynomialDistribution",
    "CategoricalDistribution",
    "EmpiricalDistribution",
    "GoodnessOfFitResult",
    "ks_test_one_sample",
    "ks_test_two_sample",
    "chi_square_test",
    "mdcc",
    "confidence_interval",
    "standard_error",
    "PowerOfTwoHistogram",
    "power_of_two_bins",
    "BinnedDistribution",
    "PiecewiseInterpolator",
    "DowneyMultiplicativeModel",
    "RecursiveForestFileModel",
]
