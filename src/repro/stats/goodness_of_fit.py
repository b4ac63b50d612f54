"""Goodness-of-fit tests and error metrics.

The paper uses a battery of statistical checks to guarantee that generated
images match desired distributions:

* **Kolmogorov-Smirnov** (one- and two-sample), used to gate constraint
  resolution (Table 4) and interpolation accuracy (Table 5);
* **Chi-square** for binned data;
* **MDCC** — Maximum Displacement of the Cumulative Curves — the accuracy
  metric of Table 3;
* **confidence intervals** and **standard error** of sample means.

All functions are self-contained so test code and benches can call them
without a fitted model object.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GoodnessOfFitResult",
    "ks_test_two_sample",
    "ks_test_one_sample",
    "chi_square_test",
    "mdcc",
    "mdcc_from_fractions",
    "confidence_interval",
    "standard_error",
]


class GoodnessOfFitResult:
    """Outcome of a statistical test; immutable, compared and hashed by value.

    Attributes:
        statistic: the test statistic (D for K-S, chi² for Chi-square).
        p_value: the p-value, or ``nan`` when the test only yields a critical
            value comparison.
        passed: whether the test passed at the requested significance level.
        significance: the significance level used for the pass/fail decision.

    The K-S tests compute their p-value, and with it ``passed``, on first
    read: it needs scipy's statistics module, which costs a fresh process
    about 44 MB and most of a second to import, and statistic-only callers
    never pay for it.
    """

    def __init__(self, statistic: float, p_value: float, passed: bool, significance: float) -> None:
        self.__dict__.update(
            statistic=statistic, p_value=p_value, passed=passed, significance=significance
        )

    @classmethod
    def _kolmogorov_smirnov(
        cls, statistic: float, n: float, significance: float
    ) -> GoodnessOfFitResult:
        """A K-S result whose p-value is ``kstwo.sf(statistic, n)``, as scipy's tests compute it."""
        result = cls.__new__(cls)
        result.__dict__.update(statistic=statistic, significance=significance, _ks_n=n)
        return result

    # cached_property, not property: the values __init__ puts in the instance
    # dict take precedence over it, and the first computed value is kept.
    @cached_property
    def p_value(self) -> float:
        from scipy.stats import kstwo

        return float(np.clip(kstwo.sf(self.statistic, self._ks_n), 0.0, 1.0))

    @cached_property
    def passed(self) -> bool:
        return bool(self.p_value >= self.significance)

    def _fields(self) -> tuple[float, float, bool, float]:
        return (self.statistic, self.p_value, self.passed, self.significance)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        # detlint: ignore[nondet-hash] an in-process __hash__; nothing persists it
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(statistic={self.statistic!r}, "
            f"p_value={self.p_value!r}, passed={self.passed!r}, "
            f"significance={self.significance!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "passed" if self.passed else "failed"
        return (
            f"statistic={self.statistic:.4f} p={self.p_value:.4f} "
            f"{verdict} at alpha={self.significance}"
        )


def ks_test_two_sample(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    significance: float = 0.05,
) -> GoodnessOfFitResult:
    """Two-sample Kolmogorov-Smirnov test.

    Returns the maximum distance ``D`` between the two empirical CDFs and the
    asymptotic p-value.  This is the test the paper applies after resolving
    multiple constraints (Table 4) and to interpolated curves (Table 5).
    ``D`` (:func:`mdcc`) and the p-value are ``ks_2samp(a, b,
    method="asymp")``'s, bit for bit.
    """
    a = _as_clean_array(sample_a, "sample_a")
    b = _as_clean_array(sample_b, "sample_b")
    m, n = float(a.size), float(b.size)
    effective_n = np.round(m * n / (m + n))
    return GoodnessOfFitResult._kolmogorov_smirnov(mdcc(a, b), effective_n, significance)


def ks_test_one_sample(
    sample: Sequence[float],
    cdf: Callable[[np.ndarray], np.ndarray],
    significance: float = 0.05,
) -> GoodnessOfFitResult:
    """One-sample K-S test of ``sample`` against a theoretical CDF callable.

    ``D`` and the p-value are ``kstest(sample, cdf)``'s, bit for bit: ``D``
    is computed with its arithmetic.
    """
    data = np.sort(_as_clean_array(sample, "sample"))
    n = data.size
    values = np.asarray(cdf(data), dtype=float)
    above = (np.arange(1.0, n + 1) / n - values).max()
    below = (values - np.arange(0.0, n) / n).max()
    statistic = float(above if above > below else below)
    return GoodnessOfFitResult._kolmogorov_smirnov(statistic, n, significance)


def chi_square_test(
    observed_counts: Sequence[float],
    expected_counts: Sequence[float],
    significance: float = 0.05,
    ddof: int = 0,
    min_expected: float = 1e-9,
) -> GoodnessOfFitResult:
    """Pearson chi-square test on binned counts.

    Bins whose expected count is below ``min_expected`` are merged into their
    neighbour to keep the statistic well defined; observed and expected totals
    are rescaled to match, as required by the test.
    """
    observed = np.asarray(observed_counts, dtype=float)
    expected = np.asarray(expected_counts, dtype=float)
    if observed.shape != expected.shape:
        raise ValueError("observed and expected must have the same shape")
    if observed.size == 0:
        raise ValueError("chi-square test needs at least one bin")
    if np.any(expected < 0) or np.any(observed < 0):
        raise ValueError("counts must be non-negative")

    keep = expected > min_expected
    if not np.any(keep):
        raise ValueError("all expected counts are (near) zero")
    observed = observed[keep]
    expected = expected[keep]
    # Rescale expected to the observed total so the statistic is comparable.
    if expected.sum() > 0:
        expected = expected * (observed.sum() / expected.sum())

    from scipy.special import chdtrc

    statistic = float(np.sum((observed - expected) ** 2 / np.maximum(expected, min_expected)))
    dof = max(observed.size - 1 - ddof, 1)
    p_value = float(chdtrc(dof, statistic))  # chi2.sf(statistic, dof)
    return GoodnessOfFitResult(
        statistic=statistic,
        p_value=p_value,
        passed=bool(p_value >= significance),
        significance=significance,
    )


def mdcc(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Maximum Displacement of the Cumulative Curves between two raw samples.

    This is the two-sample K-S ``D`` statistic, bit for bit: the last point of
    the grid differs by exactly 0, so the largest absolute difference is
    scipy's larger of the clipped minimum and the maximum.  The paper reports
    it as a standalone accuracy metric (Table 3), so we expose it separately
    and also accept pre-binned fractions via :func:`mdcc_from_fractions`.
    """
    a = np.sort(_as_clean_array(sample_a, "sample_a"))
    b = np.sort(_as_clean_array(sample_b, "sample_b"))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def mdcc_from_fractions(fractions_a: Sequence[float], fractions_b: Sequence[float]) -> float:
    """MDCC between two binned distributions expressed as per-bin fractions.

    The inputs are aligned per-bin fractions (they need not sum exactly to 1;
    each is normalised first).  Used for the depth and extension histograms in
    Table 3 where the underlying data is categorical.
    """
    a = np.asarray(fractions_a, dtype=float)
    b = np.asarray(fractions_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("fraction vectors must have the same shape")
    if a.size == 0:
        raise ValueError("fraction vectors must be non-empty")
    if a.sum() > 0:
        a = a / a.sum()
    if b.sum() > 0:
        b = b / b.sum()
    return float(np.max(np.abs(np.cumsum(a) - np.cumsum(b))))


def confidence_interval(
    sample: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Two-sided confidence interval for the sample mean (t-distribution)."""
    data = _as_clean_array(sample, "sample")
    if data.size < 2:
        raise ValueError("confidence interval needs at least two observations")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    from scipy.special import stdtrit

    mean = float(data.mean())
    sem = standard_error(data)
    # stdtrit(df, q) is t.ppf(q, df).
    half_width = float(stdtrit(data.size - 1, 0.5 + confidence / 2.0)) * sem
    return (mean - half_width, mean + half_width)


def standard_error(sample: Sequence[float]) -> float:
    """Standard error of the sample mean."""
    data = _as_clean_array(sample, "sample")
    if data.size < 2:
        return 0.0
    return float(data.std(ddof=1) / math.sqrt(data.size))


def _as_clean_array(values: Sequence[float], name: str) -> np.ndarray:
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(~np.isfinite(data)):
        raise ValueError(f"{name} contains non-finite values")
    return data
