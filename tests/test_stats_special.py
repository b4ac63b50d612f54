"""The Cephes ports in ``repro.stats.special`` against ``scipy.special``, bit for bit.

Every file size goes through ``ndtri`` and the depth table through the
Poisson log terms, so one last-bit difference moves an image fingerprint.
Each function is compared on at least a million values, on every branch
boundary of the Cephes code, and on the special values (0, 1, subnormals,
infinities, nan); results are compared as raw 64-bit patterns.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special

from repro.stats import special
from repro.stats.distributions import ShiftedPoissonDistribution

_settings = settings(max_examples=300, deadline=None)

_TINY = 5e-324  # the smallest subnormal
_SUBNORMALS = [_TINY, 2 * _TINY, 1e-320, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0)]


def _neighbours(points, ulps: int = 4) -> np.ndarray:
    """Each point and its ``ulps`` nearest doubles on either side."""
    out = []
    for point in points:
        below = above = float(point)
        out.append(below)
        for _ in range(ulps):
            below = np.nextafter(below, -np.inf)
            above = np.nextafter(above, np.inf)
            out += [below, above]
    return np.asarray(out, dtype=float)


def _assert_bitwise(ours, theirs) -> None:
    ours = np.ascontiguousarray(ours, dtype=float)
    theirs = np.ascontiguousarray(theirs, dtype=float)
    assert ours.shape == theirs.shape
    mismatched = np.flatnonzero(ours.view(np.int64) != theirs.view(np.int64))
    assert mismatched.size == 0, (
        f"{mismatched.size} of {ours.size} differ; first: ours {ours.flat[mismatched[0]]!r}, "
        f"scipy {theirs.flat[mismatched[0]]!r}"
    )


def _scipy_pmf(lam: float, offset: int, k):
    """``ShiftedPoissonDistribution.pmf`` as it was written on ``scipy.special``."""
    k = np.asarray(k) - offset
    mass = np.clip(
        np.exp(scipy_special.xlogy(k, lam) - scipy_special.gammaln(k + 1) - lam), 0, 1
    )
    outside = np.where(np.isnan(k), np.nan, 0.0)
    return np.where((k >= 0) & (np.floor(k) == k), mass, outside)[()]


# ndtri ------------------------------------------------------------------------


def _ndtri_grid() -> np.ndarray:
    rng = np.random.default_rng(20090224)
    exp_m2 = 0.13533528323661269189
    boundaries = _neighbours(
        # the folded upper tail, the central/tail switch, x = 8 (y = exp(-32)),
        # the middle, and the extremes of the open interval
        [1.0 - exp_m2, exp_m2, math.exp(-32.0), 1.0 - math.exp(-32.0), 0.5, _TINY, 1.0],
        ulps=16,
    )
    return np.concatenate(
        [
            rng.random(600_000),
            10.0 ** rng.uniform(-323.5, 0.0, 200_000),  # the lower tail down to subnormals
            1.0 - 10.0 ** rng.uniform(-16.5, 0.0, 200_000),  # the upper tail up to 1 - ulp
            boundaries,
            _SUBNORMALS,
            [0.0, -0.0, 1.0, -_TINY, -1.0, 1.5, np.inf, -np.inf, np.nan, -np.nan],
        ]
    )


def test_ndtri_matches_scipy_on_a_million_values():
    grid = _ndtri_grid()
    assert grid.size >= 1_000_000
    with np.errstate(invalid="ignore"):
        _assert_bitwise(special.ndtri(grid), scipy_special.ndtri(grid))


def test_ndtri_special_values():
    assert special.ndtri(0.0) == -np.inf
    assert special.ndtri(1.0) == np.inf
    assert np.isnan(special.ndtri(-0.5)) and np.isnan(special.ndtri(np.inf))
    assert special.ndtri(0.5) == 0.0
    assert np.asarray(special.ndtri(np.zeros((2, 3)))).shape == (2, 3)


@_settings
@given(st.floats(min_value=0.0, max_value=1.0))
def test_ndtri_matches_scipy_hypothesis(y):
    _assert_bitwise(special.ndtri(np.asarray([y])), scipy_special.ndtri(np.asarray([y])))


# ndtr -------------------------------------------------------------------------


def _ndtr_grid() -> np.ndarray:
    rng = np.random.default_rng(19940101)
    sqrt2 = math.sqrt(2.0)
    # erf/erfc switch at |x| = 1/sqrt(2) (a = 1), erfc's own switch at z = 1
    # (a = sqrt 2), its R/S tables from z = 8, and underflow where z*z > MAXLOG.
    edges = [1.0, sqrt2, 8.0 * sqrt2, math.sqrt(7.09782712893383996843e2) * sqrt2, 0.0]
    boundaries = _neighbours(edges + [-edge for edge in edges], ulps=16)
    return np.concatenate(
        [
            rng.normal(0.0, 3.0, 600_000),
            rng.uniform(-40.0, 40.0, 300_000),
            rng.uniform(-1.5, 1.5, 100_000),
            boundaries,
            _SUBNORMALS,
            [-_TINY, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan],
        ]
    )


def test_ndtr_matches_scipy_on_a_million_values():
    grid = _ndtr_grid()
    assert grid.size >= 1_000_000
    _assert_bitwise(special.ndtr(grid), scipy_special.ndtr(grid))


def test_ndtr_special_values():
    assert special.ndtr(np.inf) == 1.0 and special.ndtr(-np.inf) == 0.0
    assert special.ndtr(0.0) == 0.5
    assert np.isnan(special.ndtr(np.nan))
    assert np.asarray(special.ndtr(np.zeros((2, 3)))).shape == (2, 3)


@_settings
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_ndtr_matches_scipy_hypothesis(a):
    _assert_bitwise(special.ndtr(np.asarray([a])), scipy_special.ndtr(np.asarray([a])))


# log-factorial and xlogy ----------------------------------------------------


def _factorial_grid() -> np.ndarray:
    rng = np.random.default_rng(1713)
    maxlgm = 2.556348e305  # lgam returns inf above this
    # k + 1 crosses lgam's product path at 13, its A table / short series at
    # 1000 and the bare Stirling term at 1e8.
    boundaries = _neighbours([12.0, 13.0, 999.0, 1000.0, 1e8 - 1, 1e8, 1e8 + 1], ulps=0)
    return np.concatenate(
        [
            np.arange(0, 1_000_000, dtype=float),
            np.floor(10.0 ** rng.uniform(6.0, 305.0, 20_000)),
            np.arange(1e8 - 50, 1e8 + 50),
            boundaries,
            _neighbours([maxlgm - 1.0], ulps=8),
            [2.0**53, 2.0**53 + 2, 1e305, 1.7976931348623157e308, np.inf],
        ]
    )


def test_log_factorial_matches_gammaln_on_a_million_integers():
    grid = _factorial_grid()
    assert grid.size >= 1_000_000
    _assert_bitwise(special.log_factorial(grid), scipy_special.gammaln(grid + 1))


@_settings
@given(st.integers(min_value=0, max_value=10**18))
def test_log_factorial_matches_gammaln_hypothesis(k):
    grid = np.asarray([float(k)])
    _assert_bitwise(special.log_factorial(grid), scipy_special.gammaln(grid + 1))


@pytest.mark.parametrize("lam", [6.49, 1.0, 0.3, 1e-300, 1e300])
def test_xlogy_matches_scipy(lam):
    rng = np.random.default_rng(7)
    k = np.concatenate(
        [
            np.arange(0, 1_000_000, dtype=float),
            rng.normal(0.0, 1e6, 10_000),
            [-0.0, _TINY, -1.0, 1e308, -1e308, np.inf, -np.inf, np.nan],
        ]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_bitwise(special.xlogy(k, lam), scipy_special.xlogy(k, lam))


@_settings
@given(st.floats(allow_nan=False), st.floats(min_value=_TINY, max_value=1e308))
def test_xlogy_matches_scipy_hypothesis(k, lam):
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_bitwise(special.xlogy(np.asarray([k]), lam), scipy_special.xlogy(np.asarray([k]), lam))


# The Poisson pmf built on them ----------------------------------------------

_PMF_POINTS = np.concatenate(
    [
        np.arange(-5.0, 400.0, 0.25),  # negative, non-integer and integer k
        [-0.0, 1e8, 1e300, np.inf, -np.inf, np.nan, _TINY, 2.0**53],
    ]
)


@pytest.mark.parametrize("lam", [6.49, 1.0, 0.3, 120.0, 1e-5])
@pytest.mark.parametrize("offset", [0, 1, 3])
def test_poisson_pmf_matches_the_scipy_formula(lam, offset):
    model = ShiftedPoissonDistribution(lam=lam, offset=offset)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_bitwise(model.pmf(_PMF_POINTS), _scipy_pmf(lam, offset, _PMF_POINTS))
        for k in (0, 3, 2.5, -1, np.nan, np.inf):
            ours, theirs = model.pmf(k), _scipy_pmf(lam, offset, k)
            assert type(ours) is type(theirs)
            _assert_bitwise(ours, theirs)
    integers = np.arange(0, 40)
    _assert_bitwise(model.pmf(integers), _scipy_pmf(lam, offset, integers))


@_settings
@given(
    st.floats(min_value=1e-3, max_value=500.0),
    st.one_of(st.integers(min_value=-10, max_value=2000), st.floats(allow_nan=True)),
)
def test_poisson_pmf_matches_the_scipy_formula_hypothesis(lam, k):
    model = ShiftedPoissonDistribution(lam=lam)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_bitwise(model.pmf(np.asarray([k])), _scipy_pmf(lam, 0, np.asarray([k])))
