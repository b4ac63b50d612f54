"""The numpy K-S statistics and scipy.special p-values against scipy.stats.

``repro.stats.goodness_of_fit`` computes K-S ``D`` with scipy's own
arithmetic and imports ``scipy.stats`` only when a K-S p-value is read; these
tests pin both halves: equality with ``scipy.stats`` bit for bit, and that
generation, replay and the statistic-only callers load no scipy module.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.stats.goodness_of_fit import (
    GoodnessOfFitResult,
    chi_square_test,
    confidence_interval,
    ks_test_one_sample,
    ks_test_two_sample,
)

_settings = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Few distinct values, so that samples tie often; integers and floats alike.
_values = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.sampled_from([0.5, 1.0, 2.25, 7.0, 1e-3, 3e4]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_samples = st.lists(_values, min_size=1, max_size=80)


def _lognormal_cdf(x):
    return stats.lognorm.cdf(x, 1.2, scale=np.exp(1.5))


def _same(ours: GoodnessOfFitResult, scipy_result, significance: float = 0.05) -> None:
    assert ours.statistic == float(scipy_result.statistic)
    # Two one-element samples give scipy's n = round(0.5) = 0 and a nan p-value.
    assert np.array_equal(ours.p_value, float(scipy_result.pvalue), equal_nan=True)
    assert ours.passed is bool(scipy_result.pvalue >= significance)
    assert ours.significance == significance


@given(_samples)
@_settings
def test_one_sample_matches_kstest(sample):
    expected = stats.kstest(np.asarray(sample, dtype=float), _lognormal_cdf)
    _same(ks_test_one_sample(sample, _lognormal_cdf), expected)


@given(_samples, _samples)
@_settings
def test_two_sample_matches_ks_2samp_asymp(sample_a, sample_b):
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    _same(ks_test_two_sample(sample_a, sample_b), stats.ks_2samp(a, b, method="asymp"))


@pytest.mark.parametrize(
    ("sample_a", "sample_b"),
    [
        ([3.0], [3.0]),  # n = 1, identical
        ([1.0], [2.0]),  # n = 1, disjoint
        ([5.0] * 40, [5.0] * 7),  # constant samples
        ([5, 5, 5, 6], [4, 5, 5]),  # integer input with ties
        ([9.0, 1.0, 4.0, 4.0, 2.0], [3.0, 8.0, 1.0]),  # unsorted input
    ],
    ids=["n1-same", "n1-apart", "constant", "integers", "unsorted"],
)
def test_edge_cases_match_scipy(sample_a, sample_b):
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    _same(ks_test_two_sample(sample_a, sample_b), stats.ks_2samp(a, b, method="asymp"))
    uniform = stats.uniform(0, 10).cdf
    _same(ks_test_one_sample(sample_a, uniform), stats.kstest(a, uniform))


def test_significance_sets_passed_from_the_same_p_value():
    a = np.arange(30.0)
    b = np.arange(30.0) + 9.0
    scipy_result = stats.ks_2samp(a, b, method="asymp")
    for significance in (0.0, float(scipy_result.pvalue), 0.5, 1.0):
        _same(ks_test_two_sample(a, b, significance=significance), scipy_result, significance)


def test_p_value_is_computed_once_and_result_behaves_as_a_value():
    sample = [0.2, 0.4, 0.4, 0.9]
    first = ks_test_one_sample(sample, stats.uniform.cdf)
    second = ks_test_one_sample(sample, stats.uniform.cdf)
    assert first == second and hash(first) == hash(second)
    plain = GoodnessOfFitResult(first.statistic, first.p_value, first.passed, first.significance)
    assert plain == first and repr(plain) == repr(first)
    assert repr(first).startswith("GoodnessOfFitResult(statistic=")
    assert first.p_value is first.p_value
    assert pickle.loads(pickle.dumps(second)) == first
    with pytest.raises(AttributeError):
        first.statistic = 0.0


@pytest.mark.parametrize("dof_bins", [2, 3, 5, 12, 40])
@pytest.mark.parametrize("skew", [0.0, 0.05, 0.3, 1.0, 4.0])
@pytest.mark.parametrize("ddof", [0, 1])
def test_chi_square_matches_chi2_sf(dof_bins, skew, ddof):
    expected = np.linspace(10.0, 30.0, dof_bins)
    observed = expected * (1.0 + skew * np.sin(np.arange(dof_bins)))
    observed = np.maximum(observed, 0.0)
    result = chi_square_test(observed, expected, ddof=ddof)
    dof = max(dof_bins - 1 - ddof, 1)
    p_value = float(stats.chi2.sf(result.statistic, dof))
    assert result.p_value == p_value
    assert result.passed is bool(p_value >= 0.05)


@pytest.mark.parametrize("size", [2, 3, 7, 30, 500])
@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_confidence_interval_matches_t_ppf(size, confidence):
    sample = np.random.default_rng(size).lognormal(2.0, 1.0, size)
    mean = float(sample.mean())
    sem = float(sample.std(ddof=1) / np.sqrt(size))
    half_width = float(stats.t.ppf(0.5 + confidence / 2.0, size - 1)) * sem
    assert confidence_interval(sample, confidence) == (mean - half_width, mean + half_width)


_STATISTIC_ONLY = """
import sys
import numpy as np
import repro.materialize as materialize
from repro.content.generators import ContentPolicy
from repro.core.config import ImpressionsConfig
from repro.core.impressions import Impressions
from repro.obs.core import Telemetry
from repro.pipeline.runner import image_fingerprint
from repro.stats.distributions import LognormalDistribution
from repro.stats.fitting import fit_best_model
from repro.stats.goodness_of_fit import (
    chi_square_test, confidence_interval, ks_test_one_sample, ks_test_two_sample,
    mdcc, mdcc_from_fractions,
)
from repro.trace.replay import TraceReplayer
from repro.trace.synthesize import ChurnSpec, ZipfMixSpec, synthesize_churn, synthesize_zipf_mix

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

meta = Impressions(ImpressionsConfig(fs_size_bytes=8 << 20, num_files=200, seed=3)).generate()
hybrid = Impressions(ImpressionsConfig(
    fs_size_bytes=8 << 20, num_files=60, num_directories=12, seed=5,
    generate_content=True, content=ContentPolicy(text_model="hybrid"),
)).generate()
Impressions(ImpressionsConfig(
    fs_size_bytes=8 << 20, num_files=100, seed=7, use_simple_size_model=True,
)).generate()
image_fingerprint(meta)
materialize.materialize_image(hybrid, materialize.NullSink())
zipf = synthesize_zipf_mix(meta, ZipfMixSpec(num_ops=500), seed=1)
TraceReplayer(meta).replay(zipf)
TraceReplayer(meta, telemetry=Telemetry(run_id="t")).replay(zipf)
TraceReplayer().replay(synthesize_churn(ChurnSpec(num_ops=500), seed=2))
sizes = np.asarray(meta.tree.file_sizes(), dtype=float)
fit_best_model(sizes)
one = ks_test_one_sample(sizes, LognormalDistribution(mu=9.0, sigma=2.0).cdf)
two = ks_test_two_sample(sizes[:100], sizes[100:])
one.statistic, two.statistic
mdcc(sizes[:100], sizes[100:])
mdcc_from_fractions([1, 2, 3], [2, 2, 2])
assert not loaded(), f"a scipy-free caller loaded {loaded()}"
chi_square_test([10, 12, 9], [11, 10, 10])
confidence_interval(sizes)
assert "scipy.stats" not in sys.modules, "chi_square_test or confidence_interval loaded scipy.stats"
two.p_value
assert "scipy.stats" in sys.modules
print("ok")
"""


def test_statistic_only_callers_do_not_import_scipy_stats():
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-c", _STATISTIC_ONLY], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
