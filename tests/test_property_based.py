"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints.subset_sum import solve_fixed_size_subset_sum
from repro.layout.disk import SimulatedDisk, expand_extents
from repro.layout.layout_score import file_layout_score, layout_score_from_blockmaps
from repro.stats.distributions import LognormalDistribution, ParetoDistribution
from repro.stats.goodness_of_fit import mdcc_from_fractions
from repro.stats.histograms import PowerOfTwoHistogram
from repro.stats.interpolation import BinnedDistribution, PiecewiseInterpolator
from repro.stats.montecarlo import DynamicWeightedSampler
from repro.workloads.cache import BufferCache

from layout_helpers import blocks_of

_settings = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --- Histograms -----------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=1e12, allow_nan=False), min_size=1, max_size=200))
@_settings
def test_histogram_conserves_counts_and_bytes(values):
    hist = PowerOfTwoHistogram.from_values(values)
    assert hist.total_count == len(values)
    # Summation order differs between the binned totals and np.sum, so compare
    # with a relative tolerance.
    assert hist.total_bytes == pytest.approx(np.sum(values), rel=1e-9, abs=1e-6)
    assert abs(hist.count_fractions().sum() - 1.0) < 1e-9


@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1, max_size=100))
@_settings
def test_histogram_cumulative_is_monotone(values):
    hist = PowerOfTwoHistogram.from_values(values)
    cumulative = hist.cumulative_count_fractions()
    assert np.all(np.diff(cumulative) >= -1e-12)


# --- MDCC ------------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2, max_size=50),
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2, max_size=50),
)
@_settings
def test_mdcc_from_fractions_is_bounded_and_symmetric(a, b):
    size = min(len(a), len(b))
    a, b = a[:size], b[:size]
    if sum(a) == 0 or sum(b) == 0:
        return
    forward = mdcc_from_fractions(a, b)
    backward = mdcc_from_fractions(b, a)
    assert 0.0 <= forward <= 1.0 + 1e-9
    assert abs(forward - backward) < 1e-9


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=50))
@_settings
def test_mdcc_identity_is_zero(fractions):
    assert mdcc_from_fractions(fractions, fractions) < 1e-12


# --- Distributions -----------------------------------------------------------------


@given(
    st.floats(min_value=-2, max_value=12),
    st.floats(min_value=0.1, max_value=3.0),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@_settings
def test_lognormal_samples_are_positive_and_cdf_bounded(mu, sigma, size, seed):
    dist = LognormalDistribution(mu=mu, sigma=sigma)
    sample = dist.sample(np.random.default_rng(seed), size)
    assert np.all(sample > 0)
    cdf = dist.cdf(sample)
    assert np.all((cdf >= 0) & (cdf <= 1))


@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=1.0, max_value=1e9),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@_settings
def test_pareto_samples_respect_support(k, xm, size, seed):
    dist = ParetoDistribution(k=k, xm=xm)
    sample = dist.sample(np.random.default_rng(seed), size)
    assert np.all(sample >= xm)


# --- Subset sum ----------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=1.0, max_value=1e6, allow_nan=False), min_size=2, max_size=120),
    st.data(),
)
@_settings
def test_subset_sum_cardinality_and_membership(values, data):
    subset_size = data.draw(st.integers(min_value=1, max_value=len(values)))
    target = data.draw(st.floats(min_value=1.0, max_value=float(np.sum(values))))
    solution = solve_fixed_size_subset_sum(
        np.asarray(values), subset_size, target, np.random.default_rng(0)
    )
    assert solution.size == subset_size
    assert len(set(solution.indices.tolist())) == subset_size
    assert np.isclose(solution.achieved_sum, np.asarray(values)[solution.indices].sum())


# --- Layout score -----------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=200, unique=True))
@_settings
def test_file_layout_score_bounds(blocks):
    score = file_layout_score(blocks)
    assert 0.0 <= score <= 1.0
    if len(blocks) <= 1:
        assert score == 1.0


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5_000), min_size=0, max_size=50, unique=True),
        min_size=0,
        max_size=20,
    )
)
@_settings
def test_aggregate_layout_score_bounds(blockmaps):
    assert 0.0 <= layout_score_from_blockmaps(blockmaps) <= 1.0


# --- Simulated disk -----------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=64 * 4096), min_size=1, max_size=40),
    st.data(),
)
@_settings
def test_disk_allocation_conserves_blocks(sizes, data):
    disk = SimulatedDisk(num_blocks=80 * 64)
    allocated: dict[str, int] = {}
    for index, size in enumerate(sizes):
        name = f"f{index}"
        needed = disk.blocks_needed(size)
        if needed > disk.free_blocks:
            continue
        blocks = expand_extents(disk.allocate_extents(name, size))
        allocated[name] = len(blocks)
        assert len(blocks) == needed
        # Optionally delete a random earlier file.
        if allocated and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(sorted(allocated)))
            disk.free(victim)
            del allocated[victim]
    assert disk.used_blocks == sum(allocated.values())
    assert disk.used_blocks + disk.free_blocks == disk.num_blocks
    # No two files share a block.
    seen: set[int] = set()
    for name in allocated:
        for block in blocks_of(disk, name):
            assert block not in seen
            seen.add(block)


# --- Dynamic weighted sampler ---------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=60),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@_settings
def test_dynamic_sampler_total_weight_invariant(weights, seed):
    sampler = DynamicWeightedSampler(weights)
    assert abs(sampler.total_weight - sum(weights)) < 1e-6
    if sum(weights) > 0:
        index = sampler.sample(np.random.default_rng(seed))
        assert 0 <= index < len(weights)
        assert sampler.weight(index) > 0


# --- Buffer cache --------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=500)),
        min_size=1,
        max_size=200,
    ),
    st.integers(min_value=100, max_value=2_000),
)
@_settings
def test_cache_never_exceeds_capacity(accesses, capacity):
    cache = BufferCache(capacity_bytes=capacity)
    for key, size in accesses:
        cache.access(f"k{key}", size)
        assert cache.used_bytes <= capacity
    assert cache.hits + cache.misses == len(accesses)


# --- Interpolation ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=10),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=10),
    st.floats(min_value=1.1, max_value=9.9),
)
@_settings
def test_interpolation_output_is_a_distribution(fractions_a, fractions_b, target):
    size = min(len(fractions_a), len(fractions_b))
    fractions_a, fractions_b = fractions_a[:size], fractions_b[:size]
    if sum(fractions_a) == 0 or sum(fractions_b) == 0:
        return
    edges = np.asarray([0.0] + [float(2**i) for i in range(size)])
    curves = {
        1.0: BinnedDistribution(edges=edges, fractions=np.asarray(fractions_a)),
        10.0: BinnedDistribution(edges=edges, fractions=np.asarray(fractions_b)),
    }
    result = PiecewiseInterpolator(curves).interpolate(target)
    assert np.all(result.fractions >= 0)
    assert abs(result.fractions.sum() - 1.0) < 1e-9
