"""Property-based determinism tests for the trace subsystem.

The reproducibility guarantee of the paper extends to traces: the same spec
and seed must yield a byte-identical JSONL trace, and replaying an identical
trace against an identical initial state must yield identical statistics.
These are hypothesis properties over the spec space, the dynamic counterpart
of the invariants in ``test_property_based.py``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace.ops import OperationTrace
from repro.trace.replay import TraceReplayer
from repro.trace.synthesize import (
    ChurnSpec,
    MetadataStormSpec,
    ZipfMixSpec,
    synthesize_churn,
    synthesize_metadata_storm,
    synthesize_zipf_mix,
)

from layout_helpers import blocks_of

_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_churn_specs = st.builds(
    ChurnSpec,
    num_ops=st.integers(min_value=1, max_value=400),
    mean_file_size=st.integers(min_value=1, max_value=256 * 1024),
    delete_fraction=st.floats(min_value=0.0, max_value=0.9),
    access_fraction=st.floats(min_value=0.0, max_value=0.9),
    rename_fraction=st.floats(min_value=0.0, max_value=0.5),
    batch_size=st.integers(min_value=1, max_value=128),
)

_storm_specs = st.builds(
    MetadataStormSpec,
    num_dirs=st.integers(min_value=1, max_value=8),
    files_per_dir=st.integers(min_value=0, max_value=40),
    stat_passes=st.integers(min_value=0, max_value=3),
    teardown=st.booleans(),
    batch_size=st.integers(min_value=1, max_value=64),
)

_seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(spec=_churn_specs, seed=_seeds)
@_settings
def test_churn_trace_bytes_and_replay_stats_are_deterministic(spec, seed):
    first = synthesize_churn(spec, seed=seed)
    second = synthesize_churn(spec, seed=seed)
    assert first.to_jsonl() == second.to_jsonl()

    stats_a = TraceReplayer(disk_blocks=65_536).replay(first).as_dict()
    stats_b = TraceReplayer(disk_blocks=65_536).replay(second).as_dict()
    assert stats_a == stats_b


@given(spec=_storm_specs, seed=_seeds)
@_settings
def test_storm_trace_roundtrip_preserves_replay_stats(spec, seed):
    trace = synthesize_metadata_storm(spec, seed=seed)
    text = trace.to_jsonl()
    restored = OperationTrace.from_jsonl(text)
    assert restored == trace
    # Serialization is canonical: a round trip re-serializes identically.
    assert restored.to_jsonl() == text

    direct = TraceReplayer(disk_blocks=65_536).replay(trace).as_dict()
    roundtripped = TraceReplayer(disk_blocks=65_536).replay(restored).as_dict()
    assert direct == roundtripped


@given(
    num_ops=st.integers(min_value=1, max_value=300),
    zipf_s=st.floats(min_value=0.2, max_value=2.5),
    seed=_seeds,
)
@_settings
def test_zipf_trace_is_deterministic_over_one_image(small_image, num_ops, zipf_s, seed):
    spec = ZipfMixSpec(num_ops=num_ops, zipf_s=zipf_s, write_fraction=0.0)
    first = synthesize_zipf_mix(small_image, spec, seed=seed)
    second = synthesize_zipf_mix(small_image, spec, seed=seed)
    assert first.to_jsonl() == second.to_jsonl()


@given(spec=_churn_specs, seed=_seeds)
@_settings
def test_replayed_disk_state_is_deterministic(spec, seed):
    trace = synthesize_churn(spec, seed=seed)
    disk_a = TraceReplayer(disk_blocks=65_536)
    disk_b = TraceReplayer(disk_blocks=65_536)
    disk_a.replay(trace)
    disk_b.replay(trace)
    names_a = sorted(disk_a.disk.file_names())
    assert names_a == sorted(disk_b.disk.file_names())
    for name in names_a:
        assert blocks_of(disk_a.disk, name) == blocks_of(disk_b.disk, name)
