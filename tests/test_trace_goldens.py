"""Golden digests of the trace layer: operation streams and replay statistics.

Each case pins the SHA-256 of a trace's canonical JSONL and of its replay's
``ReplayResult.as_dict()`` (and, for aging, of the aged image and its disk),
so an optimisation of the operation model, the replayer, the allocator or the
ager that changes a single byte of any of them fails here.  The digests were
recorded before those modules were tuned and must never be re-pinned to make
a speed-up pass.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.core.config import GIB, ImpressionsConfig
from repro.core.impressions import Impressions
from repro.obs import Telemetry, use
from repro.pipeline.runner import image_fingerprint
from repro.stats.distributions import LognormalDistribution
from repro.trace.aging import age_image_to_score
from repro.trace.ops import Operation, OperationTrace, merge_traces
from repro.trace.replay import TraceReplayer
from repro.trace.synthesize import (
    ChurnSpec,
    MetadataStormSpec,
    ZipfMixSpec,
    synthesize_churn,
    synthesize_metadata_storm,
    synthesize_zipf_mix,
)
from repro.workloads.cache import BufferCache

GOLDENS = {
    "aging_trace": "d405ed66d4a7139345f96edd451940a4823a0a5b762fae4fa84a38fe1e60a45f",
    "aging_replay": "10a2627bf3d8e2f641786db3002b489a683aca6591b867b1f88b6b792348b107",
    "aging_image": "ef4c8f241d33ef3a296e14be47aa020591f832ee22962971bfba9ca0ff7421e3",
    "aging_disk": "315a115a94dac43f5baa6f48306dcfa961b73946607225ba09771a73320baa2b",
    "churn_trace": "ad258bd7466aa68523295b18fd4b830bdd4d49a2780e5869b09912bc27aa9b9f",
    "churn_replay": "1440268dca7df32e3faa40c94dd9daf482c2caf52fbc07d138c01594cfd9ee83",
    "churn_full_disk_replay": "2f8e9ac8e2d22064399d2639ef729ab18707d231aea8c81485b7355fa9e24444",
    "zipf_trace": "ae3f04147234f8f8ef7c11b5f92964df0a566cefb305b976375ff6a0b95beac8",
    "zipf_replay": "d0d6ce032a6dfa3088a9e23cc787afb789258a5e7d761d04215015e77c88ea02",
    "storm_trace": "9a30125f58b6585b56ffc0156d4556d626edf5d69228787f7614c3e06fb2bd91",
    "storm_replay": "107aa32967d3d3572e042714bbba89df69e9cc452193449d31b4296fd3ae222d",
    "merged_trace": "0aa4ba4e5f2e7edbc526562b808b2373a48856b1288e5433203aecdf459652f8",
    "merged_replay": "385d24e4f7d6ff37a66cfe8cad87c4a7cbf7d6e29cfca6101a6639795a19f352",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _result_digest(result) -> str:
    return _sha(json.dumps(result.as_dict(), sort_keys=True))


def _disk_digest(disk) -> str:
    state = {
        "files": [(name, disk.extents_of(name)) for name in disk.file_names()],
        "free": disk.free_extents(),
        "aggregates": disk.layout_aggregates,
    }
    return _sha(json.dumps(state))


def _aging_config(files: int, seed: int) -> ImpressionsConfig:
    """Image1 shape at ``files`` files with a tail-free lognormal size model."""
    return ImpressionsConfig(
        fs_size_bytes=int(4.55 * GIB * files / 20_000),
        num_files=files,
        num_directories=files // 5,
        seed=seed,
        file_size_model=LognormalDistribution(mu=9.48, sigma=1.5),
    )


@pytest.fixture(scope="module")
def small_image_blob():
    return pickle.dumps(Impressions(_aging_config(400, seed=11)).generate())


def test_aging_golden():
    image = Impressions(_aging_config(2_500, seed=7)).generate()
    result = age_image_to_score(image, 0.75, seed=7)
    assert abs(result.achieved_score - 0.75) <= 0.05
    assert _sha(result.trace.to_jsonl()) == GOLDENS["aging_trace"]
    assert _result_digest(result.replay) == GOLDENS["aging_replay"]
    assert image_fingerprint(image) == GOLDENS["aging_image"]
    assert _disk_digest(image.disk) == GOLDENS["aging_disk"]


def test_churn_golden():
    trace = synthesize_churn(ChurnSpec(num_ops=15_000), seed=3)
    assert _sha(trace.to_jsonl()) == GOLDENS["churn_trace"]
    result = TraceReplayer(disk_blocks=4_194_304).replay(trace)
    assert result.skipped == 0
    assert _result_digest(result) == GOLDENS["churn_replay"]


def test_churn_on_a_full_disk_golden():
    """A disk too small for the trace: creates, appends and overflows skip."""
    trace = synthesize_churn(ChurnSpec(num_ops=3_000, delete_fraction=0.2), seed=5)
    result = TraceReplayer(disk_blocks=2_048).replay(trace)
    assert result.skipped > 0
    assert _result_digest(result) == GOLDENS["churn_full_disk_replay"]


def test_zipf_golden_with_a_bounded_cache(small_image_blob):
    image = pickle.loads(small_image_blob)
    trace = synthesize_zipf_mix(image, ZipfMixSpec(num_ops=6_000), seed=9)
    assert _sha(trace.to_jsonl()) == GOLDENS["zipf_trace"]
    result = TraceReplayer(image, cache=BufferCache(capacity_bytes=16 * 1024 * 1024)).replay(trace)
    assert 0 < result.cache_hits and 0 < result.cache_misses
    assert _result_digest(result) == GOLDENS["zipf_replay"]
    # The observed loop runs the same operations: same statistics.
    image = pickle.loads(small_image_blob)
    replayer = TraceReplayer(image, cache=BufferCache(capacity_bytes=16 * 1024 * 1024))
    with use(Telemetry()):
        assert _result_digest(replayer.replay(trace)) == GOLDENS["zipf_replay"]


def test_metadata_storm_golden():
    trace = synthesize_metadata_storm(MetadataStormSpec(num_dirs=12, files_per_dir=150), seed=4)
    assert _sha(trace.to_jsonl()) == GOLDENS["storm_trace"]
    result = TraceReplayer(disk_blocks=65_536).replay(trace)
    assert _result_digest(result) == GOLDENS["storm_replay"]


def _edge_trace() -> OperationTrace:
    """Operations every synthesizer avoids: misses, collisions, implicit creates."""
    return OperationTrace(
        [
            Operation(kind="write", path="/e/new", size=10_000),
            Operation(kind="write", path="/e/empty", size=0),
            Operation(kind="create", path="/e/new", size=1),
            Operation(kind="read", path="/e/missing", size=10),
            Operation(kind="read", path="/e/empty"),
            Operation(kind="write", path="/e/empty", size=9_000),
            Operation(kind="write", path="/e/new", size=5_000, append=True),
            Operation(kind="write", path="/e/new", size=0, append=True),
            Operation(kind="write", path="/e/new", size=40_000),
            Operation(kind="read", path="/e/new", size=4_097),
            Operation(kind="rename", path="/e/missing", dest="/e/x"),
            Operation(kind="rename", path="/e/new", dest="/e/empty"),
            Operation(kind="rename", path="/e/new", dest="/e/moved", batch=1),
            Operation(kind="read", path="/e/moved", batch=1),
            Operation(kind="mkdir", path="/e/d", batch=1),
            Operation(kind="mkdir", path="/e/d", batch=1),
            Operation(kind="delete", path="/e/d", batch=2),
            Operation(kind="delete", path="/e/d", batch=2),
            Operation(kind="delete", path="/e/moved", batch=2),
            Operation(kind="stat", path="/e/moved", batch=2, client="probe"),
        ],
        metadata={"name": "edges"},
    )


def test_merged_trace_golden_with_per_client_stats():
    churn = synthesize_churn(ChurnSpec(num_ops=2_000, name_prefix="/c/f"), seed=1)
    storm = synthesize_metadata_storm(MetadataStormSpec(num_dirs=3, files_per_dir=40), seed=2)
    merged = merge_traces(churn, storm, _edge_trace())
    assert _sha(merged.to_jsonl()) == GOLDENS["merged_trace"]
    result = TraceReplayer(disk_blocks=262_144).replay(merged)
    assert set(result.per_client) == {"client0", "client1", "client2", "probe"}
    assert _result_digest(result) == GOLDENS["merged_replay"]
