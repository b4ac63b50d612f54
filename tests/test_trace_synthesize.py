"""Tests for the trace synthesizers."""

from __future__ import annotations

import hashlib

import pytest

from repro.trace.ops import OperationTrace
from repro.trace.synthesize import (
    ChurnSpec,
    MetadataStormSpec,
    ZipfMixSpec,
    synthesize_churn,
    synthesize_metadata_storm,
    synthesize_zipf_mix,
)


#: (ChurnSpec knobs, seed, sha256 of the JSONL trace); recorded once, must never change.
CHURN_GOLDENS = [
    ({"num_ops": 15_000}, 0, "cbfad69bd0dbfa060a5b37e5fc7ef9cac616cfd20ba743db794076537d81fd13"),
    ({"num_ops": 15_000}, 1, "201a14e69fbe5ecab9b25b97013f9b5757550c9d1f7f7ea00f70cc5cb208d059"),
    (
        {"num_ops": 2_000, "read_fraction": 1.0, "write_fraction": 1.0, "stat_fraction": 1.0},
        2,
        "51a4a2e8a8614339c6d1708718b9049e9fd1b489dec4a40cb88e9b72408a0f30",
    ),
    (
        {
            "num_ops": 2_000,
            "read_fraction": 0.1,
            "write_fraction": 0.7,
            "stat_fraction": 0.2,
            "access_fraction": 0.9,
        },
        3,
        "b39d1e2b449171367c2521d548f0e7c9e899b8f5f0a5dd3a4b37c3b04df17910",
    ),
    (
        {
            "num_ops": 2_000,
            "read_fraction": 0.0,
            "write_fraction": 1.0,
            "stat_fraction": 0.0,
            "delete_fraction": 0.1,
        },
        4,
        "6331dd46bd6f0abe73c992790f778badb42b4140868178dd6c1967455b0a306e",
    ),
    (
        {
            "num_ops": 2_000,
            "read_fraction": 3.0,
            "write_fraction": 0.0,
            "stat_fraction": 1e-9,
            "access_fraction": 0.99,
        },
        5,
        "95c7ef8510069e154747eed3f2e7944d413d9e1cc09804379d7299796a16dad5",
    ),
]


class TestMetadataStorm:
    def test_storm_shape(self):
        spec = MetadataStormSpec(num_dirs=3, files_per_dir=5, stat_passes=2)
        trace = synthesize_metadata_storm(spec, seed=1)
        counts = trace.counts_by_kind()
        assert counts["mkdir"] == 3
        assert counts["create"] == 15
        assert counts["stat"] == 30
        # Teardown removes the 15 files and the 3 directories.
        assert counts["delete"] == 18
        assert trace.metadata["synthesizer"] == "metadata_storm"

    def test_no_teardown(self):
        spec = MetadataStormSpec(num_dirs=2, files_per_dir=2, stat_passes=0, teardown=False)
        trace = synthesize_metadata_storm(spec, seed=1)
        assert "delete" not in trace.counts_by_kind()

    def test_batches_assigned(self):
        spec = MetadataStormSpec(num_dirs=2, files_per_dir=100, batch_size=10)
        trace = synthesize_metadata_storm(spec, seed=1)
        assert trace.num_batches() == (len(trace) + 9) // 10

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            MetadataStormSpec(num_dirs=0)


class TestZipfMix:
    def test_targets_only_image_files(self, small_image):
        spec = ZipfMixSpec(num_ops=500)
        trace = synthesize_zipf_mix(small_image, spec, seed=3)
        paths = {node.path() for node in small_image.tree.files}
        assert len(trace) == 500
        assert all(op.path in paths for op in trace)

    def test_mix_respects_fractions(self, small_image):
        spec = ZipfMixSpec(num_ops=4000, read_fraction=1, write_fraction=0, stat_fraction=1)
        trace = synthesize_zipf_mix(small_image, spec, seed=3)
        counts = trace.counts_by_kind()
        assert "write" not in counts
        assert abs(counts["read"] - counts["stat"]) < 800

    def test_popularity_is_skewed(self, small_image):
        trace = synthesize_zipf_mix(small_image, ZipfMixSpec(num_ops=5000), seed=3)
        hits: dict[str, int] = {}
        for op in trace:
            hits[op.path] = hits.get(op.path, 0) + 1
        top = max(hits.values())
        # The hottest file should absorb far more than a uniform share.
        assert top > 5 * (5000 / small_image.file_count)

    def test_zipf_writes_are_in_place(self, small_image):
        trace = synthesize_zipf_mix(small_image, ZipfMixSpec(num_ops=1000), seed=3)
        assert all(not op.append for op in trace if op.kind == "write")

    def test_empty_image_rejected(self):
        from repro.core.image import FileSystemImage
        from repro.namespace.tree import FileSystemTree

        with pytest.raises(ValueError):
            synthesize_zipf_mix(FileSystemImage(tree=FileSystemTree()), ZipfMixSpec(), seed=0)

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            ZipfMixSpec(read_fraction=0, write_fraction=0, stat_fraction=0)


class TestChurn:
    def test_deletes_and_renames_target_live_files(self):
        spec = ChurnSpec(num_ops=2000, rename_fraction=0.1)
        trace = synthesize_churn(spec, seed=7)
        live: set[str] = set()
        for op in trace:
            if op.kind == "create":
                assert op.path not in live
                live.add(op.path)
            elif op.kind == "delete":
                assert op.path in live
                live.remove(op.path)
            elif op.kind == "rename":
                assert op.path in live and op.dest not in live
                live.remove(op.path)
                live.add(op.dest)
            else:
                assert op.path in live

    def test_churn_writes_append(self):
        trace = synthesize_churn(ChurnSpec(num_ops=1000), seed=7)
        writes = [op for op in trace if op.kind == "write"]
        assert writes and all(op.append for op in writes)

    def test_requested_length(self):
        assert len(synthesize_churn(ChurnSpec(num_ops=321), seed=0)) == 321

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ChurnSpec(delete_fraction=1.5)


class TestDeterminism:
    def test_same_seed_same_bytes(self, small_image):
        spec = ZipfMixSpec(num_ops=300)
        a = synthesize_zipf_mix(small_image, spec, seed=9).to_jsonl()
        b = synthesize_zipf_mix(small_image, spec, seed=9).to_jsonl()
        assert a == b

    def test_different_seed_different_trace(self, small_image):
        spec = ZipfMixSpec(num_ops=300)
        a = synthesize_zipf_mix(small_image, spec, seed=9).to_jsonl()
        b = synthesize_zipf_mix(small_image, spec, seed=10).to_jsonl()
        assert a != b

    def test_churn_and_storm_deterministic(self):
        assert (
            synthesize_churn(ChurnSpec(num_ops=500), seed=4).to_jsonl()
            == synthesize_churn(ChurnSpec(num_ops=500), seed=4).to_jsonl()
        )
        spec = MetadataStormSpec(num_dirs=4, files_per_dir=10)
        assert (
            synthesize_metadata_storm(spec, seed=4).to_jsonl()
            == synthesize_metadata_storm(spec, seed=4).to_jsonl()
        )

    @pytest.mark.parametrize("case", range(len(CHURN_GOLDENS)))
    def test_churn_trace_golden(self, case):
        knobs, seed, expected = CHURN_GOLDENS[case]
        trace = synthesize_churn(ChurnSpec(**knobs), seed=seed)
        assert hashlib.sha256(trace.to_jsonl().encode()).hexdigest() == expected

    def test_metadata_records_spec(self):
        trace = synthesize_churn(ChurnSpec(num_ops=10), seed=2)
        assert trace.metadata["seed"] == 2
        assert trace.metadata["spec"]["num_ops"] == 10
        restored = OperationTrace.from_jsonl(trace.to_jsonl())
        assert restored.metadata == trace.metadata
