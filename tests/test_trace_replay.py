"""Tests for the trace replay engine."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.trace.ops import Operation, OperationTrace
from repro.trace.replay import ReplayCostModel, TraceReplayer
from repro.trace.synthesize import ChurnSpec, ZipfMixSpec, synthesize_churn, synthesize_zipf_mix
from repro.workloads.cache import BufferCache

from layout_helpers import blocks_of


def _trace(*ops: Operation) -> OperationTrace:
    return OperationTrace(ops)


class TestBasicSemantics:
    def test_create_read_delete_lifecycle(self):
        replayer = TraceReplayer(disk_blocks=1024)
        result = replayer.replay(
            _trace(
                Operation(kind="create", path="/f", size=8192),
                Operation(kind="read", path="/f", size=8192),
                Operation(kind="stat", path="/f"),
                Operation(kind="delete", path="/f"),
            )
        )
        assert result.executed == 4
        assert result.skipped == 0
        assert not replayer.disk.has_file("/f")
        assert result.per_kind["read"].bytes_moved == 8192

    def test_append_write_allocates_blocks(self):
        replayer = TraceReplayer(disk_blocks=1024)
        replayer.execute(Operation(kind="create", path="/f", size=4096))
        replayer.execute(Operation(kind="write", path="/f", size=8192, append=True))
        assert len(blocks_of(replayer.disk, "/f")) == 3

    def test_inplace_write_does_not_grow_file(self):
        replayer = TraceReplayer(disk_blocks=1024)
        replayer.execute(Operation(kind="create", path="/f", size=16 * 4096))
        before = len(blocks_of(replayer.disk, "/f"))
        replayer.execute(Operation(kind="write", path="/f", size=4096))
        assert len(blocks_of(replayer.disk, "/f")) == before

    def test_inplace_write_past_eof_extends(self):
        replayer = TraceReplayer(disk_blocks=1024)
        replayer.execute(Operation(kind="create", path="/f", size=4096))
        replayer.execute(Operation(kind="write", path="/f", size=4 * 4096))
        assert len(blocks_of(replayer.disk, "/f")) == 4

    def test_write_to_missing_file_creates_it(self):
        replayer = TraceReplayer(disk_blocks=1024)
        replayer.execute(Operation(kind="write", path="/new", size=4096, append=True))
        assert replayer.disk.has_file("/new")

    def test_rename_moves_allocation(self):
        replayer = TraceReplayer(disk_blocks=1024)
        replayer.execute(Operation(kind="create", path="/a", size=4096))
        blocks = blocks_of(replayer.disk, "/a")
        replayer.execute(Operation(kind="rename", path="/a", dest="/b"))
        assert not replayer.disk.has_file("/a")
        assert blocks_of(replayer.disk, "/b") == blocks

    def test_mkdir_then_delete_directory(self):
        replayer = TraceReplayer(disk_blocks=64)
        result = replayer.replay(
            _trace(
                Operation(kind="mkdir", path="/d"),
                Operation(kind="delete", path="/d"),
            )
        )
        assert result.executed == 2
        assert result.skipped == 0


class TestSkippingAndStrict:
    def test_inconsistent_ops_are_skipped(self):
        replayer = TraceReplayer(disk_blocks=64)
        result = replayer.replay(
            _trace(
                Operation(kind="delete", path="/missing"),
                Operation(kind="read", path="/missing"),
                Operation(kind="rename", path="/missing", dest="/other"),
                Operation(kind="mkdir", path="/d"),
                Operation(kind="mkdir", path="/d"),
            )
        )
        assert result.skipped == 4
        assert result.executed == 1

    def test_double_create_skipped(self):
        replayer = TraceReplayer(disk_blocks=64)
        replayer.execute(Operation(kind="create", path="/f", size=0))
        result = replayer.replay(_trace(Operation(kind="create", path="/f", size=0)))
        assert result.per_kind["create"].skipped == 1

    def test_strict_mode_raises(self):
        replayer = TraceReplayer(disk_blocks=64, strict=True)
        with pytest.raises(ValueError, match="strict replay"):
            replayer.execute(Operation(kind="delete", path="/missing"))

    def test_disk_full_create_skipped(self):
        replayer = TraceReplayer(disk_blocks=4)
        result = replayer.replay(_trace(Operation(kind="create", path="/big", size=64 * 4096)))
        assert result.per_kind["create"].skipped == 1


class TestCostsAndCache:
    def test_cached_read_is_cheaper(self):
        replayer = TraceReplayer(disk_blocks=1024)
        replayer.execute(Operation(kind="create", path="/f", size=32 * 4096))
        cold = replayer.execute(Operation(kind="read", path="/f", size=32 * 4096))
        warm = replayer.execute(Operation(kind="read", path="/f", size=32 * 4096))
        assert warm < cold

    def test_cached_stat_is_cheaper(self):
        replayer = TraceReplayer(disk_blocks=64)
        cold = replayer.execute(Operation(kind="stat", path="/f"))
        warm = replayer.execute(Operation(kind="stat", path="/f"))
        assert warm < cold
        assert warm == pytest.approx(ReplayCostModel().cached_metadata_cpu_ms)

    def test_warm_cache_over_image(self, small_image):
        # Write-free mix: small_image is session-shared and must not mutate.
        spec = ZipfMixSpec(num_ops=2000, write_fraction=0.0)
        trace = synthesize_zipf_mix(small_image, spec, seed=5)
        cold = TraceReplayer(small_image).replay(trace)
        warm_replayer = TraceReplayer(small_image)
        warm_replayer.warm_cache()
        warm = warm_replayer.replay(trace)
        assert warm.simulated_ms < cold.simulated_ms
        assert warm.cache_hit_ratio > cold.cache_hit_ratio

    def test_bounded_cache_can_be_injected(self):
        cache = BufferCache(capacity_bytes=8 * 4096)
        replayer = TraceReplayer(cache=cache, disk_blocks=1024)
        replayer.execute(Operation(kind="create", path="/f", size=64 * 4096))
        replayer.execute(Operation(kind="read", path="/f"))
        assert cache.used_bytes <= 8 * 4096

    def test_fragmented_read_costs_more(self):
        replayer = TraceReplayer(disk_blocks=1024)
        replayer.execute(Operation(kind="create", path="/a", size=4 * 4096))
        replayer.execute(Operation(kind="create", path="/gap", size=4096))
        replayer.execute(Operation(kind="create", path="/b", size=4 * 4096))
        replayer.execute(Operation(kind="delete", path="/gap"))
        replayer.execute(Operation(kind="create", path="/frag", size=8 * 4096))
        contiguous = replayer.disk.geometry.access_time_ms(1, 8)
        fragmented = replayer.execute(Operation(kind="read", path="/frag"))
        assert fragmented > contiguous


class TestWorkloadDrivenFragmentation:
    """The alternate mode of Section 3.7: run a workload, read back the score."""

    @staticmethod
    def _churn_score(delete_fraction: float, num_ops: int = 2_000) -> float:
        spec = ChurnSpec(
            num_ops=num_ops,
            delete_fraction=delete_fraction,
            access_fraction=0.0,
            rename_fraction=0.0,
        )
        replayer = TraceReplayer(disk_blocks=1_000_000)
        replayer.replay(synthesize_churn(spec, seed=8))
        return replayer.disk.layout_score()

    def test_replay_without_deletes_keeps_perfect_layout(self):
        assert self._churn_score(delete_fraction=0.0, num_ops=300) == 1.0

    def test_replay_with_deletes_fragments(self):
        assert self._churn_score(delete_fraction=0.45) < 1.0

    def test_more_deletes_fragment_more(self):
        assert self._churn_score(delete_fraction=0.45) < self._churn_score(delete_fraction=0.05)


class TestResultShape:
    def test_replay_over_image_reports_layout_scores(self, small_image):
        spec = ZipfMixSpec(num_ops=200, write_fraction=0.0)
        trace = synthesize_zipf_mix(small_image, spec, seed=5)
        result = TraceReplayer(small_image).replay(trace)
        assert result.layout_score_before is not None
        assert result.layout_score_after is not None

    def test_as_dict_is_deterministic_and_complete(self):
        trace = synthesize_churn(ChurnSpec(num_ops=800), seed=11)
        a = TraceReplayer(disk_blocks=65_536).replay(trace)
        b = TraceReplayer(disk_blocks=65_536).replay(trace)
        assert a.as_dict() == b.as_dict()
        payload = a.as_dict()
        assert payload["operations"] == 800
        assert payload["batches"] == trace.num_batches()
        assert set(payload["per_kind"]) == set(trace.counts_by_kind())

    def test_wall_clock_excluded_from_dict(self):
        trace = synthesize_churn(ChurnSpec(num_ops=50), seed=11)
        result = TraceReplayer(disk_blocks=65_536).replay(trace)
        assert "wall_seconds" not in result.as_dict()
        assert result.wall_seconds > 0
        assert result.ops_per_second > 0

    def test_replay_records_timing_in_image_extras(self, small_config):
        from repro.core.impressions import Impressions

        image = Impressions(small_config).generate()
        trace = synthesize_zipf_mix(image, ZipfMixSpec(num_ops=100), seed=5)
        TraceReplayer(image).replay(trace)
        assert image.extras["timings"].extras["trace_replay"] > 0
        assert "trace_replay" in image.extras["timings"].as_dict()


class TestLifetime:
    """A replayer holds no reference cycle: it dies on ``del`` without the collector."""

    @pytest.fixture
    def no_gc(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_standalone_replayer_dies_on_del(self, no_gc):
        replayer = TraceReplayer(disk_blocks=65_536)
        replayer.replay(synthesize_churn(ChurnSpec(num_ops=300), seed=2))
        ref = weakref.ref(replayer)
        del replayer
        assert ref() is None

    def test_replayer_over_an_image_dies_on_del(self, small_image, no_gc):
        replayer = TraceReplayer(small_image)
        spec = ZipfMixSpec(num_ops=200, write_fraction=0.0)
        replayer.replay(synthesize_zipf_mix(small_image, spec, seed=1))
        ref = weakref.ref(replayer)
        del replayer
        assert ref() is None
