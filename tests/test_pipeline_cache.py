"""Content-addressed stage cache: hits, resume, corruption, safety gating."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ImpressionsConfig
from repro.metadata.timestamps import TimestampModel
from repro.pipeline import StageCache, config_cache_safe, default_pipeline, image_fingerprint
from repro.stats.distributions import LognormalDistribution

CONFIG = ImpressionsConfig(fs_size_bytes=None, num_files=150, num_directories=30, seed=9)


@pytest.fixture
def cache(tmp_path) -> StageCache:
    return StageCache(str(tmp_path / "stage-cache"))


class TestCacheLifecycle:
    def test_first_run_stores_every_generation_stage(self, cache):
        result = default_pipeline().run(CONFIG, cache=cache)
        assert result.cache_summary() == {
            "enabled": True,
            "hits": 0,
            "misses": 6,
            "stores": 6,
            "generated": True,
        }
        assert cache.entry_count() == 6

    def test_second_run_is_a_full_hit_with_identical_image(self, cache):
        first = default_pipeline().run(CONFIG, cache=cache)
        second = default_pipeline().run(CONFIG, cache=cache)
        assert second.generation_cached
        assert second.cache_summary()["hits"] == 6
        assert second.cache_summary()["stores"] == 0
        assert image_fingerprint(first.image) == image_fingerprint(second.image)

    def test_cached_run_matches_cacheless_run(self, cache):
        default_pipeline().run(CONFIG, cache=cache)
        cached = default_pipeline().run(CONFIG, cache=cache)
        plain = default_pipeline().run(CONFIG)
        assert image_fingerprint(cached.image) == image_fingerprint(plain.image)

    def test_layout_sweep_reuses_prefix_and_stays_correct(self, cache):
        default_pipeline().run(CONFIG, cache=cache)
        swept_config = CONFIG.with_overrides(layout_score=0.7)
        swept = default_pipeline().run(swept_config, cache=cache)
        flags = [execution.cached for execution in swept.generation_executions]
        assert flags == [True, True, True, True, True, False]
        plain = default_pipeline().run(swept_config)
        assert image_fingerprint(swept.image) == image_fingerprint(plain.image)

    def test_different_seed_shares_nothing(self, cache):
        default_pipeline().run(CONFIG, cache=cache)
        other = default_pipeline().run(CONFIG.with_overrides(seed=10), cache=cache)
        assert other.cache_summary()["hits"] == 0
        assert cache.entry_count() == 12

    def test_report_and_timings_survive_a_cache_restore(self, cache):
        default_pipeline().run(CONFIG, cache=cache)
        restored = default_pipeline().run(CONFIG, cache=cache)
        report = restored.image.report
        assert report is not None
        assert report.derived["file_count"] == 150
        assert "layout_score" in report.derived
        assert set(report.phase_timings) >= {"directory_structure", "on_disk_creation", "total"}
        # Every stage was restored: each reports the seconds its snapshot stored.
        for execution in restored.generation_executions:
            assert execution.cached
            assert report.phase_timings[execution.name] == execution.seconds
        assert report.phase_timings["total"] == sum(
            execution.seconds for execution in restored.generation_executions
        )


class TestCacheRobustness:
    def test_corrupt_entry_is_evicted_and_treated_as_miss(self, cache):
        result = default_pipeline().run(CONFIG, cache=cache)
        # Truncate the deepest entry; the run must fall back to the previous one.
        deepest = result.generation_executions[-1].fingerprint
        with open(cache._path(deepest), "wb") as handle:
            handle.write(b"\x80corrupt")
        rerun = default_pipeline().run(CONFIG, cache=cache)
        flags = [execution.cached for execution in rerun.generation_executions]
        assert flags == [True, True, True, True, True, False]
        assert cache.stats.evicted_corrupt == 1
        assert image_fingerprint(rerun.image) == image_fingerprint(result.image)

    def test_store_is_atomic_no_tmp_litter(self, cache, tmp_path):
        default_pipeline().run(CONFIG, cache=cache)
        leftovers = list((tmp_path / "stage-cache").rglob("*.tmp"))
        assert leftovers == []


class TestCacheSafety:
    def test_plain_knob_config_is_safe(self):
        assert config_cache_safe(CONFIG)

    def test_model_override_disables_the_cache(self, cache):
        custom = CONFIG.with_overrides(
            file_size_model=LognormalDistribution(mu=8.0, sigma=2.0)
        )
        assert not config_cache_safe(custom)
        result = default_pipeline().run(custom, cache=cache)
        assert result.cache_summary()["enabled"] is False
        assert cache.entry_count() == 0

    def test_timestamp_model_disables_the_cache(self):
        stamped = CONFIG.with_overrides(timestamp_model=TimestampModel())
        assert not config_cache_safe(stamped)

    def test_from_knobs_round_trip_is_safe(self):
        rebuilt = ImpressionsConfig.from_knobs(CONFIG.to_knobs())
        assert config_cache_safe(rebuilt)


class TestDeterministicFingerprints:
    def test_same_spec_and_seed_identical_fingerprints(self):
        runs = [default_pipeline().fingerprints(CONFIG) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_rng_stream_continues_exactly_after_restore(self, cache):
        # The snapshot carries the rng state: a restored run must draw the
        # same content seed the uncached run drew.
        plain = default_pipeline().run(CONFIG.with_overrides(generate_content=True))
        default_pipeline().run(CONFIG.with_overrides(generate_content=True), cache=cache)
        cached = default_pipeline().run(
            CONFIG.with_overrides(generate_content=True), cache=cache
        )
        assert cached.image.content_seed == plain.image.content_seed
        probe = cached.image.tree.files[0]
        assert cached.image.file_content(probe) == plain.image.file_content(probe)
