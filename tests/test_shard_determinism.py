"""The sharding contract: jobs=1 ≡ jobs=N, bit-identically, and plans differ
when their seeds do."""

from __future__ import annotations

import pytest

from repro.core.config import ImpressionsConfig
from repro.content.generators import ContentPolicy
from repro.shard import build_plan, generate_sharded, shard_cache_slice

CONFIG = ImpressionsConfig(
    num_files=160, num_directories=32, seed=13, fs_size_bytes=12 * 1024 * 1024
)


class TestJobsEquivalence:
    def test_fingerprint_and_digest_identical_across_jobs_1_2_4(self):
        results = {jobs: generate_sharded(CONFIG, num_shards=4, jobs=jobs) for jobs in (1, 2, 4)}
        fingerprints = {result.fingerprint for result in results.values()}
        digests = {result.content_digest for result in results.values()}
        assert len(fingerprints) == 1
        assert len(digests) == 1
        assert None not in digests
        summaries = [result.image.summary() for result in results.values()]
        assert summaries[0] == summaries[1] == summaries[2]

    def test_content_bearing_images_equivalent_across_jobs(self):
        config = ImpressionsConfig(
            num_files=50,
            num_directories=10,
            seed=3,
            fs_size_bytes=2 * 1024 * 1024,
            generate_content=True,
            content=ContentPolicy(text_model="word-length"),
        )
        serial = generate_sharded(config, num_shards=3, jobs=1)
        parallel = generate_sharded(config, num_shards=3, jobs=3)
        assert serial.fingerprint == parallel.fingerprint
        assert serial.content_digest == parallel.content_digest

    def test_shard_results_report_per_shard_fingerprints(self):
        result = generate_sharded(CONFIG, num_shards=4, jobs=1)
        assert len(result.shards) == 4
        assert [shard.index for shard in result.shards] == [0, 1, 2, 3]
        assert len({shard.fingerprint for shard in result.shards}) == 4
        assert sum(shard.files for shard in result.shards) == CONFIG.num_files
        payload = result.as_dict()
        assert payload["fingerprint"] == result.fingerprint
        assert payload["num_shards"] == 4


class TestPlanSensitivity:
    def test_different_seed_changes_the_image(self):
        other = ImpressionsConfig(
            num_files=160, num_directories=32, seed=14, fs_size_bytes=12 * 1024 * 1024
        )
        a = generate_sharded(CONFIG, num_shards=4, jobs=1)
        b = generate_sharded(other, num_shards=4, jobs=1)
        assert a.fingerprint != b.fingerprint
        assert a.content_digest != b.content_digest

    def test_different_shard_count_changes_the_image(self):
        a = generate_sharded(CONFIG, num_shards=2, jobs=1)
        b = generate_sharded(CONFIG, num_shards=4, jobs=1)
        assert a.fingerprint != b.fingerprint

    def test_prebuilt_plan_equals_config_path(self):
        plan = build_plan(CONFIG, 4)
        a = generate_sharded(plan=plan, jobs=1)
        b = generate_sharded(CONFIG, num_shards=4, jobs=1)
        assert a.fingerprint == b.fingerprint


class TestCacheSlices:
    def test_cached_rerun_restores_identically(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = generate_sharded(CONFIG, num_shards=3, jobs=1, cache_dir=cache_dir)
        second = generate_sharded(CONFIG, num_shards=3, jobs=1, cache_dir=cache_dir)
        assert second.fingerprint == first.fingerprint
        assert second.content_digest == first.content_digest
        assert all(shard.cache["hits"] > 0 for shard in second.shards)
        assert all(not shard.cache["generated"] for shard in second.shards)
        # Each shard cached under its own slice.
        for index in range(3):
            assert (tmp_path / "cache" / f"shard-{index:04d}").is_dir()

    def test_slice_paths_are_stable(self):
        assert shard_cache_slice("/tmp/c", 0) == "/tmp/c/shard-0000"
        assert shard_cache_slice("/tmp/c", 12) == "/tmp/c/shard-0012"


class TestCampaignStep:
    def test_sharded_generate_step_rows_are_jobs_invariant(self):
        from repro.core.impressions import Impressions
        from repro.pipeline.registry import post_stage_names, run_post_stage

        assert "sharded_generate" in post_stage_names()
        image = Impressions(CONFIG).generate()
        serial = run_post_stage("sharded_generate", image, CONFIG, {"shards": 3, "jobs": 1})
        parallel = run_post_stage("sharded_generate", image, CONFIG, {"shards": 3, "jobs": 2})
        assert serial == parallel
        assert serial["files"] == CONFIG.num_files
        assert serial["shards"] == 3
        assert serial["fingerprint"] and serial["content_digest"]

    def test_sharded_generate_step_in_a_campaign(self):
        import json as json_module

        from repro.campaign.runner import run_scenario
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec.from_dict(
            {
                "name": "shard",
                "base": {"num_files": 60, "num_directories": 12, "fs_size_bytes": 2 << 20},
                "sweep": {"seed": [1, 2]},
                "steps": [{"step": "sharded_generate", "shards": 3}],
            }
        )
        rows = [run_scenario(scenario.payload()) for scenario in spec.expand()]
        fingerprints = [row["metrics"]["sharded_generate.fingerprint"] for row in rows]
        assert len(set(fingerprints)) == 2  # different seeds, different images
        for row in rows:
            assert row["metrics"]["sharded_generate.files"] == 60
            json_module.dumps(row)  # rows stay JSON-serializable for the store


class TestTelemetryMerge:
    """A telemetry that already holds a pipeline run absorbs shard snapshots."""

    def test_parent_gauge_survives_shard_merge(self):
        from repro.obs import Telemetry
        from repro.pipeline.runner import default_pipeline

        tele = Telemetry(run_id="parent")
        image = default_pipeline().run(CONFIG, telemetry=tele).image
        assert tele.gauge("image_bytes").value() == image.total_bytes

        result = generate_sharded(CONFIG, num_shards=3, jobs=1, telemetry=tele)

        image_bytes = tele.gauge("image_bytes", labels=("shard",))
        assert image_bytes.value(shard="") == image.total_bytes
        assert sorted(labels["shard"] for labels, _ in image_bytes.series_items()) == [
            "", "0", "1", "2",
        ]
        files = tele.counter("shard_files_total", labels=("shard",))
        assert files.total() == result.image.file_count == CONFIG.num_files

    def test_observed_campaign_with_sharded_step(self, tmp_path):
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import CampaignSpec
        from repro.obs import Telemetry

        spec = CampaignSpec.from_dict(
            {
                "name": "shard-obs",
                "base": {"num_files": 60, "num_directories": 12, "fs_size_bytes": 2 << 20},
                "sweep": {"seed": [1]},
                "steps": [{"step": "sharded_generate", "shards": 3}],
            }
        )
        tele = Telemetry(run_id="campaign")
        run_campaign(spec, str(tmp_path / "store.jsonl"), telemetry=tele)
        files = tele.counter("shard_files_total", labels=("shard",))
        assert files.total() == 60
        assert tele.gauge("image_files", labels=("shard",)).value(shard="") == 60


class TestValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            generate_sharded(CONFIG, num_shards=2, jobs=0)

    def test_requires_config_or_plan(self):
        with pytest.raises(ValueError, match="config or a plan"):
            generate_sharded(jobs=1)

    def test_digest_can_be_disabled(self):
        result = generate_sharded(CONFIG, num_shards=2, jobs=1, digest=False)
        assert result.content_digest is None
