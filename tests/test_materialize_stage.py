"""The ``materialize`` pipeline stage and campaign step."""

from __future__ import annotations

import json

import pytest

from repro.campaign.runner import run_scenario
from repro.campaign.spec import CampaignSpec
from repro.pipeline import default_pipeline
from repro.pipeline.registry import build_stage, post_stage_names, run_post_stage, stage_names
from repro.pipeline.stage import PipelineError


class TestMaterializeStage:
    def test_registered(self):
        assert "materialize" in stage_names()
        assert "materialize" in post_stage_names()

    def test_null_sink_metrics(self, small_image, small_config):
        metrics = run_post_stage("materialize", small_image, small_config, {"sink": "null"})
        assert metrics["files"] == small_image.file_count
        assert metrics["directories"] == small_image.directory_count
        assert metrics["total_bytes"] == small_image.total_bytes
        assert len(metrics["content_digest"]) == 64
        assert metrics["verify_passed"] == 1
        assert metrics["verify_source"] == "image"

    def test_metrics_deterministic(self, small_image, small_config):
        one = run_post_stage("materialize", small_image, small_config, {"sink": "null"})
        two = run_post_stage("materialize", small_image, small_config, {"sink": "null"})
        assert one == two

    def test_dir_sink_with_verification(self, small_image, small_config, tmp_path):
        metrics = run_post_stage(
            "materialize",
            small_image,
            small_config,
            {"sink": "dir", "path": str(tmp_path / "img")},
        )
        assert metrics["verify_source"] == "imported"
        assert metrics["verify_passed"] == 1

    def test_tar_sink_reports_archive_extras(self, small_image, small_config, tmp_path):
        metrics = run_post_stage(
            "materialize",
            small_image,
            small_config,
            {"sink": "tar", "path": str(tmp_path / "img.tar"), "verify": False},
        )
        assert "archive_sha256" in metrics and "archive_bytes" in metrics
        assert "verify_passed" not in metrics

    def test_missing_path_raises_pipeline_error(self, small_image, small_config):
        with pytest.raises(PipelineError):
            run_post_stage("materialize", small_image, small_config, {"sink": "tar"})

    def test_in_pipeline_extension(self, small_config, tmp_path):
        pipeline = default_pipeline(
            extra_stages=[
                build_stage(
                    "materialize",
                    {"sink": "manifest", "path": str(tmp_path / "img.jsonl")},
                )
            ]
        )
        result = pipeline.run(small_config.with_overrides(num_files=60, num_directories=12))
        metrics = result.context.metrics["materialize"]
        assert metrics["lines"] == metrics["files"] + metrics["directories"] + 1
        assert result.executions[-1].name == "materialize"
        assert result.executions[-1].post_generation


class TestMaterializeCampaignStep:
    def test_step_delegates_to_stage(self, small_image, small_config):
        metrics = run_post_stage("materialize", small_image, small_config, {"sink": "null"})
        assert metrics["verify_passed"] == 1

    def test_scenario_rows_carry_digest(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "mat",
                "base": {"num_files": 50, "num_directories": 10, "fs_size_bytes": 2 << 20},
                "sweep": {"seed": [1, 2]},
                "steps": [{"step": "materialize", "sink": "null"}],
            }
        )
        rows = [run_scenario(scenario.payload()) for scenario in spec.expand()]
        digests = [row["metrics"]["materialize.content_digest"] for row in rows]
        assert len(set(digests)) == 2  # different seeds, different images
        for row in rows:
            assert row["metrics"]["materialize.verify_passed"] == 1
            json.dumps(row)  # rows stay JSON-serializable for the store
