"""Stage protocol, wiring validation, registry, and fingerprint behaviour."""

from __future__ import annotations

import pytest

from repro.core.config import ImpressionsConfig
from repro.pipeline import (
    GenerationContext,
    Pipeline,
    Stage,
    StageWiringError,
    default_pipeline,
)
from repro.pipeline.registry import (
    build_stage,
    get_stage_factory,
    post_stage_names,
    run_post_stage,
    stage_names,
)
from repro.pipeline.stages import (
    GENERATION_STAGES,
    DirectoryStructureStage,
    FileSizesStage,
    OnDiskCreationStage,
)

CONFIG = ImpressionsConfig(fs_size_bytes=None, num_files=120, num_directories=24, seed=5)


@pytest.fixture(scope="module")
def scratch_image():
    """A private image for post-stage runs (replay mutates the disk, so the
    shared read-only ``small_image`` fixture must not be used here)."""
    return default_pipeline().run(CONFIG).image


class TestWiring:
    def test_default_pipeline_has_the_six_paper_phases(self):
        assert default_pipeline().stage_names == (
            "directory_structure",
            "file_sizes",
            "extensions",
            "depth_and_placement",
            "content",
            "on_disk_creation",
        )

    def test_empty_pipeline_rejected(self):
        with pytest.raises(StageWiringError):
            Pipeline([])

    def test_missing_requirement_rejected(self):
        # depth_and_placement needs tree+sizes+extensions; alone it cannot run.
        with pytest.raises(StageWiringError, match="requires"):
            default_pipeline().subset(["directory_structure", "depth_and_placement"])

    def test_pipeline_without_tree_provider_rejected(self):
        with pytest.raises(StageWiringError, match="tree"):
            Pipeline([FileSizesStage()])

    def test_duplicate_generation_stage_rejected(self):
        with pytest.raises(StageWiringError, match="duplicate"):
            Pipeline([DirectoryStructureStage(), DirectoryStructureStage()])

    def test_generation_stage_after_post_stage_rejected(self):
        replay = build_stage("trace_replay", {"ops": 10})
        stages = [stage_class() for stage_class in GENERATION_STAGES]
        with pytest.raises(StageWiringError, match="after a post-generation"):
            Pipeline(stages[:5] + [replay, stages[5]])

    def test_duplicate_post_stage_label_rejected(self):
        replays = [
            build_stage("trace_replay", {"kind": "zipf", "ops": 10}),
            build_stage("trace_replay", {"kind": "churn", "ops": 10}),
        ]
        with pytest.raises(StageWiringError, match="label"):
            default_pipeline(replays)

    def test_distinct_post_stage_labels_coexist(self):
        replays = [
            build_stage("trace_replay", {"kind": "zipf", "ops": 100, "label": "hot"}),
            build_stage("trace_replay", {"kind": "churn", "ops": 100, "label": "cold"}),
        ]
        result = default_pipeline(replays).run(CONFIG)
        assert {"hot", "cold"} <= set(result.context.metrics)

    def test_subset_unknown_stage_rejected(self):
        with pytest.raises(StageWiringError, match="unknown stage"):
            default_pipeline().subset(["directory_structure", "nope"])

    def test_valid_prefix_subset_runs_without_disk(self):
        pipeline = default_pipeline().subset(
            ["directory_structure", "file_sizes", "extensions", "depth_and_placement"]
        )
        image = pipeline.run(CONFIG).image
        assert image.file_count == 120
        assert image.disk is None
        assert image.achieved_layout_score() == 1.0


class TestFingerprints:
    def test_fingerprints_are_deterministic(self):
        first = default_pipeline().fingerprints(CONFIG)
        second = default_pipeline().fingerprints(CONFIG)
        assert first == second
        assert len(set(first)) == len(first)  # chained digests never collide

    def test_seed_changes_every_fingerprint(self):
        base = default_pipeline().fingerprints(CONFIG)
        other = default_pipeline().fingerprints(CONFIG.with_overrides(seed=6))
        assert all(a != b for a, b in zip(base, other))

    def test_layout_knob_only_changes_the_layout_stage(self):
        base = default_pipeline().fingerprints(CONFIG)
        swept = default_pipeline().fingerprints(CONFIG.with_overrides(layout_score=0.7))
        assert swept[:5] == base[:5]
        assert swept[5] != base[5]

    def test_upstream_knob_invalidates_downstream_chain(self):
        base = default_pipeline().fingerprints(CONFIG)
        swept = default_pipeline().fingerprints(CONFIG.with_overrides(num_directories=25))
        # directory count feeds the first stage; everything downstream shifts.
        assert all(a != b for a, b in zip(base, swept))

    def test_describe_includes_fingerprints_and_declarations(self):
        rows = default_pipeline().describe(CONFIG)
        by_name = {row["name"]: row for row in rows}
        assert by_name["on_disk_creation"]["requires"] == ["files"]
        assert by_name["on_disk_creation"]["provides"] == ["disk"]
        assert "layout_score" in by_name["on_disk_creation"]["config_knobs"]
        assert all(len(row["fingerprint"]) == 64 for row in rows)


class TestRegistry:
    def test_generation_and_post_stages_registered(self):
        names = stage_names()
        assert set(names) >= {
            "directory_structure",
            "file_sizes",
            "extensions",
            "depth_and_placement",
            "content",
            "on_disk_creation",
            "trace_replay",
            "age",
            "bench",
        }

    def test_post_stages_are_exactly_the_campaign_steps(self):
        built_in = {
            name
            for name in post_stage_names()
            if get_stage_factory(name).__module__ == "repro.pipeline.registry"
        }
        assert built_in == {
            "summary",
            "find",
            "grep",
            "trace_replay",
            "merged_replay",
            "age",
            "bench",
            "materialize",
            "sharded_generate",
        }
        assert "trace_aging" not in stage_names()

    def test_unknown_stage_name_raises(self):
        with pytest.raises(ValueError, match="unknown stage"):
            build_stage("definitely_not_a_stage")

    def test_post_stage_records_metrics_under_label(self, scratch_image):
        metrics = run_post_stage(
            "trace_replay", scratch_image, CONFIG, {"ops": 200, "label": "hot"}
        )
        assert metrics["executed"] > 0
        assert "simulated_ms" in metrics

    def test_run_post_stage_rejects_generation_stage(self, scratch_image):
        with pytest.raises(Exception, match="generation stage"):
            run_post_stage("file_sizes", scratch_image, CONFIG)

    def test_pipeline_with_post_stage_runs_it_against_the_image(self):
        replay = build_stage("trace_replay", {"ops": 200, "kind": "zipf"})
        result = default_pipeline([replay]).run(CONFIG)
        assert "trace_replay" in result.context.metrics
        assert result.context.metrics["trace_replay"]["executed"] > 0
        post = [execution for execution in result.executions if execution.post_generation]
        assert [execution.name for execution in post] == ["trace_replay"]


class TestLayoutTelemetry:
    def test_layout_and_aging_gauges_report_target_and_achieved(self):
        from repro.obs import Telemetry

        tele = Telemetry(run_id="layout-gauges")
        config = ImpressionsConfig(
            fs_size_bytes=None, num_files=120, num_directories=24, seed=5, layout_score=0.9
        )
        age = build_stage("age", {"target_score": 0.8})
        result = default_pipeline([age]).run(config, telemetry=tele)
        derived = result.image.report.derived
        assert tele.gauge("image_layout_score_target").value() == 0.9
        assert tele.gauge("image_layout_score").value() == derived["layout_score"]
        assert tele.counter("layout_temporary_operations_total").value() > 0
        aging = result.context.metrics["age"]
        assert tele.gauge("trace_aging_score_target").value() == aging["target_score"]
        assert tele.gauge("trace_aging_score").value() == aging["achieved_score"]

    def test_restored_layout_stage_still_reports_its_target(self, tmp_path):
        from repro.obs import Telemetry
        from repro.pipeline.cache import StageCache

        config = ImpressionsConfig(
            fs_size_bytes=None, num_files=120, num_directories=24, seed=5, layout_score=0.85
        )
        cache = StageCache(str(tmp_path / "cache"))
        gauges = []
        for run in ("cold", "restored"):
            tele = Telemetry(run_id=run)
            result = default_pipeline().run(config, cache=cache, telemetry=tele)
            gauges.append(
                (tele.gauge("image_layout_score_target").value(),
                 tele.gauge("image_layout_score").value())
            )
        assert result.generation_cached
        assert gauges[1] == gauges[0]
        assert gauges[0][0] == 0.85


class TestContext:
    def test_create_seeds_report_and_rng(self):
        context = GenerationContext.create(CONFIG)
        assert context.report.seed == CONFIG.seed
        assert "file_size_by_count" in context.report.distributions
        assert not context.artifacts

    def test_custom_stage_can_join_the_pipeline(self):
        class TagStage(Stage):
            name = "tag"
            requires = ("tree",)
            provides = ("tag",)
            cacheable = False

            def run(self, context):
                context.metrics["tag"] = {"directories": context.tree.directory_count}

        pipeline = Pipeline([DirectoryStructureStage(), TagStage()])
        result = pipeline.run(CONFIG)
        assert result.context.metrics["tag"]["directories"] >= 24
        # A custom generation stage is timed like any other and counts toward the total.
        timings = result.image.report.phase_timings
        assert list(timings) == ["directory_structure", "tag", "total"]
        assert timings["total"] == timings["directory_structure"] + timings["tag"]
