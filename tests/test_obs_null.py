"""The null-telemetry contract at the layer level.

With nothing bound, every layer still times its phases through spans on
:data:`repro.obs.NULL`: the timing fields of every result are populated and
non-zero, nothing is retained, and the report carries no telemetry section.
Observing a run changes none of its output.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.campaign.runner import run_scenario
from repro.campaign.spec import CampaignSpec
from repro.core.config import ImpressionsConfig
from repro.core.impressions import Impressions
from repro.materialize import NullSink, materialize_image
from repro.pipeline.runner import default_pipeline, image_fingerprint
from repro.shard import generate_sharded
from repro.trace.replay import TraceReplayer
from repro.trace.synthesize import ZipfMixSpec, synthesize_zipf_mix

CONFIG = ImpressionsConfig(
    num_files=120, num_directories=24, seed=5, fs_size_bytes=8 * 1024 * 1024
)
PHASES = (
    "directory_structure",
    "file_sizes",
    "extensions",
    "depth_and_placement",
    "content",
    "on_disk_creation",
)


@pytest.fixture(autouse=True)
def _nothing_bound():
    assert obs.current() is obs.NULL
    yield
    assert obs.NULL.spans == []
    assert obs.NULL.metrics() == []


def test_unobserved_generate_has_timings_and_no_telemetry_section():
    image = Impressions(CONFIG).generate()
    report = image.report.to_dict()
    timings = report["phase_timings"]
    for phase in PHASES:
        assert timings[phase] > 0.0, phase
    assert "telemetry" not in report
    assert timings["total"] == sum(timings[phase] for phase in PHASES)


def test_observed_and_unobserved_runs_build_the_same_image():
    plain = default_pipeline().run(CONFIG).image
    tele = obs.Telemetry(run_id="observed")
    observed = default_pipeline().run(CONFIG, telemetry=tele).image
    assert image_fingerprint(plain) == image_fingerprint(observed)
    assert "telemetry" in observed.report.to_dict()
    assert {span.name for span in tele.spans} >= {"pipeline", *PHASES}


def test_pipeline_stage_seconds_match_observed_spans():
    tele = obs.Telemetry(run_id="stages")
    result = default_pipeline().run(CONFIG, telemetry=tele)
    spans = {span.name: span for span in tele.spans if span.labels.get("phase") == "generation"}
    timings = result.image.report.phase_timings
    assert set(timings) == {*PHASES, "total"}
    for execution in result.executions:
        assert execution.seconds == spans[execution.name].wall_seconds
        assert timings[execution.name] == spans[execution.name].wall_seconds
    assert timings["total"] == sum(spans[phase].wall_seconds for phase in PHASES)
    plain = default_pipeline().run(CONFIG)
    assert all(execution.seconds > 0.0 for execution in plain.executions)


def test_sharded_timings_populated_unobserved():
    result = generate_sharded(CONFIG, num_shards=2, jobs=1)
    for key in ("plan_seconds", "generate_seconds", "merge_seconds", "digest_seconds"):
        assert result.timings[key] > 0.0, key
    assert all(wall > 0.0 for wall in result.shard_walls)


def test_materialize_phase_seconds_populated_unobserved():
    image = default_pipeline().run(CONFIG).image
    result = materialize_image(image, NullSink())
    assert set(result.phase_seconds) == {"begin", "directories", "files", "finalize"}
    assert all(seconds > 0.0 for seconds in result.phase_seconds.values())


def test_replay_wall_seconds_populated_unobserved():
    image = default_pipeline().run(CONFIG).image
    trace = synthesize_zipf_mix(image, ZipfMixSpec(num_ops=300), seed=2)
    result = TraceReplayer(image).replay(trace)
    assert result.wall_seconds > 0.0
    assert image.report.phase_timings["trace_replay"] == result.wall_seconds


def test_campaign_row_wall_section_populated_unobserved():
    spec = CampaignSpec.from_dict(
        {
            "name": "null-wall",
            "base": {"num_files": 60, "num_directories": 12, "fs_size_bytes": 2 << 20},
            "steps": [{"step": "summary"}, {"step": "summary", "label": "again"}],
        }
    )
    row = run_scenario(spec.expand()[0].payload())
    assert set(row["wall"]) == {"generate_seconds", "summary_seconds", "again_seconds"}
    assert all(seconds > 0.0 for seconds in row["wall"].values())
    assert "_telemetry" not in row
