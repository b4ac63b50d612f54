"""Observability wired through the CLIs: --obs-dir, obs verbs, heartbeats."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign.runner import HeartbeatEvent, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.core.cli import main as impressions_main
from repro.obs.cli import main as obs_main
from repro.obs.export import read_events_jsonl
from repro.pipeline.cli import main as pipeline_main

GENERATE_ARGS = ["--files", "80", "--dirs", "12", "--seed", "3"]


@pytest.fixture(scope="module")
def generate_run(tmp_path_factory):
    """One generate run with --obs-dir --json; returns (obs_dir, payload)."""
    tmp = tmp_path_factory.mktemp("obs-cli")
    obs_dir = str(tmp / "obs")
    import contextlib
    import io

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = impressions_main(GENERATE_ARGS + ["--json", "--obs-dir", obs_dir])
    assert code == 0
    return obs_dir, json.loads(stdout.getvalue())


class TestGenerateObsDir:
    def test_artifacts_written(self, generate_run):
        obs_dir, payload = generate_run
        artifacts = payload["obs"]["artifacts"]
        assert set(artifacts) == {"events", "chrome_trace", "prometheus", "summary"}
        for path in artifacts.values():
            assert os.path.getsize(path) > 0

    def test_chrome_trace_loads_with_stage_spans(self, generate_run):
        obs_dir, _ = generate_run
        with open(os.path.join(obs_dir, "trace.json"), encoding="utf-8") as handle:
            document = json.load(handle)
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert "pipeline" in names
        assert "directory_structure" in names

    def test_prometheus_gauges_match_report(self, generate_run):
        obs_dir, payload = generate_run
        summary = payload["summary"]
        with open(os.path.join(obs_dir, "metrics.prom"), encoding="utf-8") as handle:
            prom = {
                line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
                for line in handle
                if line.strip() and not line.startswith("#") and "+Inf" not in line
            }
        assert prom["image_files"] == summary["files"]
        assert prom["image_directories"] == summary["directories"]
        assert prom["image_bytes"] == summary["total_bytes"]
        assert prom["image_layout_score"] == pytest.approx(summary["layout_score"])

    def test_report_carries_telemetry_section(self, generate_run):
        _, payload = generate_run
        telemetry = payload["report"]["telemetry"]
        assert telemetry["spans"]["pipeline"]["count"] == 1
        assert "image_files" in telemetry["metrics"]


class TestObsVerbs:
    def test_summarize_json(self, generate_run, capsys):
        obs_dir, _ = generate_run
        assert obs_main(["summarize", obs_dir, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"]["pipeline"]["count"] == 1

    def test_summarize_text(self, generate_run, capsys):
        obs_dir, _ = generate_run
        assert obs_main(["summarize", obs_dir]) == 0
        assert "telemetry summary" in capsys.readouterr().out

    def test_export_chrome(self, generate_run, capsys, tmp_path):
        obs_dir, _ = generate_run
        out = str(tmp_path / "re-exported.json")
        assert obs_main(["export", obs_dir, "--format", "chrome", "--out", out]) == 0
        with open(out, encoding="utf-8") as handle:
            assert "traceEvents" in json.load(handle)

    def test_export_prom_to_stdout(self, generate_run, capsys):
        obs_dir, _ = generate_run
        assert obs_main(["export", obs_dir, "--format", "prom"]) == 0
        assert "# TYPE pipeline_stages_total counter" in capsys.readouterr().out

    def test_export_jsonl_round_trips(self, generate_run, tmp_path):
        obs_dir, _ = generate_run
        out = str(tmp_path / "events-copy.jsonl")
        assert obs_main(["export", obs_dir, "--out", out]) == 0
        original = read_events_jsonl(obs_dir)
        assert read_events_jsonl(out).to_events() == original.to_events()

    def test_compare_identical_runs_passes(self, generate_run, capsys):
        obs_dir, _ = generate_run
        assert obs_main(["compare", obs_dir, obs_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["regressions"] == []

    def test_missing_path_exits_2(self, capsys, tmp_path):
        assert obs_main(["summarize", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestPipelineInspectCache:
    def test_cache_section_cold_and_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = GENERATE_ARGS + ["--cache-dir", cache_dir]

        assert pipeline_main(["inspect"] + args + ["--json"]) == 0
        cold = json.loads(capsys.readouterr().out)["cache"]
        assert cold["entries"] == 0
        assert cold["resume_from"] is None
        assert cold["stages_restored_on_run"] == 0
        assert cold["predicted_stats"]["hits"] == 0
        assert cold["predicted_stats"]["stores"] == cold["stages_executed_on_run"]

        assert impressions_main(args + ["--quiet"]) == 0
        capsys.readouterr()

        assert pipeline_main(["inspect"] + args + ["--json"]) == 0
        warm = json.loads(capsys.readouterr().out)["cache"]
        assert warm["entries"] > 0
        assert warm["resume_from"] == warm["cached_stages"][-1]
        assert warm["stages_executed_on_run"] == 0
        assert warm["predicted_stats"] == {
            "hits": 1,
            "misses": 0,
            "restored_stages": warm["stages_restored_on_run"],
            "stores": 0,
        }

    def test_no_cache_dir_no_section(self, capsys):
        assert pipeline_main(["inspect"] + GENERATE_ARGS + ["--json"]) == 0
        assert "cache" not in json.loads(capsys.readouterr().out)


CAMPAIGN_DOC = {
    "name": "obs-cli",
    "base": {"num_directories": 10, "fs_size_bytes": 24 * 1024 * 1024},
    "sweep": {"num_files": [40, 60]},
    "steps": [{"step": "summary"}, {"step": "trace_replay", "kind": "zipf", "ops": 200}],
}


class TestCampaignObservability:
    def test_heartbeat_events_and_telemetry_merge(self, tmp_path):
        from repro.obs.core import Telemetry

        spec = CampaignSpec.from_dict(CAMPAIGN_DOC)
        beats: list[HeartbeatEvent] = []
        tele = Telemetry(run_id="campaign-test")
        result = run_campaign(
            spec,
            str(tmp_path / "store.jsonl"),
            workers=1,
            telemetry=tele,
            heartbeat=beats.append,
            heartbeat_interval=0.05,
        )
        assert len(result.executed) == 2
        assert beats
        final = beats[-1]
        assert (final.done, final.total) == (2, 2)
        assert final.rate_per_second > 0
        assert "2/2 scenarios (100%)" in final.render()
        # Worker telemetry merged: one scenario span each, replay histograms.
        scenario_spans = [s for s in tele.spans if s.name == "scenario"]
        assert len(scenario_spans) == 2
        hist = tele.snapshot()["metrics"]["replay_op_latency_ms"]
        assert sum(series["count"] for series in hist["series"]) > 0

    def test_pool_path_heartbeats_between_completions(self, tmp_path):
        # Each scenario replays enough operations to outlast many heartbeat
        # intervals, so the pool loop must time out on the pending future
        # and beat while it waits.
        spec = CampaignSpec.from_dict(
            {
                "name": "hb-pool",
                "base": {"num_files": 400, "num_directories": 40, "fs_size_bytes": 24 << 20},
                "sweep": {"seed": [1, 2]},
                "steps": [{"step": "trace_replay", "kind": "zipf", "ops": 40_000}],
            }
        )
        beats: list[HeartbeatEvent] = []
        result = run_campaign(
            spec,
            str(tmp_path / "store.jsonl"),
            workers=2,
            heartbeat=beats.append,
            heartbeat_interval=0.05,
        )
        assert len(result.executed) == 2
        waiting = [beat for beat in beats if beat.done == 0]
        assert len(waiting) >= 3  # the opening beat plus steady ones
        assert all(beat.running for beat in waiting)
        elapsed = [beat.elapsed_seconds for beat in beats]
        assert elapsed == sorted(elapsed)
        assert (beats[-1].done, beats[-1].total) == (2, 2)

    def test_store_rows_free_of_telemetry_key(self, tmp_path):
        from repro.campaign.runner import TELEMETRY_KEY
        from repro.campaign.store import ResultStore
        from repro.obs.core import Telemetry

        spec = CampaignSpec.from_dict(CAMPAIGN_DOC)
        store_path = str(tmp_path / "store.jsonl")
        run_campaign(spec, store_path, workers=1, telemetry=Telemetry(run_id="x"))
        for row in ResultStore(store_path).latest_rows().values():
            assert TELEMETRY_KEY not in row

    def test_cli_json_mode_heartbeats_on_stderr(self, tmp_path, capsys):
        from repro.campaign.cli import main as campaign_main

        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(CAMPAIGN_DOC, handle)
        obs_dir = str(tmp_path / "obs")
        code = campaign_main(
            [
                "run",
                spec_path,
                "--store",
                str(tmp_path / "store.jsonl"),
                "--json",
                "--obs-dir",
                obs_dir,
                "--heartbeat-interval",
                "0.05",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # stdout is exactly one machine-readable JSON document...
        payload = json.loads(captured.out)
        assert payload["obs"]["dir"] == obs_dir
        # ...and live progress went to stderr.
        assert "[obs-cli]" in captured.err
        assert "2/2 scenarios (100%)" in captured.err
        assert os.path.getsize(os.path.join(obs_dir, "events.jsonl")) > 0

    def test_cli_compare_obs(self, tmp_path, capsys):
        from repro.campaign.cli import main as campaign_main

        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(CAMPAIGN_DOC, handle)
        obs_dir = str(tmp_path / "obs")
        campaign_main(
            ["run", spec_path, "--store", str(tmp_path / "s.jsonl"),
             "--quiet", "--obs-dir", obs_dir]
        )
        capsys.readouterr()
        code = campaign_main(
            ["compare", obs_dir, obs_dir, "--obs", "--tolerance", "0.5", "--json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["failed"] is False


class TestTraceAndMaterializeObsDir:
    def test_trace_replay_obs_dir(self, tmp_path, capsys):
        from repro.trace.cli import main as trace_main
        from repro.trace.synthesize import ZipfMixSpec, synthesize_zipf_mix
        from repro.core.config import ImpressionsConfig
        from repro.core.impressions import Impressions

        config = ImpressionsConfig(
            num_files=80, num_directories=12, fs_size_bytes=24 * 1024 * 1024, seed=3
        )
        image = Impressions(config).generate()
        trace = synthesize_zipf_mix(image, ZipfMixSpec(num_ops=200), seed=1)
        trace_path = str(tmp_path / "trace.jsonl")
        trace.save(trace_path)
        obs_dir = str(tmp_path / "obs")
        code = trace_main(
            ["replay", "--trace", trace_path, "--files", "80", "--dirs", "12",
             "--image-seed", "3", "--quiet", "--obs-dir", obs_dir]
        )
        assert code == 0
        telemetry = read_events_jsonl(obs_dir)
        snapshot = telemetry.snapshot()
        assert "replay_op_latency_ms" in snapshot["metrics"]
        assert any(span.name == "trace_replay" for span in telemetry.spans)

    def test_materialize_obs_dir(self, tmp_path, capsys):
        from repro.materialize.cli import main as materialize_main

        obs_dir = str(tmp_path / "obs")
        code = materialize_main(
            ["--files", "60", "--dirs", "10", "--seed", "3", "--sink", "null",
             "--json", "--obs-dir", obs_dir]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert set(payload["obs"]["artifacts"]) == {
            "events", "chrome_trace", "prometheus", "summary"
        }
        telemetry = read_events_jsonl(obs_dir)
        names = {span.name for span in telemetry.spans}
        assert "materialize" in names
        assert "materialize.files" in names
        totals = telemetry.snapshot()["metrics"]["materialize_entries_total"]
        by_kind = {
            series["labels"]["kind"]: series["value"] for series in totals["series"]
        }
        assert by_kind["file"] == payload["result"]["files"]
