"""The ``impressions shard`` subcommand."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.cli import main
from repro.shard import ShardPlan

BASE = ["--files", "120", "--dirs", "24", "--seed", "17", "--size-bytes", str(4 << 20)]


class TestShardPlanCli:
    def test_plan_to_stdout(self, capsys):
        code = main(["shard", "plan", *BASE, "--shards", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "impressions-shard-plan"
        assert payload["num_shards"] == 3
        assert sum(spec["num_files"] for spec in payload["shards"]) == 120

    def test_plan_to_file_round_trips(self, tmp_path, capsys):
        out = str(tmp_path / "plan.json")
        code = main(["shard", "plan", *BASE, "--shards", "4", "--out", out])
        assert code == 0
        assert "4 shards" in capsys.readouterr().out
        with open(out, encoding="utf-8") as handle:
            plan = ShardPlan.from_json(handle.read())
        assert plan.num_shards == 4

    def test_plan_rejects_too_many_shards(self, capsys):
        with pytest.raises(SystemExit):
            main(["shard", "plan", "--files", "3", "--dirs", "2", "--shards", "5"])
        assert "at least one file" in capsys.readouterr().err


class TestShardGenerateCli:
    def test_generate_human_output(self, capsys):
        code = main(["shard", "generate", *BASE, "--shards", "3", "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "generated 120 files" in out
        assert "fingerprint" in out
        assert "shard walls" in out

    def test_generate_json_matches_across_jobs(self, capsys):
        code = main(["shard", "generate", *BASE, "--shards", "3", "--jobs", "1", "--json"])
        assert code == 0
        serial = json.loads(capsys.readouterr().out)
        code = main(["shard", "generate", *BASE, "--shards", "3", "--jobs", "2", "--json"])
        assert code == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial["fingerprint"] == parallel["fingerprint"]
        assert serial["content_digest"] == parallel["content_digest"]
        assert serial["jobs"] == 1 and parallel["jobs"] == 2
        assert len(serial["shards"]) == 3

    def test_generate_from_plan_file_with_cache(self, tmp_path, capsys):
        plan_path = str(tmp_path / "plan.json")
        main(["shard", "plan", *BASE, "--shards", "2", "--out", plan_path])
        capsys.readouterr()
        cache_dir = str(tmp_path / "cache")
        code = main(
            ["shard", "generate", "--plan", plan_path, "--jobs", "1",
             "--cache-dir", cache_dir, "--json"]
        )
        assert code == 0
        first = json.loads(capsys.readouterr().out)
        code = main(
            ["shard", "generate", "--plan", plan_path, "--jobs", "1",
             "--cache-dir", cache_dir, "--json"]
        )
        assert code == 0
        second = json.loads(capsys.readouterr().out)
        assert second["fingerprint"] == first["fingerprint"]
        assert all(shard["cache"]["hits"] > 0 for shard in second["shards"])

    def test_generate_obs_export(self, tmp_path, capsys):
        obs_dir = str(tmp_path / "obs")
        code = main(
            ["shard", "generate", *BASE, "--shards", "2", "--jobs", "2",
             "--obs-dir", obs_dir, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "obs" in payload
        summary_path = os.path.join(obs_dir, "summary.txt")
        assert os.path.exists(summary_path)
        with open(summary_path, encoding="utf-8") as handle:
            text = handle.read()
        # Per-shard series survived the cross-process snapshot merge.
        assert "shard_files_total" in text
        assert 'shard="1"' in text

    def test_missing_plan_file_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["shard", "generate", "--plan", str(tmp_path / "nope.json")])
        assert "cannot read plan" in capsys.readouterr().err


class TestShardVerifyCli:
    def test_verify_passes(self, capsys):
        code = main(["shard", "verify", *BASE, "--shards", "3", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out
        assert "MISMATCH" not in out

    def test_verify_json(self, capsys):
        code = main(["shard", "verify", *BASE, "--shards", "2", "--jobs", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["fingerprint_match"] is True
        assert payload["content_digest_match"] is True
        assert payload["reference_digest_match"] is True
        assert payload["content_digest"]["reference"] == payload["content_digest"]["serial"]
        assert payload["fingerprint"]["serial"] == payload["fingerprint"]["parallel"]

    def test_verify_fails_when_both_paths_share_a_wrong_digest(self, monkeypatch, capsys):
        import repro.shard.merge as merge

        monkeypatch.setattr(merge, "merged_content_digest", lambda merged, records: "0" * 64)
        code = main(["shard", "verify", *BASE, "--shards", "2", "--jobs", "1", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["content_digest_match"] is True
        assert payload["reference_digest_match"] is False
        assert payload["passed"] is False
