"""ResultStore.compact() and the ``impressions campaign gc`` verb."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign.store import ResultStore
from repro.core.cli import main


def _row(scenario: str, fingerprint: str, value: int) -> dict:
    return {
        "scenario": scenario,
        "fingerprint": fingerprint,
        "metrics": {"value": value},
        "wall": {"elapsed": 0.1 * value},
    }


@pytest.fixture()
def duplicated_store(tmp_path) -> ResultStore:
    """Three fingerprints, five rows: a and b superseded by later appends."""
    store = ResultStore(str(tmp_path / "results.jsonl"))
    store.append(_row("s[a]", "fp-a", 1))
    store.append(_row("s[b]", "fp-b", 2))
    store.append(_row("s[a]", "fp-a", 3))
    store.append(_row("s[c]", "fp-c", 4))
    store.append(_row("s[b]", "fp-b", 5))
    return store


class TestCompact:
    def test_keeps_only_newest_row_per_fingerprint(self, duplicated_store):
        report = duplicated_store.compact()
        assert report["rows_before"] == 5
        assert report["rows_after"] == 3
        assert report["rows_dropped"] == 2
        rows = duplicated_store.rows()
        assert [row["metrics"]["value"] for row in rows] == [3, 4, 5]

    def test_latest_rows_unchanged_by_compaction(self, duplicated_store):
        before = duplicated_store.latest_rows()
        duplicated_store.compact()
        assert duplicated_store.latest_rows() == before

    def test_reports_reclaimed_bytes(self, duplicated_store):
        size_before = os.path.getsize(duplicated_store.path)
        report = duplicated_store.compact()
        size_after = os.path.getsize(duplicated_store.path)
        assert report["bytes_before"] == size_before
        assert report["bytes_after"] == size_after
        assert report["bytes_reclaimed"] == size_before - size_after
        assert report["bytes_reclaimed"] > 0

    def test_dry_run_changes_nothing(self, duplicated_store):
        content = open(duplicated_store.path, encoding="utf-8").read()
        report = duplicated_store.compact(dry_run=True)
        assert report["dry_run"] is True
        assert report["rows_dropped"] == 2
        assert open(duplicated_store.path, encoding="utf-8").read() == content

    def test_compact_is_idempotent(self, duplicated_store):
        duplicated_store.compact()
        report = duplicated_store.compact()
        assert report["rows_dropped"] == 0
        assert report["bytes_reclaimed"] == 0

    def test_missing_store_reports_empty(self, tmp_path):
        report = ResultStore(str(tmp_path / "absent.jsonl")).compact()
        assert report["rows_before"] == 0
        assert report["bytes_reclaimed"] == 0

    def test_rows_without_fingerprint_keyed_by_scenario(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        store.append({"scenario": "s[x]", "metrics": {"value": 1}})
        store.append({"scenario": "s[x]", "metrics": {"value": 2}})
        store.append({"scenario": "s[y]", "metrics": {"value": 3}})
        store.compact()
        assert [row["metrics"]["value"] for row in store.rows()] == [2, 3]

    def test_temp_file_is_fsynced_before_it_replaces_the_store(
        self, duplicated_store, monkeypatch
    ):
        # Events carry inodes: the fsynced descriptor and the replaced temp
        # path must name the same file, and the fsync must come first.
        events: list[tuple[str, int]] = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(descriptor):
            events.append(("fsync", os.fstat(descriptor).st_ino))
            return real_fsync(descriptor)

        def replace(source, destination):
            events.append(("replace", os.stat(source).st_ino))
            return real_replace(source, destination)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        duplicated_store.compact()
        replaces = [index for index, event in enumerate(events) if event[0] == "replace"]
        assert len(replaces) == 1
        temp_inode = events[replaces[0]][1]
        assert ("fsync", temp_inode) in events[: replaces[0]]
        assert os.stat(duplicated_store.path).st_ino == temp_inode


class TestCampaignGcCli:
    def test_gc_compacts_and_reports(self, duplicated_store, capsys):
        code = main(["campaign", "gc", "--store", duplicated_store.path, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows_dropped"] == 2
        assert report["bytes_reclaimed"] > 0
        assert len(duplicated_store.rows()) == 3

    def test_gc_dry_run_leaves_store_alone(self, duplicated_store, capsys):
        code = main(["campaign", "gc", "--store", duplicated_store.path, "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "would drop 2" in out
        assert len(duplicated_store.rows()) == 5

    def test_gc_missing_store_fails_clearly(self, tmp_path):
        with pytest.raises(SystemExit, match="no such store"):
            main(["campaign", "gc", "--store", str(tmp_path / "absent.jsonl")])
