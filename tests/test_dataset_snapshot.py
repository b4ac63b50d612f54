"""Unit tests for snapshot records."""

from __future__ import annotations

import pytest

from repro.dataset.snapshot import DirectoryRecord, FileRecord, FileSystemSnapshot


def _snapshot(hostname: str = "host-a") -> FileSystemSnapshot:
    snapshot = FileSystemSnapshot(hostname=hostname, capacity_bytes=1_000_000)
    snapshot.directories = [
        DirectoryRecord(directory_id=0, depth=0, subdirectory_count=2, file_count=1),
        DirectoryRecord(directory_id=1, depth=1, subdirectory_count=0, file_count=2),
        DirectoryRecord(directory_id=2, depth=1, subdirectory_count=0, file_count=0),
    ]
    snapshot.files = [
        FileRecord(size=100, depth=1, extension="txt", directory_id=0),
        FileRecord(size=2_000, depth=2, extension="jpg", directory_id=1),
        FileRecord(size=300, depth=2, extension="", directory_id=1),
    ]
    return snapshot


class TestRecords:
    def test_file_record_validation(self):
        with pytest.raises(ValueError):
            FileRecord(size=-1, depth=0, extension="a", directory_id=0)
        with pytest.raises(ValueError):
            FileRecord(size=1, depth=-1, extension="a", directory_id=0)

    def test_directory_record_validation(self):
        with pytest.raises(ValueError):
            DirectoryRecord(directory_id=0, depth=-1, subdirectory_count=0, file_count=0)
        with pytest.raises(ValueError):
            DirectoryRecord(directory_id=0, depth=0, subdirectory_count=-1, file_count=0)


class TestSnapshotAccessors:
    def test_counts_and_bytes(self):
        snapshot = _snapshot()
        assert snapshot.file_count == 3
        assert snapshot.directory_count == 3
        assert snapshot.used_bytes == 2_400

    def test_distribution_accessors(self):
        snapshot = _snapshot()
        assert snapshot.file_sizes() == [100, 2_000, 300]
        assert snapshot.file_depths() == [1, 2, 2]
        assert snapshot.directory_depths() == [0, 1, 1]
        assert snapshot.subdirectory_counts() == [2, 0, 0]
        assert snapshot.directory_file_counts() == [1, 2, 0]

    def test_extension_counts_use_null_bucket(self):
        counts = _snapshot().extension_counts()
        assert counts == {"txt": 1, "jpg": 1, "null": 1}

    def test_summary(self):
        summary = _snapshot().summary()
        assert summary["hostname"] == "host-a"
        assert summary["files"] == 3

    def test_iter_files(self):
        assert len(list(_snapshot().iter_files())) == 3

