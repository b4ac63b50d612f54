"""File-system snapshot records.

A snapshot is what a metadata crawler (like the one behind the five-year
Windows study) records for one machine: one :class:`FileRecord` per file and
one :class:`DirectoryRecord` per directory, with no file content.  Snapshots
are the input to the analysis in :mod:`repro.dataset.study` and the output of
the synthetic corpus builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["FileRecord", "DirectoryRecord", "FileSystemSnapshot"]


@dataclass(frozen=True)
class FileRecord:
    """Metadata of one file as recorded by a crawler."""

    size: int
    depth: int
    extension: str
    directory_id: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("file size must be non-negative")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")


@dataclass(frozen=True)
class DirectoryRecord:
    """Metadata of one directory as recorded by a crawler."""

    directory_id: int
    depth: int
    subdirectory_count: int
    file_count: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if self.subdirectory_count < 0 or self.file_count < 0:
            raise ValueError("counts must be non-negative")


@dataclass
class FileSystemSnapshot:
    """One crawled file system: its files, directories and capacity."""

    hostname: str
    capacity_bytes: int
    files: list[FileRecord] = field(default_factory=list)
    directories: list[DirectoryRecord] = field(default_factory=list)

    @property
    def file_count(self) -> int:
        return len(self.files)

    @property
    def directory_count(self) -> int:
        return len(self.directories)

    @property
    def used_bytes(self) -> int:
        return sum(record.size for record in self.files)

    def file_sizes(self) -> list[int]:
        return [record.size for record in self.files]

    def file_depths(self) -> list[int]:
        return [record.depth for record in self.files]

    def directory_depths(self) -> list[int]:
        return [record.depth for record in self.directories]

    def subdirectory_counts(self) -> list[int]:
        return [record.subdirectory_count for record in self.directories]

    def directory_file_counts(self) -> list[int]:
        return [record.file_count for record in self.directories]

    def extension_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.files:
            key = record.extension or "null"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def iter_files(self) -> Iterator[FileRecord]:
        return iter(self.files)

    def summary(self) -> dict:
        return {
            "hostname": self.hostname,
            "capacity_bytes": self.capacity_bytes,
            "files": self.file_count,
            "directories": self.directory_count,
            "used_bytes": self.used_bytes,
        }

