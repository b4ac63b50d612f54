"""Unit tests for the materialization sinks (repro.materialize)."""

from __future__ import annotations

import json
import os
import tarfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content.generators import ContentPolicy
from repro.core.config import ImpressionsConfig
from repro.core.image import FileSystemImage
from repro.core.impressions import Impressions
from repro.layout.disk import SimulatedDisk
from repro.materialize import (
    MATERIALIZE_FORMAT_VERSION,
    DirectorySink,
    FileStream,
    ManifestSink,
    MaterializeError,
    NullSink,
    TarSink,
    build_sink,
    derived_directory_times,
    materialize_image,
    ordered_files,
)
from repro.materialize.base import _directory_header_bytes
from repro.metadata.timestamps import FileTimestamps, TimestampModel
from repro.namespace.tree import FileNode, FileSystemTree


def legacy_materialize(image: FileSystemImage, root_path: str, write_content: bool) -> int:
    """The pre-refactor monolithic materializer, verbatim (the golden oracle)."""
    os.makedirs(root_path, exist_ok=True)
    for directory in image.tree.walk_depth_first():
        os.makedirs(os.path.join(root_path, directory.path().lstrip("/")), exist_ok=True)
    written = 0
    for file_node in image.tree.files:
        path = os.path.join(root_path, file_node.path().lstrip("/"))
        if write_content:
            rng = np.random.default_rng((image.content_seed, file_node.file_id))
            with open(path, "wb") as handle:
                for chunk in image.content_generator.iter_chunks(
                    file_node.size, file_node.extension, rng
                ):
                    handle.write(chunk)
        else:
            with open(path, "wb") as handle:
                if file_node.size:
                    handle.seek(file_node.size - 1)
                    handle.write(b"\0")
        if file_node.timestamps is not None:
            os.utime(path, (file_node.timestamps.accessed, file_node.timestamps.modified))
        written += 1
    return written


def tree_bytes(root: str) -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    for current, directories, files in os.walk(root):
        rel = os.path.relpath(current, root)
        out[rel + "/"] = b""
        for name in files:
            path = os.path.join(current, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


@pytest.fixture(scope="module")
def timestamp_image():
    config = ImpressionsConfig(
        fs_size_bytes=4 * 1024 * 1024,
        num_files=80,
        num_directories=20,
        seed=5,
        timestamp_model=TimestampModel(),
        timestamp_now=1_700_000_000.0,
    )
    return Impressions(config).generate()


class TestDirectorySink:
    def test_facade_byte_identical_to_legacy(self, content_image, tmp_path):
        """The extracted DirectorySink reproduces the monolith byte for byte."""
        legacy_materialize(content_image, str(tmp_path / "legacy"), write_content=True)
        content_image.materialize(str(tmp_path / "facade"))
        assert tree_bytes(str(tmp_path / "legacy")) == tree_bytes(str(tmp_path / "facade"))

    def test_facade_metadata_only_identical(self, small_image, tmp_path):
        legacy_materialize(small_image, str(tmp_path / "legacy"), write_content=False)
        small_image.materialize(str(tmp_path / "facade"))
        assert tree_bytes(str(tmp_path / "legacy")) == tree_bytes(str(tmp_path / "facade"))

    def test_parallel_jobs_identical_output_and_digest(self, content_image, tmp_path):
        serial = materialize_image(content_image, DirectorySink(str(tmp_path / "serial")))
        parallel = materialize_image(
            content_image, DirectorySink(str(tmp_path / "parallel"), jobs=2)
        )
        assert tree_bytes(str(tmp_path / "serial")) == tree_bytes(str(tmp_path / "parallel"))
        assert parallel.content_digest == serial.content_digest
        assert parallel.extras["jobs"] == 2

    def test_result_counts_and_phases(self, small_image, tmp_path):
        result = materialize_image(small_image, DirectorySink(str(tmp_path / "img")))
        assert result.files == small_image.file_count
        assert result.directories == small_image.directory_count
        assert result.total_bytes == small_image.total_bytes
        assert result.path == str(tmp_path / "img")
        assert set(result.phase_seconds) == {"begin", "directories", "files", "finalize"}
        assert result.seconds >= 0.0

    def test_jobs_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            DirectorySink(str(tmp_path), jobs=0)

    def test_file_timestamps_applied(self, timestamp_image, tmp_path):
        timestamp_image.materialize(str(tmp_path / "img"))
        probe = timestamp_image.tree.files[0]
        mtime = os.path.getmtime(str(tmp_path / "img" / probe.path().lstrip("/")))
        assert mtime == pytest.approx(probe.timestamps.modified, abs=1.0)


class TestDirectoryTimestampBugfix:
    def test_directory_mtimes_derived_from_subtree(self, timestamp_image, tmp_path):
        """Regression: directories get utime'd (deepest first) after children.

        The legacy materializer never touched directory timestamps, so every
        directory carried the wall-clock time of the run and file creation
        clobbered any parent mtime.  Now each timestamped directory's mtime
        equals the max modified time over its subtree's files.
        """
        root = str(tmp_path / "img")
        timestamp_image.materialize(root)
        rows = derived_directory_times(timestamp_image.tree)
        assert rows, "timestamped image must yield derived directory times"
        for _, dirpath, (accessed, modified) in rows:
            host = os.path.join(root, dirpath.lstrip("/") or ".")
            assert os.path.getmtime(host) == pytest.approx(modified, abs=1.0), dirpath
            assert os.path.getatime(host) == pytest.approx(accessed, abs=1.0), dirpath

    def test_derived_times_deepest_first_and_monotone(self, timestamp_image):
        rows = derived_directory_times(timestamp_image.tree)
        depths = [depth for depth, _, _ in rows]
        assert depths == sorted(depths, reverse=True)
        by_path = {path: times for _, path, times in rows}
        for _, path, (accessed, modified) in rows:
            parent = path.rsplit("/", 1)[0] or "/"
            if parent in by_path:
                assert by_path[parent][0] >= accessed
                assert by_path[parent][1] >= modified

    def test_no_timestamps_no_directory_rows(self, small_image):
        assert derived_directory_times(small_image.tree) == []


class TestTarSink:
    def test_archive_members_match_tree(self, content_image, tmp_path):
        archive = str(tmp_path / "img.tar")
        result = materialize_image(content_image, TarSink(archive))
        with tarfile.open(archive) as tar:
            members = tar.getmembers()
            by_name = {member.name.rstrip("/"): member for member in members}
            probe = content_image.tree.files[0]
            extracted = tar.extractfile(by_name[probe.path().lstrip("/")]).read()
        # Every directory except the implicit root, plus every file.
        assert len(members) == content_image.file_count + content_image.directory_count - 1
        assert len(extracted) == probe.size
        assert extracted == content_image.file_content(probe)
        assert result.extras["archive_bytes"] == os.path.getsize(archive)
        assert result.extras["compressed"] is False

    def test_gzip_archive_deterministic(self, content_image, tmp_path):
        first = materialize_image(content_image, TarSink(str(tmp_path / "a.tar.gz")))
        second = materialize_image(content_image, TarSink(str(tmp_path / "b.tar.gz")))
        assert first.extras["compressed"] is True
        assert first.extras["archive_sha256"] == second.extras["archive_sha256"]
        with open(str(tmp_path / "a.tar.gz"), "rb") as a, open(
            str(tmp_path / "b.tar.gz"), "rb"
        ) as b:
            assert a.read() == b.read()

    def test_content_digest_matches_directory_sink(self, content_image, tmp_path):
        tar_result = materialize_image(content_image, TarSink(str(tmp_path / "img.tar")))
        dir_result = materialize_image(content_image, DirectorySink(str(tmp_path / "img")))
        assert tar_result.content_digest == dir_result.content_digest

    def test_metadata_only_zero_payload(self, small_image, tmp_path):
        archive = str(tmp_path / "img.tar")
        materialize_image(small_image, TarSink(archive))
        with tarfile.open(archive) as tar:
            probe = next(f for f in small_image.tree.files if f.size)
            data = tar.extractfile(probe.path().lstrip("/")).read()
        assert data == b"\0" * probe.size

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_content_of_the_wrong_length_is_not_an_io_failure(
        self, content_image, tmp_path, monkeypatch, delta
    ):
        """A generator that disagrees with ``node.size`` is a program fault:
        it raises MaterializeError itself, never the retryable SinkWriteError,
        and the partial archive is removed."""

        def wrong_length(stream):
            yield b"x" * (stream.node.size + delta)

        monkeypatch.setattr(FileStream, "content_chunks", wrong_length)
        archive = str(tmp_path / "img.tar")
        with pytest.raises(MaterializeError) as excinfo:
            materialize_image(content_image, TarSink(archive))
        assert type(excinfo.value) is MaterializeError
        assert not os.path.exists(archive)

    def test_timestamped_entries_carry_model_mtimes(self, timestamp_image, tmp_path):
        archive = str(tmp_path / "img.tar")
        materialize_image(timestamp_image, TarSink(archive))
        with tarfile.open(archive) as tar:
            probe = timestamp_image.tree.files[0]
            info = tar.getmember(probe.path().lstrip("/"))
            assert info.mtime == int(probe.timestamps.modified)


class TestGoldenTarDigest:
    #: SHA-256 of the .tar produced for the seeded golden image below — pins
    #: the whole export stack (tree generation, entry ordering, tar headers).
    #: Recompute with tests/test_materialize_sinks.py::TestGoldenTarDigest
    #: when the materialize format version changes.
    GOLDEN_SHA256 = "d6068cca4162c979351efa1d743be03055bcfd875d3834616a3090b6acbf5541"

    @staticmethod
    def golden_image() -> FileSystemImage:
        config = ImpressionsConfig(
            fs_size_bytes=2 * 1024 * 1024, num_files=40, num_directories=10, seed=13
        )
        return Impressions(config).generate()

    def test_seeded_image_digest_pinned(self, tmp_path):
        result = materialize_image(self.golden_image(), TarSink(str(tmp_path / "golden.tar")))
        assert result.extras["archive_sha256"] == self.GOLDEN_SHA256

    def test_two_generations_identical(self, tmp_path):
        first = materialize_image(self.golden_image(), TarSink(str(tmp_path / "a.tar")))
        second = materialize_image(self.golden_image(), TarSink(str(tmp_path / "b.tar")))
        assert first.extras["archive_sha256"] == second.extras["archive_sha256"]
        assert first.content_digest == second.content_digest


class TestGoldenContentTarDigest:
    #: SHA-256 of the archives for a seeded content image with one text file
    #: over 1 MiB, so that file streams as several content chunks.  Pins the
    #: regular-file header, the chunked payload and its block padding, and
    #: (for .tar.gz) the gzip stream over them.
    GOLDEN_SHA256 = {
        "tar": "4168de07d19fa0c34f4d3902970b74ea4528e03bcc23d4c1116b4eba6b62ecb6",
        "tar.gz": "20682bd75e0c33de29b898174ed43a5098050e853897a8aedea0eb43b208ce39",
    }

    @pytest.fixture(scope="class")
    def image(self) -> FileSystemImage:
        config = ImpressionsConfig(
            fs_size_bytes=8 * 1024 * 1024,
            num_files=30,
            num_directories=8,
            seed=13,
            generate_content=True,
            content=ContentPolicy(text_model="hybrid"),
        )
        return Impressions(config).generate()

    def test_image_has_a_multi_chunk_file(self, image):
        assert max(node.size for node in image.tree.files) > 1 << 20

    @pytest.mark.parametrize("suffix", sorted(GOLDEN_SHA256))
    def test_seeded_content_archive_pinned(self, image, tmp_path, suffix):
        result = materialize_image(image, TarSink(str(tmp_path / f"golden.{suffix}")))
        assert result.write_content is True
        assert result.extras["archive_sha256"] == self.GOLDEN_SHA256[suffix]


class TestManifestSink:
    def test_manifest_lines(self, small_image, tmp_path):
        path = str(tmp_path / "img.jsonl")
        result = materialize_image(small_image, ManifestSink(path))
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        header, entries = lines[0], lines[1:]
        assert header["type"] == "header"
        assert header["files"] == small_image.file_count
        assert header["directories"] == small_image.directory_count
        assert result.extras["lines"] == len(lines)
        files = [entry for entry in entries if entry["type"] == "file"]
        dirs = [entry for entry in entries if entry["type"] == "dir"]
        assert len(files) == small_image.file_count
        assert len(dirs) == small_image.directory_count
        probe = small_image.tree.files[0]
        row = next(entry for entry in files if entry["file_id"] == probe.file_id)
        assert row["size"] == probe.size
        assert row["path"] == probe.path().lstrip("/")
        assert row["extents"] == [list(extent) for extent in probe.extents]

    def test_manifest_never_generates_content(self, content_image, tmp_path):
        """writes_content=False downgrades the plan: huge images stay cheap."""
        result = materialize_image(content_image, ManifestSink(str(tmp_path / "m.jsonl")))
        assert result.write_content is False

    def test_digest_content_rows(self, content_image, tmp_path):
        import hashlib

        path = str(tmp_path / "digests.jsonl")
        materialize_image(content_image, ManifestSink(path, digest_content=True))
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0]["digest_content"] is True
        files = [entry for entry in lines[1:] if entry["type"] == "file"]
        assert all("content_sha256" in row for row in files)
        # Spot-check one row against the chunked content stream the sink hashed.
        probe = content_image.tree.files[0]
        row = next(entry for entry in files if entry["file_id"] == probe.file_id)
        rng = np.random.default_rng((content_image.content_seed, probe.file_id))
        digest = hashlib.sha256()
        for chunk in content_image.content_generator.iter_chunks(
            probe.size, probe.extension, rng
        ):
            digest.update(chunk)
        assert row["content_sha256"] == digest.hexdigest()

    def test_digest_content_is_path_independent(self, content_image, tmp_path):
        """The content hash covers bytes only — rows from differently named
        trees with the same content compare equal (the shard-merge reuse)."""
        path = str(tmp_path / "digests.jsonl")
        materialize_image(content_image, ManifestSink(path, digest_content=True))
        with open(path, "r", encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle][1:]
        by_path = {row["path"]: row for row in rows if row["type"] == "file"}
        # Entry digest covers the path; content digest must not.
        probe = content_image.tree.files[0]
        row = by_path[probe.path().lstrip("/")]
        assert row["digest"] != row["content_sha256"]

    def test_digest_content_default_off(self, content_image, tmp_path):
        path = str(tmp_path / "plain.jsonl")
        materialize_image(content_image, ManifestSink(path))
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0]["digest_content"] is False
        assert all("content_sha256" not in row for row in lines[1:])

    def test_digest_content_requires_content_image(self, small_image, tmp_path):
        sink = ManifestSink(str(tmp_path / "m.jsonl"), digest_content=True)
        with pytest.raises(MaterializeError, match="metadata-only"):
            materialize_image(small_image, sink)

    def test_build_sink_digest_content(self, tmp_path):
        sink = build_sink("manifest", str(tmp_path / "m.jsonl"), digest_content=True)
        assert isinstance(sink, ManifestSink)
        assert sink.digest_content is True
        with pytest.raises(MaterializeError, match="manifest-sink option"):
            build_sink("tar", str(tmp_path / "a.tar"), digest_content=True)


class TestNullSink:
    def test_digest_matches_directory_sink(self, content_image, tmp_path):
        null_result = materialize_image(content_image, NullSink())
        dir_result = materialize_image(content_image, DirectorySink(str(tmp_path / "img")))
        assert null_result.content_digest == dir_result.content_digest
        assert null_result.path is None

    def test_metadata_only_digest_differs_from_content(self, content_image):
        with_content = materialize_image(content_image, NullSink())
        without = materialize_image(content_image, NullSink(), write_content=False)
        assert with_content.content_digest != without.content_digest

    def test_content_without_generator_rejected(self, small_image):
        with pytest.raises(MaterializeError):
            materialize_image(small_image, NullSink(), write_content=True)


def synthetic_fragmented_image() -> FileSystemImage:
    """A hand-built image whose disk order deliberately inverts file order."""
    tree = FileSystemTree()
    disk = SimulatedDisk(num_blocks=1024)
    nodes = [tree.create_file(tree.root, size=4096, extension="txt") for _ in range(4)]
    for node in reversed(nodes):  # allocate last file first: inverse layout
        node.extents = disk.allocate_extents(node.path(), node.size)
        node.first_block = node.extents[0][0]
    return FileSystemImage(tree=tree, disk=disk)


class TestOrderingPolicies:
    def test_extent_order_sorts_by_first_block(self):
        image = synthetic_fragmented_image()
        namespace = [node.file_id for node in ordered_files(image, "namespace")]
        extent = [node.file_id for node in ordered_files(image, "extent")]
        assert namespace == [0, 1, 2, 3]
        assert extent == [3, 2, 1, 0]

    def test_extent_order_streams_sinks_in_disk_order(self, tmp_path):
        image = synthetic_fragmented_image()
        archive = str(tmp_path / "img.tar")
        materialize_image(image, TarSink(archive), order="extent")
        with tarfile.open(archive) as tar:
            file_names = [m.name for m in tar.getmembers() if m.isfile()]
        assert file_names == [node.path().lstrip("/") for node in ordered_files(image, "extent")]

    def test_extent_order_digest_equals_namespace_order(self, tmp_path):
        """The combined digest is order-independent by construction."""
        image = synthetic_fragmented_image()
        one = materialize_image(image, NullSink(), order="extent")
        two = materialize_image(image, NullSink(), order="namespace")
        assert one.content_digest == two.content_digest

    def test_extent_order_without_disk_rejected(self):
        image = FileSystemImage(tree=FileSystemTree())
        with pytest.raises(MaterializeError):
            ordered_files(image, "extent")

    def test_unknown_order_rejected(self, small_image):
        with pytest.raises(MaterializeError):
            materialize_image(small_image, NullSink(), order="bogus")


class TestFileStream:
    def test_double_consume_rejected(self, content_image):
        node = content_image.tree.files[0]
        stream = FileStream(content_image, node, node.path().lstrip("/"), True)
        list(stream.chunks())
        with pytest.raises(MaterializeError):
            list(stream.chunks())

    def test_partial_consume_detected(self, content_image):
        node = next(f for f in content_image.tree.files if f.size > 0)
        stream = FileStream(content_image, node, node.path().lstrip("/"), True)
        next(stream.chunks())
        with pytest.raises(MaterializeError):
            stream.ensure_digest()

    def test_digest_same_consumed_or_lazy(self, content_image):
        node = content_image.tree.files[0]
        consumed = FileStream(content_image, node, node.path().lstrip("/"), True)
        list(consumed.chunks())
        lazy = FileStream(content_image, node, node.path().lstrip("/"), True)
        assert consumed.ensure_digest() == lazy.ensure_digest()

    @settings(max_examples=300, deadline=None)
    @given(
        relpath=st.text(max_size=40),
        extension=st.text(max_size=8),
        size=st.integers(0, 2**63),
        stamps=st.none()
        | st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=3, max_size=3
        ).map(sorted),
    )
    def test_header_bytes_are_canonical_json(self, relpath, extension, size, stamps):
        node = FileNode(name="f", size=size, extension=extension, depth=1)
        node.timestamps = None if stamps is None else FileTimestamps(*stamps)
        header = {
            "format": MATERIALIZE_FORMAT_VERSION,
            "path": relpath,
            "size": size,
            "extension": extension,
            "timestamps": stamps,
        }
        expected = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert FileStream(None, node, relpath, False).header_bytes() == expected

    @settings(max_examples=300, deadline=None)
    @given(relpath=st.text(max_size=40))
    def test_directory_header_bytes_are_canonical_json(self, relpath):
        header = {"format": MATERIALIZE_FORMAT_VERSION, "dir": relpath}
        expected = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert _directory_header_bytes(relpath) == expected


class TestBuildSink:
    def test_spellings(self, tmp_path):
        assert isinstance(build_sink("null"), NullSink)
        assert isinstance(build_sink("dir", str(tmp_path / "d"), jobs=3), DirectorySink)
        assert isinstance(build_sink("tar", str(tmp_path / "a.tar")), TarSink)
        assert isinstance(build_sink("manifest", str(tmp_path / "m.jsonl")), ManifestSink)

    def test_path_required(self):
        with pytest.raises(MaterializeError):
            build_sink("dir")

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(MaterializeError):
            build_sink("zip", str(tmp_path / "x"))
