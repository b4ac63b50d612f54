"""SparseTarSink: GNU sparse archives that scale with file count, not bytes."""

from __future__ import annotations

import os
import tarfile

import pytest

from repro.core.config import ImpressionsConfig
from repro.core.image import FileSystemImage
from repro.core.impressions import Impressions
from repro.materialize import (
    SparseTarSink,
    TarSink,
    build_sink,
    materialize_image,
)
from repro.metadata.timestamps import TimestampModel
from repro.namespace.tree import FileSystemTree


def golden_image() -> FileSystemImage:
    config = ImpressionsConfig(
        fs_size_bytes=2 * 1024 * 1024, num_files=40, num_directories=10, seed=13
    )
    return Impressions(config).generate()


def deep_image():
    """A 12-level tree whose paths pass the 100-byte header name field."""
    tree = FileSystemTree()
    deep = tree.root
    for index in range(12):
        deep = tree.create_directory(deep, name=f"directory-{index:04d}-padding")
    node = tree.create_file(deep, size=4096, extension="txt")
    return FileSystemImage(tree=tree), node


class TestSparseTarRoundTrip:
    def test_tarfile_reads_members_with_apparent_sizes(self, small_image, tmp_path):
        """Python's tarfile understands the oldgnu sparse members we write."""
        archive = str(tmp_path / "img.tar")
        result = materialize_image(small_image, SparseTarSink(archive))
        with tarfile.open(archive) as tar:
            members = tar.getmembers()
            by_name = {member.name.rstrip("/"): member for member in members}
            for node in small_image.tree.files:
                info = by_name[node.path().lstrip("/")]
                # tarfile reports the *apparent* size for sparse members.
                assert info.size == node.size
                assert info.issparse() == (node.size > 0)
        assert len(members) == small_image.file_count + small_image.directory_count - 1
        assert result.extras["sparse_members"] == sum(
            1 for node in small_image.tree.files if node.size
        )
        assert result.extras["apparent_bytes"] == small_image.total_bytes

    def test_extracted_bytes_match_directory_sink_sparse_files(
        self, small_image, tmp_path
    ):
        """Extraction reproduces DirectorySink's metadata-only files exactly:
        all zeros at the full apparent size (the hole plus the final byte)."""
        archive = str(tmp_path / "img.tar")
        materialize_image(small_image, SparseTarSink(archive))
        with tarfile.open(archive) as tar:
            probe = max(small_image.tree.files, key=lambda node: node.size)
            data = tar.extractfile(probe.path().lstrip("/")).read()
        assert len(data) == probe.size
        assert data == b"\0" * probe.size

    def test_archive_is_small_relative_to_apparent_bytes(self, small_image, tmp_path):
        """The whole point: archived bytes track file count, not image size."""
        sparse = str(tmp_path / "sparse.tar")
        dense = str(tmp_path / "dense.tar")
        result = materialize_image(small_image, SparseTarSink(sparse))
        materialize_image(small_image, TarSink(dense))
        assert result.extras["archive_bytes"] < os.path.getsize(dense)
        # Headers + one 512-byte data block per file, padded to the record
        # size — nowhere near the image's nominal bytes.
        assert result.extras["archive_bytes"] < small_image.total_bytes

    def test_plan_is_downgraded_to_metadata_only(self, content_image, tmp_path):
        result = materialize_image(
            content_image, SparseTarSink(str(tmp_path / "img.tar"))
        )
        assert result.write_content is False

    def test_timestamped_entries_carry_model_mtimes(self, tmp_path):
        config = ImpressionsConfig(
            fs_size_bytes=4 * 1024 * 1024,
            num_files=80,
            num_directories=20,
            seed=5,
            timestamp_model=TimestampModel(),
            timestamp_now=1_700_000_000.0,
        )
        image = Impressions(config).generate()
        archive = str(tmp_path / "img.tar")
        materialize_image(image, SparseTarSink(archive))
        with tarfile.open(archive) as tar:
            probe = image.tree.files[0]
            info = tar.getmember(probe.path().lstrip("/"))
            assert info.mtime == int(probe.timestamps.modified)

    @pytest.mark.parametrize("kind", ["tar", "sparse-tar"])
    def test_pre_epoch_mtimes_use_base_256_fields(self, tmp_path, kind):
        """Negative mtimes are written as GNU base-256 numbers, as tarfile
        writes them, by both tar sinks."""
        config = ImpressionsConfig(
            fs_size_bytes=4 * 1024 * 1024,
            num_files=80,
            num_directories=20,
            seed=5,
            timestamp_model=TimestampModel(),
            timestamp_now=1000.0,
        )
        image = Impressions(config).generate()
        probe = min(image.tree.files, key=lambda node: node.timestamps.modified)
        assert probe.timestamps.modified < 0
        archive = str(tmp_path / "img.tar")
        materialize_image(image, build_sink(kind, archive))
        with tarfile.open(archive) as tar:
            info = tar.getmember(probe.path().lstrip("/"))
            assert info.mtime == int(probe.timestamps.modified)

    def test_gnu_tar_can_list_the_archive_if_available(self, small_image, tmp_path):
        import shutil
        import subprocess

        if shutil.which("tar") is None:
            pytest.skip("no tar binary on PATH")
        archive = str(tmp_path / "img.tar")
        materialize_image(small_image, SparseTarSink(archive))
        listing = subprocess.run(
            ["tar", "-tf", archive], capture_output=True, text=True
        )
        if listing.returncode != 0:  # non-GNU tar may lack sparse support
            pytest.skip(f"tar cannot read GNU sparse members: {listing.stderr}")
        names = set(listing.stdout.splitlines())
        probe = small_image.tree.files[0]
        assert probe.path().lstrip("/") in names


class TestSparseTarDeterminism:
    #: SHA-256 of the sparse .tar for the seeded golden image — pins header
    #: layout, sparse maps, entry ordering, and padding.  Recompute with this
    #: test when the materialize format version changes.
    GOLDEN_SHA256 = "ae53ab0497f3152021f80184e6ec03c795ef94673b1ca13a676b829a9ff61ff5"

    def test_seeded_image_digest_pinned(self, tmp_path):
        result = materialize_image(golden_image(), SparseTarSink(str(tmp_path / "g.tar")))
        assert result.extras["archive_sha256"] == self.GOLDEN_SHA256

    def test_two_generations_identical(self, tmp_path):
        first = materialize_image(golden_image(), SparseTarSink(str(tmp_path / "a.tar")))
        second = materialize_image(golden_image(), SparseTarSink(str(tmp_path / "b.tar")))
        assert first.extras["archive_sha256"] == second.extras["archive_sha256"]
        with open(str(tmp_path / "a.tar"), "rb") as a, open(
            str(tmp_path / "b.tar"), "rb"
        ) as b:
            assert a.read() == b.read()

    def test_gzip_variant_deterministic(self, tmp_path):
        first = materialize_image(
            golden_image(), SparseTarSink(str(tmp_path / "a.tar.gz"))
        )
        second = materialize_image(
            golden_image(), SparseTarSink(str(tmp_path / "b.tar.gz"))
        )
        assert first.extras["compressed"] is True
        assert first.extras["archive_sha256"] == second.extras["archive_sha256"]


class TestBuildSinkSpelling:
    def test_sparse_tar_spelling(self, tmp_path):
        sink = build_sink("sparse-tar", str(tmp_path / "a.tar"))
        assert isinstance(sink, SparseTarSink)

    def test_long_paths_round_trip_via_longname_members(self, tmp_path):
        """Names past the 100-byte header field use GNU 'L' longname entries."""
        image, node = deep_image()
        archive = str(tmp_path / "deep.tar")
        materialize_image(image, SparseTarSink(archive))
        expected = node.path().lstrip("/")
        assert len(expected) > 100
        with tarfile.open(archive) as tar:
            info = tar.getmember(expected)
            assert info.size == node.size


class TestLongPathTarDigests:
    #: SHA-256 of each tar sink's archive of :func:`deep_image`: pins the
    #: ``././@LongLink`` members (header fields, name payload, padding) that
    #: directories and files past 100 bytes are written with.
    GOLDEN_SHA256 = {
        ("tar", "tar"): "b94caa2cf2a6274533ef772e5fd653ff831f7c58d7c4b028c42d4c7f33de7ead",
        ("tar", "tar.gz"): "31dafba700fbb45d6d28194a50bfc1b82a4b42c8630713f289f3e58aa35232ef",
        ("sparse-tar", "tar"): "e69620c0a894e3b5b828245ac4dd1466cb8d6bf8faa8edcea29188b391748e54",
        ("sparse-tar", "tar.gz"): "598a14ec40c28b37822fb579f1d7a742147254f51d6841e8c96dcaf88970723f",
    }

    @pytest.mark.parametrize("kind,suffix", sorted(GOLDEN_SHA256))
    def test_long_path_archive_pinned(self, tmp_path, kind, suffix):
        image, _ = deep_image()
        sink = build_sink(kind, str(tmp_path / f"deep.{suffix}"))
        result = materialize_image(image, sink)
        assert result.extras["archive_sha256"] == self.GOLDEN_SHA256[(kind, suffix)]
