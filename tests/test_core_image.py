"""Unit tests for FileSystemImage (summary, content lookup, materialisation)."""

from __future__ import annotations

import os

import pytest

from repro.core.image import FileSystemImage
from repro.namespace.tree import FileNode, FileSystemTree


class TestSummary:
    def test_summary_fields(self, small_image):
        summary = small_image.summary()
        assert summary["files"] == small_image.file_count
        assert summary["directories"] == small_image.directory_count
        assert summary["total_bytes"] == small_image.total_bytes
        assert summary["layout_score"] == pytest.approx(1.0)
        assert summary["content"] == "metadata only"

    def test_content_label_when_enabled(self, content_image):
        assert content_image.summary()["content"] == "hybrid"

    def test_layout_score_without_disk(self):
        image = FileSystemImage(tree=FileSystemTree())
        assert image.achieved_layout_score() == 1.0


class TestContentAccess:
    def test_metadata_only_image_has_no_content(self, small_image):
        with pytest.raises(RuntimeError):
            small_image.file_content(small_image.tree.files[0])

    def test_foreign_file_rejected(self, content_image):
        foreign = FileNode(name="x", size=10, extension="txt", depth=1)
        with pytest.raises(ValueError):
            content_image.file_content(foreign)


class TestMaterialisation:
    def test_metadata_only_materialisation(self, small_image, tmp_path):
        target = tmp_path / "image"
        written = small_image.materialize(str(target))
        assert written == small_image.file_count
        # Spot-check a few files: they exist with the right apparent size.
        for file_node in small_image.tree.files[:10]:
            path = target / file_node.path().lstrip("/")
            assert path.exists()
            assert path.stat().st_size == file_node.size

    def test_directories_materialised(self, small_image, tmp_path):
        target = tmp_path / "image"
        small_image.materialize(str(target))
        for directory in small_image.tree.directories[:20]:
            assert (target / directory.path().lstrip("/")).is_dir()

    def test_content_materialisation_writes_real_bytes(self, content_image, tmp_path):
        target = tmp_path / "content-image"
        written = content_image.materialize(str(target), write_content=True)
        assert written == content_image.file_count
        checked = 0
        for file_node in content_image.tree.files:
            if 0 < file_node.size <= 65_536:
                path = target / file_node.path().lstrip("/")
                data = path.read_bytes()
                assert len(data) == file_node.size
                checked += 1
            if checked >= 5:
                break
        assert checked > 0

    def test_content_requested_without_generator_rejected(self, small_image, tmp_path):
        with pytest.raises(RuntimeError):
            small_image.materialize(str(tmp_path / "x"), write_content=True)

    def test_materialisation_is_idempotent(self, small_image, tmp_path):
        target = str(tmp_path / "image")
        small_image.materialize(target)
        written = small_image.materialize(target)
        assert written == small_image.file_count

    def test_materialised_tree_matches_os_walk(self, small_image, tmp_path):
        target = tmp_path / "image"
        small_image.materialize(str(target))
        file_count = sum(len(files) for _, _, files in os.walk(target))
        assert file_count == small_image.file_count
