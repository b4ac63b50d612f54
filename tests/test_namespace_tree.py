"""Unit tests for the in-memory file-system tree."""

from __future__ import annotations

import pytest

from repro.namespace.tree import FileSystemTree


@pytest.fixture
def sample_tree() -> FileSystemTree:
    r"""Small fixed tree::

        /
        ├── a/          (2 files)
        │   └── c/      (1 file)
        └── b/          (0 files)
    """
    tree = FileSystemTree()
    a = tree.create_directory(tree.root, name="a")
    b = tree.create_directory(tree.root, name="b")
    c = tree.create_directory(a, name="c")
    tree.create_file(a, size=100, extension="txt")
    tree.create_file(a, size=200, extension="jpg")
    tree.create_file(c, size=4000, extension="txt")
    assert b.file_count == 0
    return tree


class TestConstruction:
    def test_root_properties(self):
        tree = FileSystemTree()
        assert tree.root.depth == 0
        assert tree.root.parent is None
        assert tree.directory_count == 1
        assert tree.file_count == 0

    def test_create_directory_assigns_depth_and_parent(self, sample_tree):
        depths = {d.name: d.depth for d in sample_tree.directories}
        assert depths["a"] == 1
        assert depths["c"] == 2

    def test_create_file_assigns_ids_and_depth(self, sample_tree):
        files = sample_tree.files
        assert [f.file_id for f in files] == [0, 1, 2]
        assert files[2].depth == 3  # file inside /a/c

    def test_default_names_are_unique(self):
        tree = FileSystemTree()
        d = tree.create_directory(tree.root)
        names = {tree.create_file(d, size=1, extension="x").name for _ in range(50)}
        assert len(names) == 50

    def test_negative_file_size_rejected(self, sample_tree):
        with pytest.raises(ValueError):
            sample_tree.create_file(sample_tree.root, size=-1, extension="txt")

    def test_paths(self, sample_tree):
        paths = {f.extension: f.path() for f in sample_tree.files}
        assert paths["jpg"].startswith("/a/")
        directory_paths = {d.name: d.path() for d in sample_tree.directories if d.name}
        assert directory_paths["c"] == "/a/c"


class TestStatistics:
    def test_totals(self, sample_tree):
        assert sample_tree.file_count == 3
        assert sample_tree.directory_count == 4
        assert sample_tree.total_bytes == 4300
        assert sample_tree.max_depth() == 2

    def test_directories_by_depth(self, sample_tree):
        assert sample_tree.directories_by_depth() == {0: 1, 1: 2, 2: 1}

    def test_subdir_and_file_counts(self, sample_tree):
        assert sorted(sample_tree.directory_subdir_counts()) == [0, 0, 1, 2]
        assert sorted(sample_tree.directory_file_counts()) == [0, 0, 1, 2]

    def test_files_by_depth(self, sample_tree):
        assert sample_tree.files_by_depth() == {2: 2, 3: 1}

    def test_extension_counts(self, sample_tree):
        assert sample_tree.extension_counts() == {"txt": 2, "jpg": 1}

    def test_extensionless_files_counted_as_null(self):
        tree = FileSystemTree()
        tree.create_file(tree.root, size=10, extension="")
        assert tree.extension_counts() == {"null": 1}

    def test_summary(self, sample_tree):
        summary = sample_tree.summary()
        assert summary["files"] == 3
        assert summary["mean_file_size"] == pytest.approx(4300 / 3)

    def test_directories_at_depth(self, sample_tree):
        assert {d.name for d in sample_tree.directories_at_depth(1)} == {"a", "b"}
        assert sample_tree.directories_at_depth(5) == []


class TestTraversal:
    def test_depth_first_preorder(self, sample_tree):
        names = [d.name for d in sample_tree.walk_depth_first()]
        assert names[0] == ""  # root first
        assert names.index("a") < names.index("c")  # parent before child

    def test_walk_visits_every_directory_once(self, sample_tree):
        visited = list(sample_tree.walk_depth_first())
        assert len(visited) == sample_tree.directory_count
        assert len(set(id(d) for d in visited)) == sample_tree.directory_count

    def test_iter_files_covers_all(self, sample_tree):
        assert len(list(sample_tree.iter_files())) == 3
