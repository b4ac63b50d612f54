"""In-memory file-system tree model.

A :class:`FileSystemTree` holds the namespace being generated: a root
:class:`DirectoryNode`, its recursive children, and :class:`FileNode` leaves.
The tree supports the statistics all the accuracy figures need (directories by
depth, directories by subdirectory count, files by depth, bytes by depth,
directory file counts) and can walk itself in the orders the workload
simulators use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["FileNode", "DirectoryNode", "FileSystemTree"]


@dataclass(eq=False)
class FileNode:
    """A single file in the namespace.

    Attributes:
        name: file name (without directory components).
        size: logical size in bytes.
        extension: extension without the leading dot (``"txt"``), or ``""``
            for extensionless files (the dataset's ``null`` bucket).
        depth: namespace depth of the file (root directory is depth 0, a file
            directly inside the root has depth 1).
        parent: the containing directory.
        content_kind: coarse content class (``text``, ``binary``, ``image``,
            ...) assigned by the content stage; used by the search workloads.
        file_id: index of the file within its image (stable across the
            image's lifetime; used to seed per-file content).
        first_block: first block number assigned by the layout stage, or None
            before layout.
        extents: ``(start, length)`` runs of contiguous blocks assigned on the
            simulated disk, in logical (file offset) order.
    """

    name: str
    size: int
    extension: str
    depth: int
    parent: "DirectoryNode | None" = None
    content_kind: str = "binary"
    file_id: int = -1
    first_block: int | None = None
    extents: list[tuple[int, int]] = field(default_factory=list)
    #: optional (created, modified, accessed) POSIX timestamps assigned by the
    #: timestamp model; None when timestamps were not requested.
    timestamps: object | None = None
    #: optional explicit content seed pair ``(content_seed, file_id)``.  Files
    #: normally derive their bytes from the owning image's content seed and
    #: their own ``file_id``; a file adopted from another image (shard merge)
    #: pins the pair it was generated under here so its bytes survive the
    #: re-numbering.
    content_key: tuple[int, int] | None = None

    @property
    def block_count(self) -> int:
        """Number of blocks assigned on the simulated disk (O(1) in extents)."""
        return sum(length for _, length in self.extents)

    def path(self) -> str:
        """Full path from the root, ``/`` separated."""
        if self.parent is None:
            return "/" + self.name
        return self.parent.path().rstrip("/") + "/" + self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FileNode({self.path()!r}, size={self.size})"


@dataclass(eq=False)
class DirectoryNode:
    """A directory in the namespace."""

    name: str
    depth: int
    parent: "DirectoryNode | None" = None
    subdirectories: list["DirectoryNode"] = field(default_factory=list)
    files: list[FileNode] = field(default_factory=list)
    special_label: str | None = None

    @property
    def subdirectory_count(self) -> int:
        return len(self.subdirectories)

    @property
    def file_count(self) -> int:
        return len(self.files)

    def add_subdirectory(self, name: str) -> "DirectoryNode":
        child = DirectoryNode(name=name, depth=self.depth + 1, parent=self)
        self.subdirectories.append(child)
        return child

    def add_file(self, file_node: FileNode) -> None:
        file_node.parent = self
        file_node.depth = self.depth + 1
        self.files.append(file_node)

    def path(self) -> str:
        if self.parent is None:
            return "/"
        return self.parent.path().rstrip("/") + "/" + self.name

    def walk(self) -> Iterator["DirectoryNode"]:
        """Depth-first pre-order traversal of the subtree rooted here."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.subdirectories))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DirectoryNode({self.path()!r}, depth={self.depth}, "
            f"subdirs={self.subdirectory_count}, files={self.file_count})"
        )


class FileSystemTree:
    """The complete namespace being generated.

    The tree keeps flat lists of its directories and files so statistics and
    random selection remain O(1)/O(n) regardless of tree shape.
    """

    def __init__(self) -> None:
        self._root = DirectoryNode(name="", depth=0, parent=None)
        self._directories: list[DirectoryNode] = [self._root]
        self._files: list[FileNode] = []

    # Construction ---------------------------------------------------------

    @property
    def root(self) -> DirectoryNode:
        return self._root

    def create_directory(self, parent: DirectoryNode, name: str | None = None) -> DirectoryNode:
        """Create a directory under ``parent`` and register it with the tree."""
        if name is None:
            name = f"dir{len(self._directories):05d}"
        child = parent.add_subdirectory(name)
        self._directories.append(child)
        return child

    def create_file(
        self,
        parent: DirectoryNode,
        size: int,
        extension: str,
        name: str | None = None,
        content_kind: str = "binary",
    ) -> FileNode:
        """Create a file in ``parent`` and register it with the tree."""
        if size < 0:
            raise ValueError("file size must be non-negative")
        if name is None:
            stem = f"file{len(self._files):06d}"
            name = f"{stem}.{extension}" if extension else stem
        node = FileNode(
            name=name,
            size=int(size),
            extension=extension,
            depth=parent.depth + 1,
            parent=parent,
            content_kind=content_kind,
            file_id=len(self._files),
        )
        parent.files.append(node)
        self._files.append(node)
        return node

    # Adoption (shard merge) -------------------------------------------------

    def adopt_file(self, parent: DirectoryNode, file_node: FileNode) -> FileNode:
        """Attach an existing :class:`FileNode` under ``parent`` and register it.

        The node keeps its metadata (size, extension, timestamps, extents,
        content kind) but is re-numbered with this tree's next ``file_id`` and
        re-parented, so adopted files participate in statistics, walking and
        materialization exactly like natively created ones.  Callers that need
        the node's content bytes to survive the re-numbering must pin
        :attr:`FileNode.content_key` first.
        """
        file_node.parent = parent
        file_node.depth = parent.depth + 1
        file_node.file_id = len(self._files)
        parent.files.append(file_node)
        self._files.append(file_node)
        return file_node

    def adopt_subtree(self, parent: DirectoryNode, directory: DirectoryNode) -> None:
        """Attach an existing directory subtree under ``parent``.

        Every directory in the subtree is registered with this tree in
        depth-first pre-order, and every contained file is adopted (see
        :meth:`adopt_file`) in its directory's order — a deterministic
        renumbering given the subtree.  Depths are recomputed from the new
        parent chain.
        """
        directory.parent = parent
        parent.subdirectories.append(directory)
        for node in directory.walk():
            node.depth = node.parent.depth + 1 if node.parent is not None else 0
            self._directories.append(node)
            contained, node.files = node.files, []
            for file_node in contained:
                self.adopt_file(node, file_node)

    # Accessors -------------------------------------------------------------

    @property
    def directories(self) -> list[DirectoryNode]:
        return list(self._directories)

    @property
    def files(self) -> list[FileNode]:
        return list(self._files)

    def files_since(self, start: int) -> list[FileNode]:
        """Files registered after the first ``start``, in registration order."""
        return self._files[start:]

    @property
    def directory_count(self) -> int:
        return len(self._directories)

    @property
    def file_count(self) -> int:
        return len(self._files)

    @property
    def total_bytes(self) -> int:
        return sum(file.size for file in self._files)

    def max_depth(self) -> int:
        return max((directory.depth for directory in self._directories), default=0)

    # Statistics used by the accuracy figures -------------------------------

    def directories_by_depth(self) -> dict[int, int]:
        """Count of directories at each namespace depth (Figure 2(a))."""
        counts: dict[int, int] = {}
        for directory in self._directories:
            counts[directory.depth] = counts.get(directory.depth, 0) + 1
        return counts

    def directory_subdir_counts(self) -> list[int]:
        """Per-directory subdirectory counts (Figure 2(b))."""
        return [directory.subdirectory_count for directory in self._directories]

    def directory_file_counts(self) -> list[int]:
        """Per-directory file counts (the inverse-polynomial model target)."""
        return [directory.file_count for directory in self._directories]

    def files_by_depth(self) -> dict[int, int]:
        """Count of files at each namespace depth (Figure 2(f))."""
        counts: dict[int, int] = {}
        for file in self._files:
            counts[file.depth] = counts.get(file.depth, 0) + 1
        return counts

    def file_sizes(self) -> list[int]:
        return [file.size for file in self._files]

    def extension_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for file in self._files:
            key = file.extension or "null"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def directories_at_depth(self, depth: int) -> list[DirectoryNode]:
        return [directory for directory in self._directories if directory.depth == depth]

    # Traversal -------------------------------------------------------------

    def walk_depth_first(self) -> Iterator[DirectoryNode]:
        """Depth-first pre-order over all directories (what ``find`` does)."""
        yield from self._root.walk()

    def iter_files(self) -> Iterator[FileNode]:
        for directory in self.walk_depth_first():
            yield from directory.files

    def directory_paths(self) -> dict[DirectoryNode, str]:
        """Every directory's :meth:`DirectoryNode.path`, keyed by node, in
        depth-first pre-order, from one walk.

        Each path is built from its parent's, so the cost is one string join
        per directory instead of one per ancestor.
        """
        paths: dict[DirectoryNode, str] = {}
        for directory in self._root.walk():
            parent_path = paths.get(directory.parent)
            if parent_path is None:
                paths[directory] = directory.path()
            else:
                paths[directory] = parent_path.rstrip("/") + "/" + directory.name
        return paths

    def file_paths(self, directory_paths: dict[DirectoryNode, str] | None = None) -> list[str]:
        """Every file's :meth:`FileNode.path`, in file order, from one directory walk.

        Pass :meth:`directory_paths` when the caller already holds it, to
        reuse its walk.
        """
        if directory_paths is None:
            directory_paths = self.directory_paths()
        prefixes = {
            directory: path.rstrip("/") + "/" for directory, path in directory_paths.items()
        }
        return [
            prefixes[file.parent] + file.name if file.parent in prefixes else file.path()
            for file in self._files
        ]

    def summary(self) -> dict:
        """Coarse summary statistics of the tree."""
        return {
            "directories": self.directory_count,
            "files": self.file_count,
            "total_bytes": self.total_bytes,
            "max_depth": self.max_depth(),
            "mean_file_size": (self.total_bytes / self.file_count) if self.file_count else 0.0,
        }
