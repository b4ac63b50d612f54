"""The generated file-system image.

A :class:`FileSystemImage` bundles everything the generation pipeline
produced: the namespace tree, the simulated disk with its block layout, the
content policy, per-phase timings and the reproducibility report.  It can

* report summary statistics (Figure 2 / Table 3 compare these against the
  desired distributions),
* look up file content lazily (content bytes are generated on demand from the
  per-file seed so the in-memory image stays small), and
* **materialise** itself into a real directory tree on a host file system for
  use with external tools.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.content.generators import ContentGenerator
from repro.layout.disk import SimulatedDisk
from repro.layout.layout_score import layout_score
from repro.namespace.tree import FileNode, FileSystemTree

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.report import ReproducibilityReport

__all__ = ["FileSystemImage"]


@dataclass
class FileSystemImage:
    """A fully generated file-system image.

    Attributes:
        tree: the namespace with all file metadata.
        disk: the simulated disk holding the block layout (None when layout
            was skipped).
        content_generator: generator able to reproduce each file's bytes.
        content_seed: base seed for per-file content generation.
        report: the reproducibility report for this image.
    """

    tree: FileSystemTree
    disk: SimulatedDisk | None = None
    content_generator: ContentGenerator | None = None
    content_seed: int = 0
    report: "ReproducibilityReport | None" = None
    extras: dict = field(default_factory=dict)

    # Statistics ---------------------------------------------------------------

    @property
    def file_count(self) -> int:
        return self.tree.file_count

    @property
    def directory_count(self) -> int:
        return self.tree.directory_count

    @property
    def total_bytes(self) -> int:
        return self.tree.total_bytes

    def achieved_layout_score(self, file_paths: list[str] | None = None) -> float:
        """Layout score of the on-disk layout (1.0 when layout was skipped).

        When the disk holds exactly the tree's files — the steady state after
        generation — the score is an O(1) read of the disk's maintained
        layout aggregates; otherwise it is summed from the per-file extent
        caches, O(files), never expanding a block list.  ``file_paths`` is
        :meth:`FileSystemTree.file_paths`, for callers that already hold it.
        """
        if self.disk is None:
            return 1.0
        if file_paths is None:
            file_paths = self.tree.file_paths()
        present = [name for name in file_paths if self.disk.has_file(name)]
        if not present:
            return 1.0
        if len(present) == self.disk.num_files:
            # Paths are unique, so covering every allocation means the subset
            # is the whole disk: use the O(1) aggregate score.
            return self.disk.layout_score()
        return layout_score(self.disk, present)

    def summary(self, file_paths: list[str] | None = None) -> dict:
        """Summary statistics of the image (``file_paths`` as in
        :meth:`achieved_layout_score`)."""
        stats = self.tree.summary()
        stats["layout_score"] = self.achieved_layout_score(file_paths)
        stats["content"] = (
            self.content_generator.policy.text_model if self.content_generator else "metadata only"
        )
        return stats

    # Content ------------------------------------------------------------------

    def file_content(self, file_node: FileNode) -> bytes:
        """(Re)generate the content bytes of one file.

        Content is a pure function of the image's content seed and the file's
        index, so repeated calls return identical bytes.  Materialisation
        writes these same bytes, except for text files over 1 MiB: those are
        streamed through :meth:`ContentGenerator.iter_chunks
        <repro.content.generators.ContentGenerator.iter_chunks>`, which draws
        words per chunk and drops the html/document typed header and footer,
        so their bytes on disk differ (their size does not).  Files adopted
        from another image (shard merge) carry the ``(seed, id)`` pair they
        were generated under in
        :attr:`~repro.namespace.tree.FileNode.content_key`, which takes
        precedence — their bytes survive the merge's re-numbering.
        """
        if self.content_generator is None:
            raise RuntimeError("this image was generated without content")
        key = file_node.content_key
        if key is None:
            key = (self.content_seed, self._file_index(file_node))
        rng = np.random.default_rng(key)
        return self.content_generator.generate(file_node.size, file_node.extension, rng)

    # Materialisation ------------------------------------------------------------

    def materialize(
        self,
        root_path: str,
        write_content: bool | None = None,
        jobs: int = 1,
        order: str = "namespace",
    ) -> int:
        """Write the image to ``root_path`` on the host file system.

        Thin facade over :class:`repro.materialize.DirectorySink`: creates
        every directory and file (content when ``write_content`` is True,
        sparse files of the right apparent size otherwise), applies file and
        derived directory timestamps, and returns the number of files
        written.  ``jobs`` parallelizes content generation + writes across
        worker processes; ``order`` picks the streaming order (``namespace``
        or disk-``extent``).  The serial namespace-order output is
        byte-identical to the historical monolithic implementation.

        For archives, manifests, digest-only runs, phase timings and
        round-trip verification use :func:`repro.materialize.materialize_image`
        directly.
        """
        from repro.materialize import DirectorySink, MaterializeError, materialize_image

        try:
            result = materialize_image(
                self,
                DirectorySink(root_path, jobs=jobs),
                order=order,
                write_content=write_content,
            )
        except MaterializeError as error:
            raise RuntimeError(str(error)) from error
        return result.files

    # Internal helpers -------------------------------------------------------------

    def _file_index(self, file_node: FileNode) -> int:
        if file_node.file_id < 0:
            raise ValueError("file does not belong to a generated image")
        return file_node.file_id
