"""Creating layouts with a target degree of fragmentation (Section 3.7).

Impressions achieves a requested layout score "by issuing pairs of temporary
file create and delete operations, during creation of regular files".  The
:class:`Fragmenter` wraps a :class:`~repro.layout.disk.SimulatedDisk` and,
while a regular file is being written, interleaves small temporary files
between chunks of it: each temporary pushes the next chunk off the end of the
previous one, splitting the file, and deleting the temporaries afterwards
leaves holes that later files fall into.  Both effects lower the aggregate
layout score.

How much to fragment each file is decided by a deficit controller: it tracks
the exact number of non-optimally-placed blocks so far and plans just enough
splits for the current file to keep the aggregate score on target.  A layout
score of 1.0 disables the mechanism entirely (the paper's default).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.layout.disk import AllocationError, SimulatedDisk

__all__ = ["Fragmenter", "FragmentationReport", "chunk_blocks"]

#: Size (in blocks) of each temporary file inserted between chunks; one
#: block produces the finest-grained holes.
TEMP_FILE_BLOCKS = 1

#: Cap on how many times one file may be split (a file of ``n`` blocks can
#: be split at most ``n - 1`` times anyway).
MAX_SPLITS_PER_FILE = 64


@dataclass
class FragmentationReport:
    """Result of a fragmentation run."""

    target_score: float
    achieved_score: float
    regular_files: int
    temporary_operations: int

    @property
    def error(self) -> float:
        return abs(self.achieved_score - self.target_score)


class Fragmenter:
    """Allocates regular files while steering the layout score to a target.

    Args:
        disk: the simulated disk to allocate on.
        target_score: desired aggregate layout score in ``(0, 1]``.

    The controller is deterministic: it draws no random numbers, so the
    layout depends only on the files' order and sizes.
    """

    def __init__(self, disk: SimulatedDisk, target_score: float) -> None:
        if not 0.0 < target_score <= 1.0:
            raise ValueError("target_score must lie in (0, 1]")
        self._disk = disk
        self._target = target_score
        self._temp_counter = 0
        self._regular_files = 0
        self._temp_operations = 0
        # Incremental layout-score bookkeeping: the aggregate score is
        # optimal / candidates over all non-first blocks seen so far.
        self._optimal_blocks = 0
        self._candidate_blocks = 0

    @property
    def target_score(self) -> float:
        return self._target

    @property
    def temporary_operations(self) -> int:
        return self._temp_operations

    def allocate_regular_file(self, name: str, size_bytes: int) -> list[tuple[int, int]]:
        """Allocate one regular file, fragmenting it as the target requires.

        Returns the file's ``(start, length)`` extents in logical order
        (``expand_extents`` turns them into a block list).
        """
        needed_blocks = self._disk.blocks_needed(size_bytes)
        planned_splits = self._planned_splits(needed_blocks)
        if planned_splits == 0:
            self._disk.allocate_extents(name, size_bytes)
        else:
            self._allocate_fragmented(name, size_bytes, needed_blocks, planned_splits)
        self._regular_files += 1
        extents = self._disk.extents_of(name)
        self._account(needed_blocks, len(extents))
        return extents

    def finish(self) -> FragmentationReport:
        """Report the final score (no temporaries outlive their file)."""
        return FragmentationReport(
            target_score=self._target,
            achieved_score=self.current_score(),
            regular_files=self._regular_files,
            temporary_operations=self._temp_operations,
        )

    def current_score(self) -> float:
        """Aggregate layout score of the regular files allocated so far.

        Maintained incrementally so the controller stays O(1) per file;
        :func:`repro.layout.layout_score.layout_score` recomputed over the
        disk gives the same value (the tests assert this).
        """
        if self._candidate_blocks == 0:
            return 1.0
        return self._optimal_blocks / self._candidate_blocks

    # Internal helpers ---------------------------------------------------------

    def _planned_splits(self, needed_blocks: int) -> int:
        """How many splits this file needs to keep the aggregate on target."""
        if self._target >= 1.0 or needed_blocks <= 1:
            return 0
        future_candidates = self._candidate_blocks + needed_blocks - 1
        desired_non_optimal = (1.0 - self._target) * future_candidates
        current_non_optimal = self._candidate_blocks - self._optimal_blocks
        deficit = desired_non_optimal - current_non_optimal
        planned = int(round(deficit))
        return max(0, min(planned, needed_blocks - 1, MAX_SPLITS_PER_FILE))

    def _allocate_fragmented(
        self, name: str, size_bytes: int, needed_blocks: int, splits: int
    ) -> None:
        """Create ``name`` in ``splits + 1`` chunks separated by temporary files."""
        block_size = self._disk.geometry.block_size
        chunk_sizes = chunk_blocks(needed_blocks, splits + 1)
        temps: list[str] = []
        remaining_bytes = size_bytes
        try:
            for index, chunk in enumerate(chunk_sizes):
                chunk_bytes = min(chunk * block_size, remaining_bytes)
                remaining_bytes -= chunk_bytes
                if index == 0:
                    self._disk.allocate_extents(name, chunk_bytes)
                else:
                    temp_name = self._next_temp_name()
                    try:
                        self._disk.allocate_extents(temp_name, TEMP_FILE_BLOCKS * block_size)
                        temps.append(temp_name)
                        self._temp_operations += 1
                    except AllocationError:
                        pass
                    self._disk.extend_extents(name, chunk_bytes)
        finally:
            for temp_name in temps:
                self._disk.free(temp_name)
                self._temp_operations += 1

    def _next_temp_name(self) -> str:
        name = f".impressions-tmp-{self._temp_counter}"
        self._temp_counter += 1
        return name

    def _account(self, blocks: int, runs: int) -> None:
        if blocks <= 1:
            return
        self._candidate_blocks += blocks - 1
        self._optimal_blocks += blocks - runs


def chunk_blocks(needed_blocks: int, num_chunks: int) -> list[int]:
    """Split ``needed_blocks`` into ``num_chunks`` roughly equal positive parts."""
    num_chunks = min(num_chunks, needed_blocks)
    base = needed_blocks // num_chunks
    remainder = needed_blocks % num_chunks
    return [base + (1 if index < remainder else 0) for index in range(num_chunks)]
