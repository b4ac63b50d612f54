"""Layout score (Smith & Seltzer), the fragmentation metric of Section 3.7.

For a single file the layout score is the fraction of its blocks that are
*optimally placed*, i.e. immediately follow the previous logical block on
disk; the first block is always counted as optimal.  A file laid out in one
contiguous run scores 1.0; a file whose blocks are all scattered scores
``1 / num_blocks`` (only the first block counts).  Files with zero or one
block are defined to have a score of 1.0.

The file-system-wide layout score is the block-weighted aggregate over all
files: the fraction of all file blocks (excluding each file's first block)
that are contiguous with their logical predecessor.

Scoring is extent-native: a file of ``b`` blocks in ``r`` contiguous runs has
exactly ``b - r`` optimally placed non-first blocks, and the
:class:`~repro.layout.disk.SimulatedDisk` caches ``(b, r)`` per file and the
whole-disk aggregates, so :func:`layout_score` is O(1) over the full disk and
O(files) over a subset — no block list is ever expanded.  The blockmap
functions compute the metric from its definition over raw block sequences;
the tests check the extent-native scores against them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.layout.disk import SimulatedDisk

__all__ = ["file_layout_score", "layout_score", "layout_score_from_blockmaps"]


def optimal_pairs(blocks: Sequence[int]) -> int:
    """Number of blocks immediately following their logical predecessor."""
    return sum(1 for prev, cur in zip(blocks[:-1], blocks[1:]) if cur == prev + 1)


def file_layout_score(blocks: Sequence[int]) -> float:
    """Layout score of one file given its blocks in logical order."""
    if len(blocks) <= 1:
        return 1.0
    return (optimal_pairs(blocks) + 1) / len(blocks)


def layout_score_from_blockmaps(blockmaps: Iterable[Sequence[int]]) -> float:
    """Aggregate layout score over many files' block maps.

    The aggregate follows the metric's original definition: the fraction of
    non-first blocks that are optimally placed, pooled over all files.  An
    empty file system (or one with only single-block files) scores 1.0.
    """
    optimal = 0
    candidates = 0
    for blocks in blockmaps:
        if len(blocks) <= 1:
            continue
        candidates += len(blocks) - 1
        optimal += optimal_pairs(blocks)
    if candidates == 0:
        return 1.0
    return optimal / candidates


def layout_score(disk: SimulatedDisk, file_names: Iterable[str] | None = None) -> float:
    """Layout score of (a subset of) the files on a simulated disk.

    With ``file_names=None`` this is the whole-disk score, an O(1) read of
    the disk's maintained aggregates.  With an explicit subset it sums the
    per-file cached block/run counts, O(len(file_names)).
    """
    if file_names is None:
        return disk.layout_score()
    optimal = 0
    candidates = 0
    for name in file_names:
        blocks = disk.block_count(name)
        if blocks <= 1:
            continue
        candidates += blocks - 1
        optimal += blocks - disk.run_count(name)
    if candidates == 0:
        return 1.0
    return optimal / candidates

