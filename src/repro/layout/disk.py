"""Simulated block device and allocator, stored as extents.

A :class:`SimulatedDisk` stands in for the real Ext2/Ext3 partition the paper
uses.  It models the single property the layout experiments depend on: which
logical blocks of which file sit where, and therefore whether consecutive file
blocks are adjacent on disk.  Allocation is first-fit over a free-extent list,
which is close enough to ext2's block allocator for the create/delete
fragmentation trick to behave the same way (deleting a temporary file leaves a
hole that splits the next allocation).

Per-file allocations are stored as *extents* — ``(start, length)`` runs of
contiguous blocks in logical (file offset) order — rather than one Python int
per block.  Consecutive extents that happen to be contiguous on disk are
merged on append, so ``len(extents)`` *is* the file's contiguous-run count and
a file's optimally-placed block count (the layout-score numerator) is simply
``blocks - runs``.  A paper-scale Image2 (~3M blocks) therefore costs memory
proportional to its fragmentation, not its size.

On top of the per-file caches the disk maintains two running aggregates —
total candidate blocks (non-first blocks over all files) and total optimally
placed blocks — updated on every allocate, extend and free, which makes the
whole-image Smith & Seltzer layout score an O(1) lookup
(:meth:`SimulatedDisk.layout_score`) instead of an O(total blocks) re-scan.

The disk also exposes a simple cost model (seek + rotational + transfer time
per contiguous run) used by the ``find``/``grep`` workload simulators.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "SimulatedDisk",
    "AllocationError",
    "DoubleFreeError",
    "DiskGeometry",
    "expand_extents",
]


class AllocationError(RuntimeError):
    """Raised when the disk has insufficient free space for an allocation."""


class DoubleFreeError(RuntimeError):
    """Raised when :meth:`SimulatedDisk.free` targets a file that is not allocated.

    Covers both a genuine double free (the file was already freed) and a free
    of a name that never existed; either way the caller's view of the disk has
    diverged from the allocator's, which trace replay must surface loudly
    instead of silently corrupting the free list.
    """


@dataclass(frozen=True)
class DiskGeometry:
    """Timing model of the simulated disk.

    The defaults approximate a 7200 RPM SATA disk of the paper's era: 8.5 ms
    average seek, 4.16 ms average rotational delay, ~100 MB/s sequential
    transfer with 4 KB blocks.
    """

    block_size: int = 4096
    seek_time_ms: float = 8.5
    rotational_delay_ms: float = 4.16
    transfer_rate_mb_s: float = 100.0

    def transfer_time_ms(self, num_blocks: int) -> float:
        megabytes = num_blocks * self.block_size / (1024.0 * 1024.0)
        return 1000.0 * megabytes / self.transfer_rate_mb_s

    def access_time_ms(self, runs: int, num_blocks: int) -> float:
        """Time to read ``num_blocks`` split into ``runs`` contiguous runs."""
        positioning = runs * (self.seek_time_ms + self.rotational_delay_ms)
        return positioning + self.transfer_time_ms(num_blocks)


class SimulatedDisk:
    """First-fit extent allocator over a fixed number of blocks."""

    def __init__(self, num_blocks: int, geometry: DiskGeometry | None = None) -> None:
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        self._num_blocks = num_blocks
        self._geometry = geometry or DiskGeometry()
        # Free extents as sorted, non-overlapping, non-adjacent [start, length] pairs.
        self._free_starts: list[int] = [0]
        self._free_lengths: list[int] = [num_blocks]
        self._free_blocks = num_blocks
        # Per-file extents in logical order; contiguous neighbours are merged
        # on append, so len(extents) == the file's contiguous-run count.
        self._extents: dict[str, list[tuple[int, int]]] = {}
        self._block_counts: dict[str, int] = {}
        # Layout-score aggregates over all files, maintained incrementally:
        # candidates = sum(max(blocks - 1, 0)), optimal = sum(blocks - runs).
        self._agg_candidates = 0
        self._agg_optimal = 0

    # Introspection ----------------------------------------------------------

    @property
    def geometry(self) -> DiskGeometry:
        return self._geometry

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def free_blocks(self) -> int:
        return self._free_blocks

    @property
    def used_blocks(self) -> int:
        return self._num_blocks - self._free_blocks

    @property
    def num_files(self) -> int:
        return len(self._extents)

    @property
    def total_extents(self) -> int:
        """Extent count over all files (the image's layout memory footprint)."""
        return sum(len(extents) for extents in self._extents.values())

    def extents_of(self, name: str) -> list[tuple[int, int]]:
        """``(start, length)`` runs owned by ``name`` in logical order."""
        extents = self._extents.get(name)
        if extents is None:
            raise KeyError(f"unknown file {name!r}")
        return list(extents)

    def block_count(self, name: str) -> int:
        """Number of blocks owned by ``name`` (O(1))."""
        count = self._block_counts.get(name)
        if count is None:
            raise KeyError(f"unknown file {name!r}")
        return count

    def run_count(self, name: str) -> int:
        """Number of contiguous runs ``name`` occupies (O(1); 0 for empty files)."""
        extents = self._extents.get(name)
        if extents is None:
            raise KeyError(f"unknown file {name!r}")
        return len(extents)

    def run_stats(self, name: str) -> tuple[int, int]:
        """``(runs, blocks)`` of ``name`` in one lookup (O(1))."""
        extents = self._extents.get(name)
        if extents is None:
            raise KeyError(f"unknown file {name!r}")
        return len(extents), self._block_counts[name]

    def first_block_of(self, name: str) -> int | None:
        """First (logical offset 0) block of ``name``, or None for empty files."""
        extents = self._extents.get(name)
        if extents is None:
            raise KeyError(f"unknown file {name!r}")
        return extents[0][0] if extents else None

    def file_names(self) -> list[str]:
        """Names of every allocated file, in insertion order."""
        return list(self._extents.keys())

    def has_file(self, name: str) -> bool:
        return name in self._extents

    def free_extents(self) -> list[tuple[int, int]]:
        """The free list as sorted, non-adjacent ``(start, length)`` pairs."""
        return list(zip(self._free_starts, self._free_lengths))

    def blocks_needed(self, size_bytes: int) -> int:
        block_size = self._geometry.block_size
        return max(1, (size_bytes + block_size - 1) // block_size) if size_bytes > 0 else 0

    # Layout score -------------------------------------------------------------

    @property
    def layout_aggregates(self) -> tuple[int, int]:
        """``(optimal, candidates)`` over all files, maintained incrementally."""
        return self._agg_optimal, self._agg_candidates

    def layout_score(self) -> float:
        """Aggregate Smith & Seltzer layout score of every file on the disk.

        O(1): the fraction of non-first blocks contiguous with their logical
        predecessor, read off the maintained aggregates.  1.0 when no file
        has more than one block.
        """
        if self._agg_candidates == 0:
            return 1.0
        return self._agg_optimal / self._agg_candidates

    # Allocation --------------------------------------------------------------

    def allocate_extents(self, name: str, size_bytes: int) -> list[tuple[int, int]]:
        """Allocate extents for a file of ``size_bytes`` and record them.

        Allocation fills free extents in address order (lowest block first),
        the way ext2 fills holes near the front of a block group.  A file that
        does not fit in the first hole spills into the next one, which is what
        turns the holes left by deleted temporary files into fragmentation.
        Zero-byte files own no blocks but are still tracked so they can be
        freed symmetrically.
        """
        if name in self._extents:
            raise ValueError(f"file {name!r} already allocated")
        block_size = self._geometry.block_size
        needed = (size_bytes + block_size - 1) // block_size if size_bytes > 0 else 0
        if needed > self._free_blocks:
            raise AllocationError(
                f"cannot allocate {needed} blocks for {name!r}: only {self._free_blocks} free"
            )
        extents = self._take(needed)
        self._extents[name] = extents
        self._block_counts[name] = needed
        if needed:
            self._agg_candidates += needed - 1
            self._agg_optimal += needed - len(extents)
        return list(extents)

    def extend_extents(self, name: str, size_bytes: int) -> list[tuple[int, int]]:
        """Append extents for ``size_bytes`` more data to an existing file.

        Returns only the newly allocated extents (before any merge with the
        file's previous tail).  Like :meth:`allocate_extents`, new space comes
        from the lowest-address free extents, so extending a file after
        something else was allocated (or a hole was left) splits it.  The
        file keeps its position in :meth:`file_names` insertion order.
        """
        extents = self._extents.get(name)
        if extents is None:
            raise KeyError(f"unknown file {name!r}")
        block_size = self._geometry.block_size
        needed = (size_bytes + block_size - 1) // block_size if size_bytes > 0 else 0
        if needed == 0:
            return []
        if needed > self._free_blocks:
            raise AllocationError(
                f"cannot extend {name!r} by {needed} blocks: only {self._free_blocks} free"
            )
        old_blocks = self._block_counts[name]
        old_runs = len(extents)
        pieces = self._take(needed)
        # Merge the first new piece into the file's tail when contiguous, so
        # len(extents) stays equal to the contiguous-run count.
        if extents and extents[-1][0] + extents[-1][1] == pieces[0][0]:
            tail_start, tail_length = extents[-1]
            extents[-1] = (tail_start, tail_length + pieces[0][1])
            extents.extend(pieces[1:])
        else:
            extents.extend(pieces)
        new_blocks = old_blocks + needed
        self._block_counts[name] = new_blocks
        self._agg_candidates += (new_blocks - 1) - (old_blocks - 1 if old_blocks else 0)
        self._agg_optimal += (new_blocks - len(extents)) - (old_blocks - old_runs)
        return pieces

    def free(self, name: str) -> int:
        """Release ``name``'s blocks to the free list, returning how many.

        Raises :class:`DoubleFreeError` when the file is not currently
        allocated — the unambiguous signal a trace replayer needs for a
        delete of an already-deleted file.
        """
        extents = self._extents.pop(name, None)
        if extents is None:
            raise DoubleFreeError(f"double free: {name!r} is not currently allocated")
        blocks = self._block_counts.pop(name)
        if blocks:
            self._agg_candidates -= blocks - 1
            self._agg_optimal -= blocks - len(extents)
        self._free_blocks += blocks
        for start, length in extents:
            self._release_extent(start, length)
        return blocks

    def adopt_segment(
        self, files: Iterable[tuple[str, Sequence[tuple[int, int]]]], base: int = 0
    ) -> list[list[tuple[int, int]]]:
        """Record each ``(name, extents)`` file as owning exactly its extents,
        shifted by ``base``, and carve them all from the free list in one pass.
        Returns each file's adopted extents, in input order.

        Unlike :meth:`allocate_extents` the caller dictates *where* the blocks
        sit — this is how a shard merge folds several per-shard disks into one
        address space: shard *i*'s files are adopted as one segment whose
        ``base`` is the block count of the shards before it, so the merged
        layout (and therefore the merged layout score) is exactly the
        concatenation of the shard layouts.

        Each file's extents must be in logical (file offset) order; runs that
        happen to be adjacent on disk are merged on adoption so
        ``len(extents)`` keeps meaning the file's contiguous-run count.  The
        whole segment is validated before anything changes: ``ValueError``
        for a name already on the disk or repeated in the segment, an extent
        of non-positive length, or extents that overlap one another;
        :class:`AllocationError` for a range outside the disk or not free.
        """
        adopted: dict[str, list[tuple[int, int]]] = {}
        counts: dict[str, int] = {}
        ranges: list[tuple[int, int]] = []
        files_seen = optimal = candidates = 0
        for name, extents in files:
            files_seen += 1
            canonical = []
            total = 0
            for start, length in extents:
                if length <= 0:
                    raise ValueError(f"extent ({start}, {length}) has non-positive length")
                start += base
                total += length
                if canonical and canonical[-1][0] + canonical[-1][1] == start:
                    canonical[-1] = (canonical[-1][0], canonical[-1][1] + length)
                else:
                    canonical.append((start, length))
            adopted[name] = canonical
            counts[name] = total
            ranges += canonical
            if total:
                candidates += total - 1
                optimal += total - len(canonical)
        if len(adopted) != files_seen or not self._extents.keys().isdisjoint(adopted):
            raise ValueError("segment names a file that is already allocated")
        ranges.sort()
        first, last, starts, lengths = self._carve_sorted(ranges)
        # Validated: commit.  Only the free extents the segment touched change.
        self._free_starts[first:last] = starts
        self._free_lengths[first:last] = lengths
        self._free_blocks -= sum(counts.values())
        self._extents.update(adopted)
        self._block_counts.update(counts)
        self._agg_candidates += candidates
        self._agg_optimal += optimal
        return [list(extents) for extents in adopted.values()]

    def _carve_sorted(
        self, ranges: list[tuple[int, int]]
    ) -> tuple[int, int, list[int], list[int]]:
        """Validate sorted ``ranges`` against the free list, without changing it.

        Returns ``(first, last, starts, lengths)``: carving every range out of
        the free extents ``first:last`` leaves exactly ``starts``/``lengths``.
        Raises when ranges overlap or a range is outside the disk or not free;
        every length is positive (:meth:`adopt_segment` checks that).
        """
        starts: list[int] = []
        lengths: list[int] = []
        if not ranges:
            return 0, 0, starts, lengths
        free_starts = self._free_starts
        free_lengths = self._free_lengths
        first = index = max(bisect.bisect_right(free_starts, ranges[0][0]) - 1, 0)
        previous_end = None
        cursor = free_end = -1
        for start, length in ranges:
            if start < 0 or start + length > self._num_blocks:
                raise AllocationError(
                    f"cannot adopt ({start}, {length}): outside the disk's "
                    f"{self._num_blocks} blocks"
                )
            if previous_end is not None and start < previous_end:
                raise ValueError(f"adopted extents overlap at block {start}")
            previous_end = start + length
            # Move to the free extent holding ``start``, closing the one before.
            while start >= free_end:
                if cursor < free_end:
                    starts.append(cursor)
                    lengths.append(free_end - cursor)
                if index == len(free_starts) or start < free_starts[index]:
                    raise AllocationError(f"cannot adopt ({start}, {length}): range is not free")
                cursor = free_starts[index]
                free_end = cursor + free_lengths[index]
                index += 1
            if start + length > free_end:
                raise AllocationError(f"cannot adopt ({start}, {length}): range is not free")
            if start > cursor:
                starts.append(cursor)
                lengths.append(start - cursor)
            cursor = start + length
        if cursor < free_end:
            starts.append(cursor)
            lengths.append(free_end - cursor)
        return first, index, starts, lengths

    def rename(self, old_name: str, new_name: str) -> None:
        """Transfer ``old_name``'s allocation to ``new_name`` (blocks unchanged)."""
        if old_name not in self._extents:
            raise KeyError(f"unknown file {old_name!r}")
        if new_name in self._extents:
            raise ValueError(f"file {new_name!r} already allocated")
        self._extents[new_name] = self._extents.pop(old_name)
        self._block_counts[new_name] = self._block_counts.pop(old_name)

    # Free-list internals ------------------------------------------------------

    def _take(self, needed: int) -> list[tuple[int, int]]:
        """Carve ``needed`` blocks off the front of the free list, first-fit.

        Returns the pieces as extents.  Pieces from different free extents are
        never contiguous (the free list keeps adjacent extents coalesced), so
        the result is already in canonical run form.
        """
        if needed == 0:
            return []
        starts = self._free_starts
        lengths = self._free_lengths
        pieces: list[tuple[int, int]] = []
        consumed = 0
        remaining = needed
        while remaining > 0:
            start = starts[consumed]
            length = lengths[consumed]
            if length <= remaining:
                pieces.append((start, length))
                remaining -= length
                consumed += 1
            else:
                pieces.append((start, remaining))
                starts[consumed] = start + remaining
                lengths[consumed] = length - remaining
                remaining = 0
        if consumed:
            del starts[:consumed]
            del lengths[:consumed]
        self._free_blocks -= needed
        return pieces

    def _release_extent(self, start: int, length: int) -> None:
        index = bisect.bisect_left(self._free_starts, start)
        self._free_starts.insert(index, start)
        self._free_lengths.insert(index, length)
        self._coalesce_around(index)

    def _coalesce_around(self, index: int) -> None:
        # Merge with the following extent if adjacent.
        if index + 1 < len(self._free_starts):
            end = self._free_starts[index] + self._free_lengths[index]
            if end == self._free_starts[index + 1]:
                self._free_lengths[index] += self._free_lengths[index + 1]
                del self._free_starts[index + 1]
                del self._free_lengths[index + 1]
        # Merge with the preceding extent if adjacent.
        if index > 0:
            previous_end = self._free_starts[index - 1] + self._free_lengths[index - 1]
            if previous_end == self._free_starts[index]:
                self._free_lengths[index - 1] += self._free_lengths[index]
                del self._free_starts[index]
                del self._free_lengths[index]

    # Cost model ---------------------------------------------------------------

    def read_time_ms(self, name: str) -> float:
        """Simulated time to read a whole file from disk (O(1) per file)."""
        blocks = self.block_count(name)
        if not blocks:
            return 0.0
        return self._geometry.access_time_ms(len(self._extents[name]), blocks)

    def summary(self) -> dict:
        return {
            "num_blocks": self._num_blocks,
            "used_blocks": self.used_blocks,
            "free_blocks": self._free_blocks,
            "files": self.num_files,
            "free_extents": len(self._free_starts),
            "file_extents": self.total_extents,
            "layout_score": self.layout_score(),
        }


def expand_extents(extents: list[tuple[int, int]]) -> list[int]:
    """Materialise extents into the individual block numbers they cover."""
    blocks: list[int] = []
    for start, length in extents:
        blocks.extend(range(start, start + length))
    return blocks
