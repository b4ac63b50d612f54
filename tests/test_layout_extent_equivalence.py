"""Property-based equivalence: extent disk vs. reference block-list disk.

``ReferenceDisk`` below re-implements the historical ``SimulatedDisk`` that
materialised every allocated block as an individual int (first-fit over the
same free-extent list).  Random allocate/extend/free/rename sequences driven
by hypothesis must leave both implementations in identical states: same expanded ``blocks_of()`` per file, same ``file_names()`` order,
same layout scores, and same free-extent summaries.  This is the oracle that
the extent rewrite changed the representation, not the allocator's behaviour.
"""

from __future__ import annotations

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.disk import AllocationError, DoubleFreeError, SimulatedDisk, expand_extents
from repro.layout.layout_score import layout_score, layout_score_from_blockmaps

from layout_helpers import blocks_of

BLOCK = 4096
DISK_BLOCKS = 512


class ReferenceDisk:
    """The historical block-list allocator (one Python int per block)."""

    def __init__(self, num_blocks: int) -> None:
        self.num_blocks = num_blocks
        self._free_starts: list[int] = [0]
        self._free_lengths: list[int] = [num_blocks]
        self._allocations: dict[str, list[int]] = {}

    @property
    def free_blocks(self) -> int:
        return sum(self._free_lengths)

    def blocks_needed(self, size_bytes: int) -> int:
        return max(1, (size_bytes + BLOCK - 1) // BLOCK) if size_bytes > 0 else 0

    def has_file(self, name: str) -> bool:
        return name in self._allocations

    def file_names(self) -> list[str]:
        return list(self._allocations.keys())

    def blocks_of(self, name: str) -> list[int]:
        return list(self._allocations[name])

    def free_extents(self) -> list[tuple[int, int]]:
        return list(zip(self._free_starts, self._free_lengths))

    def _take_blocks(self, needed: int) -> list[int]:
        blocks: list[int] = []
        remaining = needed
        while remaining > 0:
            start = self._free_starts[0]
            length = self._free_lengths[0]
            take = min(length, remaining)
            blocks.extend(range(start, start + take))
            if take == length:
                del self._free_starts[0]
                del self._free_lengths[0]
            else:
                self._free_starts[0] = start + take
                self._free_lengths[0] = length - take
            remaining -= take
        return blocks

    def allocate(self, name: str, size_bytes: int) -> list[int]:
        if name in self._allocations:
            raise ValueError(f"file {name!r} already allocated")
        needed = self.blocks_needed(size_bytes)
        if needed > self.free_blocks:
            raise AllocationError("disk full")
        blocks = self._take_blocks(needed)
        self._allocations[name] = blocks
        return list(blocks)

    def extend(self, name: str, size_bytes: int) -> list[int]:
        if name not in self._allocations:
            raise KeyError(name)
        needed = self.blocks_needed(size_bytes)
        if needed == 0:
            return []
        if needed > self.free_blocks:
            raise AllocationError("disk full")
        # Append in place: the historical implementation's pop/re-insert
        # reordered file_names(); the extent engine (and this oracle) keep
        # insertion order, which the end-state comparison asserts.
        new_blocks = self._take_blocks(needed)
        self._allocations[name].extend(new_blocks)
        return new_blocks

    def free(self, name: str) -> int:
        if name not in self._allocations:
            raise DoubleFreeError(name)
        blocks = self._allocations.pop(name)
        for start, length in _runs(sorted(blocks)):
            self._release_extent(start, length)
        return len(blocks)

    def rename(self, old_name: str, new_name: str) -> None:
        if old_name not in self._allocations:
            raise KeyError(old_name)
        if new_name in self._allocations:
            raise ValueError(new_name)
        self._allocations[new_name] = self._allocations.pop(old_name)

    def _release_extent(self, start: int, length: int) -> None:
        index = bisect.bisect_left(self._free_starts, start)
        self._free_starts.insert(index, start)
        self._free_lengths.insert(index, length)
        if index + 1 < len(self._free_starts):
            end = self._free_starts[index] + self._free_lengths[index]
            if end == self._free_starts[index + 1]:
                self._free_lengths[index] += self._free_lengths[index + 1]
                del self._free_starts[index + 1]
                del self._free_lengths[index + 1]
        if index > 0:
            previous_end = self._free_starts[index - 1] + self._free_lengths[index - 1]
            if previous_end == self._free_starts[index]:
                self._free_lengths[index - 1] += self._free_lengths[index]
                del self._free_starts[index]
                del self._free_lengths[index]


def _runs(sorted_blocks: list[int]):
    if not sorted_blocks:
        return
    run_start = sorted_blocks[0]
    run_length = 1
    for block in sorted_blocks[1:]:
        if block == run_start + run_length:
            run_length += 1
        else:
            yield run_start, run_length
            run_start = block
            run_length = 1
    yield run_start, run_length


# Operation alphabet: (kind, name_index, size_in_blocks).  Name indices map
# into a small pool so sequences collide on names (exercising double frees,
# re-allocations of freed names, rename collisions).
_operation = st.tuples(
    st.sampled_from(["allocate", "extend", "free", "rename"]),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=24),
)


def _apply(disk, kind: str, name: str, other: str, size_blocks: int):
    """Run one operation, returning (outcome_tag, payload) for comparison.

    Allocations return block lists; the extent disk's are expanded to match.
    """
    extent_native = isinstance(disk, SimulatedDisk)
    try:
        if kind == "allocate":
            if extent_native:
                return ("ok", expand_extents(disk.allocate_extents(name, size_blocks * BLOCK)))
            return ("ok", disk.allocate(name, size_blocks * BLOCK))
        if kind == "extend":
            if extent_native:
                return ("ok", expand_extents(disk.extend_extents(name, size_blocks * BLOCK)))
            return ("ok", disk.extend(name, size_blocks * BLOCK))
        if kind == "free":
            return ("ok", disk.free(name))
        if kind == "rename":
            return ("ok", disk.rename(name, other))
    except AllocationError:
        return ("alloc-error", None)
    except DoubleFreeError:
        return ("double-free", None)
    except KeyError:
        return ("key-error", None)
    except ValueError:
        return ("value-error", None)
    raise AssertionError(f"unknown kind {kind}")


@settings(max_examples=120, deadline=None)
@given(operations=st.lists(_operation, min_size=1, max_size=60))
def test_extent_disk_matches_reference(operations):
    extent_disk = SimulatedDisk(num_blocks=DISK_BLOCKS)
    reference = ReferenceDisk(num_blocks=DISK_BLOCKS)

    for kind, name_index, size_blocks in operations:
        name = f"f{name_index}"
        other = f"f{(name_index + 1) % 8}"
        outcome_a = _apply(extent_disk, kind, name, other, size_blocks)
        outcome_b = _apply(reference, kind, name, other, size_blocks)
        # Same success/failure classification on every operation...
        assert outcome_a[0] == outcome_b[0], (kind, name, size_blocks)
        # ... and identical returned blocks where the API returns them.
        if outcome_a[0] == "ok" and isinstance(outcome_b[1], list):
            assert outcome_a[1] == outcome_b[1], (kind, name, size_blocks)

    # Identical end state: namespace (with iteration order), block maps,
    # free-extent summary, and layout scores.
    assert extent_disk.file_names() == reference.file_names()
    for name in reference.file_names():
        assert blocks_of(extent_disk, name) == reference.blocks_of(name)
    assert extent_disk.free_extents() == reference.free_extents()
    assert extent_disk.free_blocks == reference.free_blocks

    reference_score = layout_score_from_blockmaps(
        [reference.blocks_of(name) for name in reference.file_names()]
    )
    assert extent_disk.layout_score() == pytest.approx(reference_score, abs=1e-12)
    assert layout_score(extent_disk) == pytest.approx(reference_score, abs=1e-12)
    subset = reference.file_names()[::2]
    if subset:
        assert layout_score(extent_disk, subset) == pytest.approx(
            layout_score_from_blockmaps([reference.blocks_of(n) for n in subset]),
            abs=1e-12,
        )


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=20),
    extra=st.integers(min_value=0, max_value=10),
)
def test_extend_return_value_matches_reference(sizes, extra):
    """extend_extents() must report exactly the blocks the reference would."""
    extent_disk = SimulatedDisk(num_blocks=DISK_BLOCKS)
    reference = ReferenceDisk(num_blocks=DISK_BLOCKS)
    for index, size in enumerate(sizes):
        if extent_disk.blocks_needed(size * BLOCK) > extent_disk.free_blocks:
            continue
        extent_disk.allocate_extents(f"g{index}", size * BLOCK)
        reference.allocate(f"g{index}", size * BLOCK)
    name = "g0" if extent_disk.has_file("g0") else None
    if name and extent_disk.blocks_needed(extra * BLOCK) <= extent_disk.free_blocks:
        new_extents = extent_disk.extend_extents(name, extra * BLOCK)
        assert expand_extents(new_extents) == reference.extend(name, extra * BLOCK)
        assert blocks_of(extent_disk, name) == reference.blocks_of(name)
