"""Unit tests for the layout-score metric (Smith & Seltzer)."""

from __future__ import annotations

import pytest

from repro.layout.disk import SimulatedDisk
from repro.layout.layout_score import (
    file_layout_score,
    layout_score,
    layout_score_from_blockmaps,
)


class TestFileLayoutScore:
    def test_contiguous_file_scores_one(self):
        assert file_layout_score([5, 6, 7, 8]) == 1.0

    def test_fully_scattered_file(self):
        blocks = [0, 10, 20, 30]
        assert file_layout_score(blocks) == pytest.approx(1 / 4)

    def test_single_block_and_empty_files_score_one(self):
        assert file_layout_score([3]) == 1.0
        assert file_layout_score([]) == 1.0

    def test_partial_fragmentation(self):
        # one discontinuity among 3 transitions -> (2 optimal + first) / 4
        assert file_layout_score([0, 1, 5, 6]) == pytest.approx(0.75)


class TestAggregateScore:
    def test_all_contiguous_scores_one(self):
        assert layout_score_from_blockmaps([[0, 1, 2], [10, 11]]) == 1.0

    def test_no_adjacency_scores_zero(self):
        assert layout_score_from_blockmaps([[0, 2, 4], [10, 20]]) == 0.0

    def test_weighted_by_block_count(self):
        # File A: 9 optimal of 9 candidates; file B: 0 of 1 candidate.
        maps = [list(range(10)), [100, 200]]
        assert layout_score_from_blockmaps(maps) == pytest.approx(9 / 10)

    def test_only_small_files_scores_one(self):
        assert layout_score_from_blockmaps([[1], [], [7]]) == 1.0

    def test_layout_score_over_disk(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("a", 10 * 4096)
        disk.allocate_extents("b", 10 * 4096)
        assert layout_score(disk) == 1.0

    def test_layout_score_subset_of_files(self):
        disk = SimulatedDisk(num_blocks=200)
        disk.allocate_extents("a", 4 * 4096)
        disk.allocate_extents("gap", 4096)
        disk.allocate_extents("b", 4 * 4096)
        disk.free("gap")
        disk.allocate_extents("fragmented", 8 * 4096)
        full = layout_score(disk)
        only_a = layout_score(disk, ["a"])
        assert only_a == 1.0
        assert full < 1.0

    def test_empty_disk_scores_one(self):
        disk = SimulatedDisk(num_blocks=10)
        assert layout_score(disk) == 1.0
