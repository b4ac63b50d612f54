"""Unit tests for the simulated disk / block allocator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.layout.disk import AllocationError, DiskGeometry, SimulatedDisk, expand_extents

from layout_helpers import blocks_of


class TestGeometry:
    def test_transfer_time_scales_with_blocks(self):
        geometry = DiskGeometry()
        assert geometry.transfer_time_ms(200) == pytest.approx(2 * geometry.transfer_time_ms(100))

    def test_access_time_includes_positioning_per_run(self):
        geometry = DiskGeometry()
        one_run = geometry.access_time_ms(1, 100)
        two_runs = geometry.access_time_ms(2, 100)
        assert two_runs - one_run == pytest.approx(geometry.seek_time_ms + geometry.rotational_delay_ms)


class TestAllocation:
    def test_sequential_allocations_are_contiguous(self):
        disk = SimulatedDisk(num_blocks=1_000)
        a = disk.allocate_extents("a", 10 * 4096)
        b = disk.allocate_extents("b", 5 * 4096)
        assert expand_extents(a) == list(range(0, 10))
        assert expand_extents(b) == list(range(10, 15))
        assert disk.used_blocks == 15

    def test_blocks_needed_rounds_up(self):
        disk = SimulatedDisk(num_blocks=100)
        assert disk.blocks_needed(1) == 1
        assert disk.blocks_needed(4096) == 1
        assert disk.blocks_needed(4097) == 2
        assert disk.blocks_needed(0) == 0

    def test_zero_byte_file_tracked_without_blocks(self):
        disk = SimulatedDisk(num_blocks=10)
        assert disk.allocate_extents("empty", 0) == []
        assert disk.has_file("empty")
        disk.free("empty")
        assert not disk.has_file("empty")

    def test_duplicate_name_rejected(self):
        disk = SimulatedDisk(num_blocks=10)
        disk.allocate_extents("x", 4096)
        with pytest.raises(ValueError):
            disk.allocate_extents("x", 4096)

    def test_insufficient_space_raises(self):
        disk = SimulatedDisk(num_blocks=4)
        with pytest.raises(AllocationError):
            disk.allocate_extents("big", 10 * 4096)

    def test_delete_frees_space(self):
        disk = SimulatedDisk(num_blocks=20)
        disk.allocate_extents("a", 20 * 4096)
        with pytest.raises(AllocationError):
            disk.allocate_extents("b", 4096)
        disk.free("a")
        assert disk.free_blocks == 20
        disk.allocate_extents("b", 20 * 4096)

    def test_holes_are_filled_in_address_order(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("a", 4 * 4096)
        disk.allocate_extents("hole", 2 * 4096)
        disk.allocate_extents("b", 4 * 4096)
        disk.free("hole")
        c = disk.allocate_extents("c", 4 * 4096)
        # c fills the 2-block hole first, then spills past b: fragmented.
        assert expand_extents(c) == [4, 5, 10, 11]
        assert disk.run_count("c") == 2

    def test_adjacent_free_extents_coalesce(self):
        disk = SimulatedDisk(num_blocks=50)
        disk.allocate_extents("a", 10 * 4096)
        disk.allocate_extents("b", 10 * 4096)
        disk.allocate_extents("c", 10 * 4096)
        disk.free("a")
        disk.free("b")
        # a and b coalesce into one 20-block extent at the front.
        d = disk.allocate_extents("d", 20 * 4096)
        assert expand_extents(d) == list(range(0, 20))
        assert disk.run_count("d") == 1

    def test_coalesce_with_following_extent(self):
        disk = SimulatedDisk(num_blocks=50)
        disk.allocate_extents("a", 5 * 4096)
        disk.allocate_extents("b", 5 * 4096)
        disk.free("b")
        disk.free("a")
        assert disk.summary()["free_extents"] == 1

    def test_file_names_listing(self):
        disk = SimulatedDisk(num_blocks=10)
        disk.allocate_extents("x", 4096)
        disk.allocate_extents("y", 4096)
        assert set(disk.file_names()) == {"x", "y"}

    def test_invalid_disk_size_rejected(self):
        with pytest.raises(ValueError):
            SimulatedDisk(num_blocks=0)


class TestExtend:
    def test_extend_appends_blocks(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("f", 3 * 4096)
        new_blocks = disk.extend_extents("f", 2 * 4096)
        assert expand_extents(new_blocks) == [3, 4]
        assert blocks_of(disk, "f") == [0, 1, 2, 3, 4]

    def test_extend_after_other_allocation_fragments(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("f", 3 * 4096)
        disk.allocate_extents("blocker", 4096)
        disk.extend_extents("f", 2 * 4096)
        assert disk.run_count("f") == 2

    def test_extend_unknown_file_rejected(self):
        disk = SimulatedDisk(num_blocks=10)
        with pytest.raises(KeyError):
            disk.extend_extents("nope", 4096)

    def test_extend_beyond_capacity_rejected(self):
        disk = SimulatedDisk(num_blocks=4)
        disk.allocate_extents("f", 3 * 4096)
        with pytest.raises(AllocationError):
            disk.extend_extents("f", 10 * 4096)
        # Original allocation is untouched by the failed extension.
        assert blocks_of(disk, "f") == [0, 1, 2]

    def test_extend_by_zero_is_noop(self):
        disk = SimulatedDisk(num_blocks=10)
        disk.allocate_extents("f", 4096)
        assert disk.extend_extents("f", 0) == []
        assert blocks_of(disk, "f") == [0]


class TestCostModel:
    def test_contiguous_file_read_is_single_positioning(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("f", 10 * 4096)
        expected = disk.geometry.access_time_ms(1, 10)
        assert disk.read_time_ms("f") == pytest.approx(expected)

    def test_fragmented_file_costs_more(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("a", 4 * 4096)
        disk.allocate_extents("gap", 4096)
        disk.allocate_extents("b", 4 * 4096)
        disk.free("gap")
        disk.allocate_extents("frag", 8 * 4096)
        contiguous_cost = disk.geometry.access_time_ms(1, 8)
        assert disk.read_time_ms("frag") > contiguous_cost

    def test_empty_file_costs_nothing(self):
        disk = SimulatedDisk(num_blocks=10)
        disk.allocate_extents("empty", 0)
        assert disk.read_time_ms("empty") == 0.0

    def test_summary_fields(self):
        disk = SimulatedDisk(num_blocks=64)
        disk.allocate_extents("a", 4096)
        summary = disk.summary()
        assert summary["num_blocks"] == 64
        assert summary["used_blocks"] == 1
        assert summary["files"] == 1


class TestFreeAndReallocate:
    def test_free_returns_block_count(self):
        disk = SimulatedDisk(num_blocks=64)
        disk.allocate_extents("f", 3 * 4096)
        assert disk.free("f") == 3
        assert not disk.has_file("f")
        assert disk.free_blocks == 64

    def test_double_free_raises_explicit_error(self):
        from repro.layout.disk import DoubleFreeError

        disk = SimulatedDisk(num_blocks=64)
        disk.allocate_extents("f", 4096)
        disk.free("f")
        with pytest.raises(DoubleFreeError, match="double free"):
            disk.free("f")

    def test_free_of_unknown_file_raises(self):
        from repro.layout.disk import DoubleFreeError

        disk = SimulatedDisk(num_blocks=64)
        with pytest.raises(DoubleFreeError):
            disk.free("never-existed")

    def test_reallocate_can_reuse_own_blocks(self):
        disk = SimulatedDisk(num_blocks=64)
        old = disk.allocate_extents("f", 4 * 4096)
        disk.free("f")
        new = disk.allocate_extents("f", 4 * 4096)
        assert new == old  # first-fit hands back the freed region

    def test_rename_preserves_blocks(self):
        disk = SimulatedDisk(num_blocks=64)
        extents = disk.allocate_extents("a", 2 * 4096)
        disk.rename("a", "b")
        assert not disk.has_file("a")
        assert disk.extents_of("b") == extents
        with pytest.raises(KeyError):
            disk.rename("a", "c")
        disk.allocate_extents("a", 4096)
        with pytest.raises(ValueError):
            disk.rename("a", "b")


class TestExtentRepresentation:
    def test_contiguous_allocation_is_one_extent(self):
        disk = SimulatedDisk(num_blocks=100)
        extents = disk.allocate_extents("a", 10 * 4096)
        assert extents == [(0, 10)]
        assert disk.extents_of("a") == [(0, 10)]
        assert disk.run_count("a") == 1
        assert disk.block_count("a") == 10
        assert disk.first_block_of("a") == 0

    def test_fragmented_allocation_yields_multiple_extents(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("a", 4 * 4096)
        disk.allocate_extents("hole", 2 * 4096)
        disk.allocate_extents("b", 4 * 4096)
        disk.free("hole")
        extents = disk.allocate_extents("c", 4 * 4096)
        assert extents == [(4, 2), (10, 2)]
        assert blocks_of(disk, "c") == [4, 5, 10, 11]

    def test_extend_merges_with_contiguous_tail(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("f", 3 * 4096)
        pieces = disk.extend_extents("f", 2 * 4096)
        # The new piece is reported separately but merged into the tail run.
        assert pieces == [(3, 2)]
        assert disk.extents_of("f") == [(0, 5)]
        assert disk.run_count("f") == 1

    def test_extend_after_blocker_keeps_separate_extent(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("f", 3 * 4096)
        disk.allocate_extents("blocker", 4096)
        disk.extend_extents("f", 2 * 4096)
        assert disk.extents_of("f") == [(0, 3), (4, 2)]

    def test_empty_file_has_no_extents(self):
        disk = SimulatedDisk(num_blocks=10)
        disk.allocate_extents("empty", 0)
        assert disk.extents_of("empty") == []
        assert disk.run_count("empty") == 0
        assert disk.block_count("empty") == 0
        assert disk.first_block_of("empty") is None

    def test_extent_accessors_raise_for_unknown_files(self):
        disk = SimulatedDisk(num_blocks=10)
        for accessor in (
            disk.extents_of,
            disk.run_count,
            disk.block_count,
            disk.first_block_of,
        ):
            with pytest.raises(KeyError):
                accessor("missing")

    def test_free_extents_listing(self):
        disk = SimulatedDisk(num_blocks=20)
        disk.allocate_extents("a", 5 * 4096)
        disk.allocate_extents("b", 5 * 4096)
        disk.free("a")
        assert disk.free_extents() == [(0, 5), (10, 10)]

    def test_summary_reports_extent_counts_and_score(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("a", 4 * 4096)
        disk.allocate_extents("hole", 4096)
        disk.allocate_extents("b", 4 * 4096)
        disk.free("hole")
        disk.allocate_extents("c", 3 * 4096)  # splits across the hole
        summary = disk.summary()
        assert summary["file_extents"] == disk.total_extents == 4
        assert summary["layout_score"] == disk.layout_score()


class TestIncrementalLayoutScore:
    """The disk's O(1) aggregates must match a full recomputation."""

    def _recomputed(self, disk: SimulatedDisk) -> float:
        from repro.layout.layout_score import layout_score_from_blockmaps

        return layout_score_from_blockmaps(
            [blocks_of(disk, name) for name in disk.file_names()]
        )

    def test_perfect_layout_scores_one(self):
        disk = SimulatedDisk(num_blocks=100)
        disk.allocate_extents("a", 10 * 4096)
        disk.allocate_extents("b", 5 * 4096)
        assert disk.layout_score() == 1.0
        assert disk.layout_aggregates == (13, 13)

    def test_empty_disk_scores_one(self):
        disk = SimulatedDisk(num_blocks=100)
        assert disk.layout_score() == 1.0
        assert disk.layout_aggregates == (0, 0)

    def test_aggregates_track_mutations(self):
        rng = np.random.default_rng(99)
        disk = SimulatedDisk(num_blocks=4096)
        live: list[str] = []
        counter = 0
        for _ in range(400):
            action = rng.random()
            if live and action < 0.3:
                disk.free(live.pop(int(rng.integers(len(live)))))
            elif live and action < 0.45:
                name = live[int(rng.integers(len(live)))]
                size = int(rng.integers(1, 8)) * 4096
                if disk.blocks_needed(size) <= disk.free_blocks:
                    disk.extend_extents(name, size)
            elif live and action < 0.55:
                name = live[int(rng.integers(len(live)))]
                size = int(rng.integers(1, 8)) * 4096
                if disk.blocks_needed(size) <= disk.free_blocks:
                    disk.free(name)
                    disk.allocate_extents(name, size)
            else:
                name = f"f{counter}"
                counter += 1
                size = int(rng.integers(0, 12)) * 4096
                if disk.blocks_needed(size) <= disk.free_blocks:
                    disk.allocate_extents(name, size)
                    live.append(name)
            assert disk.layout_score() == pytest.approx(self._recomputed(disk), abs=1e-12)


class TestExtendPreservesInsertionOrder:
    """Regression: extend_extents() must not move the file to the end of file_names().

    The historical implementation popped and re-inserted the allocation dict
    entry, silently reordering iteration (and anything keyed off it) after
    every extend.
    """

    def test_extend_keeps_file_names_order(self):
        disk = SimulatedDisk(num_blocks=1000)
        for name in ("a", "b", "c", "d"):
            disk.allocate_extents(name, 2 * 4096)
        disk.extend_extents("b", 4096)
        assert disk.file_names() == ["a", "b", "c", "d"]
        disk.extend_extents("a", 4096)
        disk.extend_extents("d", 4096)
        assert disk.file_names() == ["a", "b", "c", "d"]

    def test_failed_extend_keeps_order_too(self):
        disk = SimulatedDisk(num_blocks=10)
        disk.allocate_extents("a", 2 * 4096)
        disk.allocate_extents("b", 2 * 4096)
        with pytest.raises(AllocationError):
            disk.extend_extents("a", 100 * 4096)
        assert disk.file_names() == ["a", "b"]


class TestCoalescingUnderChurn:
    """Free-extent invariants while files churn through free()/allocate."""

    def _free_extents(self, disk: SimulatedDisk) -> list[tuple[int, int]]:
        return list(zip(disk._free_starts, disk._free_lengths))

    def _assert_invariants(self, disk: SimulatedDisk) -> None:
        extents = self._free_extents(disk)
        for (start_a, len_a), (start_b, _) in zip(extents, extents[1:]):
            # Sorted, non-overlapping, and never adjacent (adjacent extents
            # must have been coalesced into one).
            assert start_a + len_a < start_b

    def test_interleaved_free_coalesces_fully(self):
        disk = SimulatedDisk(num_blocks=128)
        names = [f"f{i}" for i in range(16)]
        for name in names:
            disk.allocate_extents(name, 8 * 4096)
        # Free odd files first, then even: every boundary exercises both the
        # merge-with-next and merge-with-previous paths.
        for name in names[1::2]:
            disk.free(name)
            self._assert_invariants(disk)
        for name in names[0::2]:
            disk.free(name)
            self._assert_invariants(disk)
        assert self._free_extents(disk) == [(0, 128)]

    def test_random_churn_keeps_extents_canonical(self):
        rng = np.random.default_rng(123)
        disk = SimulatedDisk(num_blocks=2048)
        live: list[str] = []
        counter = 0
        for _ in range(600):
            if live and rng.random() < 0.45:
                victim = live.pop(int(rng.integers(len(live))))
                disk.free(victim)
            else:
                name = f"churn{counter}"
                counter += 1
                size = int(rng.integers(1, 16)) * 4096
                if disk.blocks_needed(size) <= disk.free_blocks:
                    disk.allocate_extents(name, size)
                    live.append(name)
            self._assert_invariants(disk)
            assert disk.used_blocks + disk.free_blocks == disk.num_blocks
        for name in live:
            disk.free(name)
        assert self._free_extents(disk) == [(0, 2048)]
