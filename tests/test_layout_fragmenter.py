"""Unit tests for the target-score fragmenter (Section 3.7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.layout.disk import SimulatedDisk
from repro.layout.fragmenter import Fragmenter
from repro.layout.layout_score import layout_score

from layout_helpers import blocks_of


def _populate(fragmenter: Fragmenter, rng: np.random.Generator, count: int = 400) -> list[str]:
    names = []
    for index in range(count):
        size = int(max(4096, rng.lognormal(9.5, 1.6)))
        name = f"file{index}"
        fragmenter.allocate_regular_file(name, size)
        names.append(name)
    return names


class TestValidation:
    def test_invalid_target_rejected(self):
        disk = SimulatedDisk(num_blocks=1_000)
        with pytest.raises(ValueError):
            Fragmenter(disk, target_score=0.0)
        with pytest.raises(ValueError):
            Fragmenter(disk, target_score=1.5)


class TestPerfectLayout:
    def test_target_one_produces_perfect_layout(self, rng):
        disk = SimulatedDisk(num_blocks=300_000)
        fragmenter = Fragmenter(disk, target_score=1.0)
        names = _populate(fragmenter, rng, count=200)
        report = fragmenter.finish()
        assert report.achieved_score == 1.0
        assert report.temporary_operations == 0
        assert layout_score(disk, names) == 1.0


class TestTargetScores:
    @pytest.mark.parametrize("target", [0.98, 0.95, 0.9, 0.7])
    def test_achieves_requested_score(self, target):
        rng = np.random.default_rng(17)
        disk = SimulatedDisk(num_blocks=500_000)
        fragmenter = Fragmenter(disk, target_score=target)
        names = _populate(fragmenter, rng, count=400)
        report = fragmenter.finish()
        assert report.achieved_score == pytest.approx(target, abs=0.02)
        # The incremental score matches a full recomputation over the disk.
        assert layout_score(disk, names) == pytest.approx(report.achieved_score, abs=1e-9)

    def test_report_error_field(self):
        rng = np.random.default_rng(3)
        disk = SimulatedDisk(num_blocks=200_000)
        fragmenter = Fragmenter(disk, target_score=0.9)
        _populate(fragmenter, rng, count=150)
        report = fragmenter.finish()
        assert report.error == pytest.approx(abs(report.achieved_score - 0.9))

    def test_temporary_files_are_cleaned_up(self):
        rng = np.random.default_rng(5)
        disk = SimulatedDisk(num_blocks=200_000)
        fragmenter = Fragmenter(disk, target_score=0.9)
        names = _populate(fragmenter, rng, count=100)
        fragmenter.finish()
        assert set(disk.file_names()) == set(names)
        assert fragmenter.temporary_operations > 0

    def test_no_files_scores_one(self):
        disk = SimulatedDisk(num_blocks=1_000)
        fragmenter = Fragmenter(disk, target_score=0.8)
        report = fragmenter.finish()
        assert report.achieved_score == 1.0
        assert report.regular_files == 0

    def test_single_block_files_cannot_fragment(self):
        disk = SimulatedDisk(num_blocks=10_000)
        fragmenter = Fragmenter(disk, target_score=0.5)
        for index in range(100):
            fragmenter.allocate_regular_file(f"tiny{index}", 100)
        report = fragmenter.finish()
        # All files are single-block: the layout score is 1.0 by definition.
        assert report.achieved_score == 1.0

    def test_extents_returned_in_logical_order(self):
        disk = SimulatedDisk(num_blocks=100_000)
        fragmenter = Fragmenter(disk, target_score=0.6)
        extents = fragmenter.allocate_regular_file("f", 50 * 4096)
        assert extents == disk.extents_of("f")
        blocks = [b for start, length in extents for b in range(start, start + length)]
        assert len(blocks) == 50
        assert len(set(blocks)) == 50
        assert blocks == blocks_of(disk, "f")


class TestKnownMiss:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 8(b): the fixed MAX_SPLITS_PER_FILE cap binds on this "
        "heavy-tailed image, which reaches 0.946 for a 0.75 target",
    )
    def test_heavy_tailed_image_meets_target(self):
        from repro.bench.common import scaled_default_config
        from repro.core.impressions import Impressions

        image = Impressions(scaled_default_config(scale=0.25, seed=5, layout_score=0.75)).generate()
        assert abs(image.achieved_layout_score() - 0.75) <= 0.01
