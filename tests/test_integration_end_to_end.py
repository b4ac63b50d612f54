"""End-to-end integration tests across modules.

These tests exercise full paths a user of the library would take: generate an
image with several knobs turned at once, check that all the pieces are
mutually consistent, and run the downstream consumers (analysis, workloads,
search engines) against the same image.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.content.generators import ContentPolicy
from repro.core.config import ImpressionsConfig
from repro.core.impressions import Impressions
from repro.dataset.study import analyze_image, compare_distribution_sets
from repro.layout.layout_score import layout_score
from repro.workloads.find import FindSimulator
from repro.workloads.grep import GrepSimulator
from repro.workloads.search.beagle import BeagleSearchEngine
from repro.workloads.search.gdl import GoogleDesktopSearchEngine

from layout_helpers import blocks_of, node_blocks


@pytest.fixture(scope="module")
def full_image():
    """An image with content, constraints and fragmentation all enabled."""
    config = ImpressionsConfig(
        fs_size_bytes=24 * 1024 * 1024,
        num_files=300,
        num_directories=60,
        seed=99,
        enforce_fs_size=True,
        beta=0.1,
        layout_score=0.9,
        generate_content=True,
        content=ContentPolicy(text_model="hybrid"),
    )
    return Impressions(config).generate()


class TestEndToEndConsistency:
    def test_all_knobs_respected_simultaneously(self, full_image):
        assert full_image.file_count == 300
        target = 24 * 1024 * 1024
        assert abs(full_image.total_bytes - target) / target <= 0.12
        assert full_image.achieved_layout_score() == pytest.approx(0.9, abs=0.04)

    def test_tree_disk_and_metadata_agree(self, full_image):
        disk = full_image.disk
        total_blocks = 0
        for file_node in full_image.tree.files:
            if file_node.size == 0:
                continue
            blocks = blocks_of(disk, file_node.path())
            assert blocks == node_blocks(file_node)
            assert len(blocks) == disk.blocks_needed(file_node.size)
            total_blocks += len(blocks)
        assert disk.used_blocks == total_blocks

    def test_layout_score_consistent_between_views(self, full_image):
        names = [f.path() for f in full_image.tree.files if f.size > 0]
        assert layout_score(full_image.disk, names) == pytest.approx(
            full_image.achieved_layout_score(), abs=1e-9
        )

    def test_analysis_matches_tree_statistics(self, full_image):
        distributions = analyze_image(full_image)
        assert distributions.total_files == full_image.file_count
        assert distributions.total_bytes == full_image.total_bytes
        assert distributions.file_size_histogram.total_bytes == full_image.total_bytes

    def test_self_comparison_is_exact(self, full_image):
        distributions = analyze_image(full_image)
        diffs = compare_distribution_sets(distributions, distributions)
        assert all(value == pytest.approx(0.0, abs=1e-9) for value in diffs.values())

    def test_workloads_run_against_the_same_image(self, full_image):
        find_result = FindSimulator(full_image).run()
        grep_result = GrepSimulator(full_image).run()
        assert find_result.directories_visited == full_image.directory_count
        assert (
            grep_result.files_scanned + grep_result.files_skipped_binary
            == full_image.file_count
        )

    def test_search_engines_index_the_image(self, full_image):
        beagle = BeagleSearchEngine().index(full_image)
        gdl = GoogleDesktopSearchEngine().index(full_image)
        assert beagle.files_seen == gdl.files_seen == full_image.file_count
        assert beagle.index_size_bytes > 0 and gdl.index_size_bytes > 0

    def test_report_parameters_regenerate_identical_image(self, full_image):
        report = full_image.report
        config = ImpressionsConfig(
            fs_size_bytes=24 * 1024 * 1024,
            num_files=300,
            num_directories=60,
            seed=report.seed,
            enforce_fs_size=True,
            beta=0.1,
            layout_score=0.9,
            generate_content=True,
            content=ContentPolicy(text_model="hybrid"),
        )
        clone = Impressions(config).generate()
        assert clone.tree.file_sizes() == full_image.tree.file_sizes()
        assert [f.path() for f in clone.tree.files] == [f.path() for f in full_image.tree.files]
        sample = full_image.tree.files[0]
        assert clone.file_content(clone.tree.files[0]) == full_image.file_content(sample)


class TestScalingBehaviour:
    def test_larger_images_have_more_of_everything(self):
        small = Impressions(
            ImpressionsConfig(fs_size_bytes=None, num_files=100, num_directories=20, seed=1)
        ).generate()
        large = Impressions(
            ImpressionsConfig(fs_size_bytes=None, num_files=1_000, num_directories=200, seed=1)
        ).generate()
        assert large.file_count > small.file_count
        assert large.total_bytes > small.total_bytes
        assert large.tree.max_depth() >= small.tree.max_depth()

    def test_depth_distribution_stays_plausible_across_scales(self):
        for num_files, num_dirs in ((200, 40), (800, 160)):
            image = Impressions(
                ImpressionsConfig(
                    fs_size_bytes=None, num_files=num_files, num_directories=num_dirs, seed=2
                )
            ).generate()
            depths = np.asarray([f.depth for f in image.tree.files])
            assert 2.0 <= depths.mean() <= 10.0
