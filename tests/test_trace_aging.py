"""Tests for trace-driven aging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ImpressionsConfig
from repro.core.impressions import Impressions
from repro.layout.layout_score import layout_score
from repro.trace.aging import TraceAger, age_image_to_score
from repro.trace.ops import OperationTrace

from layout_helpers import blocks_of, node_blocks


def _fresh_image(seed: int = 7) -> "Impressions":
    config = ImpressionsConfig(
        fs_size_bytes=48 * 1024 * 1024,
        num_files=400,
        num_directories=80,
        seed=seed,
    )
    return Impressions(config).generate()


class TestTargetConvergence:
    @pytest.mark.parametrize("target", [0.9, 0.7, 0.5])
    def test_reaches_target_within_tolerance(self, target):
        image = _fresh_image()
        result = age_image_to_score(image, target, seed=5)
        assert result.error <= 0.05
        # The score the ager reports is the score the disk actually has.
        names = [f.path() for f in image.tree.files if image.disk.has_file(f.path())]
        assert layout_score(image.disk, names) == pytest.approx(result.achieved_score)

    def test_matches_fragmenter_on_same_image_config(self):
        """Trace-driven aging and the fragmenter reach the same target score."""
        target = 0.8
        aged = _fresh_image()
        aging_result = age_image_to_score(aged, target, seed=5)

        fragmented = Impressions(
            ImpressionsConfig(
                fs_size_bytes=48 * 1024 * 1024,
                num_files=400,
                num_directories=80,
                seed=7,
                layout_score=target,
            )
        ).generate()
        fragmenter_score = fragmented.achieved_layout_score()

        assert aging_result.error <= 0.05
        assert abs(fragmenter_score - target) <= 0.05
        assert abs(aging_result.achieved_score - fragmenter_score) <= 0.1

    def test_target_one_is_a_noop(self):
        image = _fresh_image()
        result = age_image_to_score(image, 1.0, seed=5)
        assert result.files_rewritten == 0
        assert result.achieved_score == pytest.approx(result.initial_score)


class TestTraceSideEffects:
    def test_trace_is_replayable_and_reaches_same_score(self):
        """Replaying the emitted trace on a fresh identical image reproduces the score."""
        image_a = _fresh_image()
        result = age_image_to_score(image_a, 0.8, seed=5)

        from repro.trace.replay import TraceReplayer

        image_b = _fresh_image()
        restored = OperationTrace.from_jsonl(result.trace.to_jsonl())
        TraceReplayer(image_b).replay(restored)
        names = [f.path() for f in image_b.tree.files if image_b.disk.has_file(f.path())]
        assert layout_score(image_b.disk, names) == pytest.approx(result.achieved_score)

    def test_no_temporaries_survive(self):
        image = _fresh_image()
        age_image_to_score(image, 0.8, seed=5)
        assert not any(name.startswith("/.aging-tmp") for name in image.disk.file_names())

    def test_tree_blocklists_synced(self):
        image = _fresh_image()
        age_image_to_score(image, 0.8, seed=5)
        for node in image.tree.files:
            if image.disk.has_file(node.path()):
                assert node_blocks(node) == blocks_of(image.disk, node.path())

    def test_timings_and_report_recorded(self):
        image = _fresh_image()
        age_image_to_score(image, 0.9, seed=5)
        assert image.report.phase_timings["trace_aging"] > 0
        assert "trace_aging_score" in image.report.derived

    def test_determinism(self):
        result_a = age_image_to_score(_fresh_image(), 0.8, seed=5)
        result_b = age_image_to_score(_fresh_image(), 0.8, seed=5)
        assert result_a.trace.to_jsonl() == result_b.trace.to_jsonl()
        assert result_a.achieved_score == result_b.achieved_score


class TestValidation:
    def test_invalid_target_rejected(self):
        image = _fresh_image()
        with pytest.raises(ValueError):
            TraceAger(image, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            TraceAger(image, 1.5, np.random.default_rng(0))

    def test_image_without_disk_rejected(self):
        from repro.core.image import FileSystemImage
        from repro.namespace.tree import FileSystemTree

        with pytest.raises(ValueError):
            TraceAger(FileSystemImage(tree=FileSystemTree()), 0.8, np.random.default_rng(0))
